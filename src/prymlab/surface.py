"""Integer homology of a branched cover of the sphere, with intersections.

The base sphere gets the cell structure of a star: one vertex at the base
point, one arc to each branch point, and a single face wrapped around the
star. Lifting along the monodromy gives a closed oriented surface as an
explicit cell complex:

* one sheet vertex per sheet over the base point;
* one ramification vertex per cycle of each local monodromy;
* one edge per (sheet, arc) pair, oriented sheet vertex -> ramification
  vertex;
* one face per sheet, whose boundary walks every arc down and back, hopping
  sheets by the inverse local monodromy at each ramification vertex.

The complex is built by array passes over the monodromy arrays, never one
sheet or edge at a time: every sheet is walked around its cycle under every
arc at once, for as many steps as the longest cycle has sheets, which gives
each cycle's least sheet (its vertex is walked from there), its length and
its ends in cyclic order; edge heads follow by one scatter. The model keeps
the vertex ends in one form: the ramification vertices grouped by their
number of ends L (``branch_groups``), each group an array of L columns,
while sheet vertex s has the ends ``s * k ... s * k + k - 1`` (k arcs) by
construction. The faces are one k x d walk (``face_walk``: row i holds the
sheet each face is on before arc i), and the two faces of each edge, the
one that walks down it and the one that walks back up, are read off it by
one scatter each. The boundary of a block of edge chains (``_boundary``) is
a segment sum; the model holds no boundary map: the sheet vertices are the
chains reshaped sheet by arc and summed over the arcs, and the ramification
vertices are one gather and one sum over L per group. It runs under
``matmul``'s rule with the most ends at a vertex for the inner dimension:
at the narrowest of int16, int32 and int64 that holds that times the
largest entry, Python ints from 2^63. ``induced_map_all`` checks with it
that every image chain closes.

First homology comes from two trees (a tree-cotree decomposition). A
breadth-first search from sheet vertex 0 gives the spanning tree; the m
non-tree edges carry the cycles and the d face boundaries the relations.
Every edge is walked down by one face and back up by one, so each
relation, read on the non-tree edges, is an incidence row of the dual
graph: +1 at one face and -1 at the other, zero where they coincide
(asserted). The Smith elimination of that matrix (``lattice._eliminate``)
then has a unit pivot at every step and keeps every row an incidence row,
and ``_replay`` replays it on the rows' two faces alone: its pivot rows
form a spanning tree of the dual graph, the other rows (the generators)
come out in the elimination's order, and its rank is d - 1 (asserted), so
the quotient is free of rank 2g = m - d + 1. The build forms the basis as
one E x 2g integer matrix ``B`` (E the number of edges, edge ``sheet *
arcs + arc``): column j is the fundamental cycle of generator j's edge in
the spanning tree, walked from its head back to its tail, which is what
the elimination's U^-1 with its non-tree entries closed through the tree
gives. The class of any cycle is ``C`` times its edge chain: row j of
``C`` is the one vector of the relations' left kernel that is 1 at
generator j and 0 at the others, the elimination's U past the relations,
that is the fundamental cycle of generator j in the dual tree, on the
non-tree edges (zero at tree edges). The paths in both trees come for
every generator at once, by walking the two ends of each up in lockstep to
their lowest common ancestor (``_tree_paths``), as (edge, column, sign)
triples, from which ``B``, ``C`` and the sheet chains are written. A
fundamental cycle is simple, so every entry of ``B`` and ``C`` is -1, 0
or 1. A fiber correspondence
therefore acts on homology as one product: image chains ``(F^T (x) I) B``,
then ``C``. ``B`` is under 1% nonzero at rank 5, so the model keeps it only
by its nonzero entries, its rows grouped by sheet and transposed, as a
``lattice.SparseMatrix`` (``sheet_chains``), and the image chains are that
times the fiber block, transposed back. Dense ``B`` goes to the Gram and is
freed when the build returns.

The intersection form is ``B^T Q B`` for a local crossing form Q: push the
second chain off to the right of every edge; crossings then happen only
inside the disk around each vertex, where they are counted from the cyclic
order of edge ends (ascending arcs at a sheet vertex, inverse-monodromy
order at a ramification vertex). Q is block diagonal over the vertices. A
ramification vertex with ends e_1, ..., e_L pairs each e_i with the sum of
the ends before it and adds ``-sum_i outer(B[e_i], B[e_1] + ... +
B[e_(i-1)])``, which is ``-outer(B[e_2], B[e_1])`` for the two ends every
reflection makes. One sparse product per group of equal L sums these over
the group: ``B[later ends]^T`` times the prefix sums of ``B[earlier ends]``,
taken in place on the gathered block. The sheet vertices are summed one at
a time, each over the basis columns that pass through it, and without a
product (``_sheet_crossings``): a basis cycle is simple, so it leaves a
sheet vertex by one end (+1) and comes back by another (-1), and its
column there is ``e_out - e_back``. With the ends in ascending arcs,
``x^T cumsum(x)`` is then the prefix sums' rows at the out-ends less
their rows at the back-ends, found by ``argmax`` and ``argmin`` and read
by two row gathers, which are scattered into the Gram at the columns'
pairs. The Gram is checked to have zero diagonal and to be alternating
and unimodular on every build, the last by its Pfaffian
(``lattice.pfaffian``), which must be +-1.

The model's matrices are held at fixed width: ``C`` (``class_map``, about
2% nonzero at rank 5) and the sheet chains as ``lattice.SparseMatrix`` with
int64 entries, and the Gram in int64. With Delta the most edge ends at one
vertex, a ramification vertex's prefix sums in the Gram add at most
Delta - 1 rows of ``B``, whose entries are -1, 0 and 1, so ``B`` is held
at the narrowest of int16, int32 and int64 above Delta - 1: int16 while
no vertex has 2^15 ends, rank 1026 at ``random_simple(8, 4, 16, 1)``
included. Each Gram entry is a sum of products of two entries of ``B``,
at most ``Delta_v^2`` of them from a vertex with Delta_v ends and so at
most ``2 E Delta`` in all over the vertices' 2E ends, so that every
partial sum, whatever the order and grouping of its terms, is at most
``2 E Delta``, far inside int64. That covers the product of each group,
whose partial sums group the same terms by basis column and by prefix,
and its own bound check (``L - 1`` times at most E terms) then holds too.
At a sheet vertex the prefix sums of a column ``e_out - e_back`` are -1, 0
and 1, so the gathered differences lie in -2..2 and stay at ``B``'s width.
Products with a fiber matrix, whose entries are the caller's, go through
``lattice._sparse_product``, which checks ``matmul``'s bound on each call,
comes at the width that bound needs and runs on Python ints where it
fails.

The checked Gram is held once, in int64, by each model and by each
homology (``_gram64``). Their ``gram`` reads it out as an object array of
Python ints, a new one on each read; the int64 array goes only to
``lattice.PolarizedLattice``, for a homology's sublattices
(``sublattice``). An induced map comes the same way: ``_induced`` forms it
at fixed width, int64 where every block fits, and hands it so to the
package's own endomorphisms (delta, iota and 1 - iota in ``prym``), which
go to ``lattice.eye_minus`` as they are, with no conversion on the way;
``induced_map_all`` reads it out as Python ints. Every other matrix that
leaves this module is an object array of Python ints too.

``build_all`` finds a cover's components once and hands them to each
model; a model made directly finds them itself, to refuse a disconnected
cover.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import cover as _cover
from . import lattice
from .cover import CoverModel, components
from .errors import DisconnectedError, EquivarianceError, UnsupportedError
from .lattice import zeros


class HomologyModel:
    """Homology basis, intersection Gram and chain machinery for one
    connected cover of the rational base. Treat instances as immutable."""

    def __init__(self, cover_model: CoverModel, comps=None):
        """``comps`` is the cover's ``components``, when the caller has
        found them; they are found here otherwise."""
        if cover_model.datum.base_genus != 0:
            raise UnsupportedError("homology model supports genus-0 bases only")
        if comps is None:
            comps = components(cover_model)
        if len(comps) != 1:
            raise DisconnectedError(
                "cover is disconnected; build per component",
                components=comps,
            )
        self.cover = cover_model
        self._build_complex()
        self._build_gram(self._build_cycles())

    @property
    def gram(self) -> np.ndarray:
        """The intersection Gram as an object array of Python ints."""
        return lattice._objects(self._gram64)

    # -- complex ----------------------------------------------------------

    def _build_complex(self):
        cov = self.cover
        d = cov.degree
        k = len(cov.perms)
        self.degree = d
        self.arc_count = k
        perms = np.array(cov.perms, dtype=np.intp).reshape(k, d)
        inv = np.empty_like(perms)
        inv[np.arange(k)[:, None], perms] = np.arange(d)

        # walk every sheet around its cycle under each arc's inverse
        # monodromy at once, until every walk has come back: walks[j, i, s]
        # is the sheet j steps on from s under arc i, for j below the
        # longest cycle, and cycle[i, s] the length of the cycle through s
        start = np.tile(np.arange(d), (k, 1))
        walks, at = [start], start
        cycle, open_ = np.ones((k, d), dtype=np.intp), np.ones((k, d), dtype=bool)
        while True:
            at = np.take_along_axis(inv, at, axis=1)
            open_ &= at != start
            if not open_.any():
                break
            cycle += open_
            walks.append(at)
        walks = np.stack(walks)
        # vertices: sheets first, then one per cycle, arc by arc and each
        # arc's cycles by their least sheet, which a walk from it starts at
        arcs, heads = np.nonzero(walks.min(axis=0) == start)
        branches = len(heads)
        self.vertex_count = d + branches
        sizes = cycle[arcs, heads]
        on_cycle = np.arange(len(walks)) < sizes[:, None]
        # edge id: sheet * k + arc, oriented sheet vertex -> branch vertex;
        # ends[j] are the edges ending at vertex d + j in cyclic order
        ends = walks[:, arcs, heads].T * k + arcs[:, None]
        self.edge_count = E = d * k
        self.edge_tail = np.arange(E) // k
        self.edge_head = np.empty(E, dtype=np.intp)
        self.edge_head[ends[on_cycle]] = np.repeat(d + np.arange(branches), sizes)
        self.most_ends = max(k, len(walks))
        # the ramification vertices grouped by their number of ends L, each
        # group as (vertex ids, their ends in an array of L columns, in the
        # cyclic order of the inverse monodromy); sheet vertex s has the
        # ends s * k ... s * k + k - 1, in ascending arcs
        self.branch_groups = []
        for size in sorted(set(sizes.tolist())):
            rows = np.flatnonzero(sizes == size)
            self.branch_groups.append((d + rows, ends[rows, :size]))

        # face boundaries, one per sheet: face t walks the arcs in
        # ascending order, down arc i on sheet face_walk[i, t] and back up
        # it on face_walk[i + 1, t], hopping by the inverse monodromy
        walk = np.empty((k + 1, d), dtype=np.intp)
        walk[0] = np.arange(d)
        for i in range(k):
            walk[i + 1] = inv[i, walk[i]]
        if (walk[k] != walk[0]).any():
            raise AssertionError("face walk failed to close")
        self.face_walk = walk

    def _boundary(self, chains) -> np.ndarray:
        """The boundary of edge chains (the columns of ``chains``), -1 at
        the tail and +1 at the head of each edge, by segment sums: the
        sheet vertices are one sum over the arcs of ``chains`` reshaped
        sheet by arc, and the ramification vertices one such sum per group
        of equal size, over their ends gathered a chunk of at most
        ``lattice._GATHER`` entries at a time (one vertex at the least), so
        the temporary stays small. Under ``lattice``'s product rule, with
        the most ends at a vertex for the inner dimension: at the narrowest
        fixed width that holds that times the largest entry, and on Python
        ints from 2^63; chains already at a fixed width are read as they
        are."""
        fixed, top = lattice._fixed(chains)
        if fixed is None or top * self.most_ends >= lattice._INT64_BOUND:
            chains, width = lattice._pyints(chains), object
        else:
            chains, width = fixed, lattice._narrowest(top * self.most_ends)
        g = chains.shape[1]
        out = np.empty((self.vertex_count, g), dtype=width)
        out[:self.degree] = -chains.reshape(self.degree, self.arc_count, g).sum(
            axis=1, dtype=width
        )
        for vertices, ends in self.branch_groups:
            step = max(1, lattice._GATHER // max(ends.shape[1] * g, 1))
            for lo in range(0, len(ends), step):
                gathered = chains[ends[lo:lo + step]]
                out[vertices[lo:lo + step]] = gathered.sum(axis=1, dtype=width)
        return out

    # -- cycles and relations ----------------------------------------------

    def _build_cycles(self):
        E, d, k = self.edge_count, self.degree, self.arc_count
        # spanning tree by breadth-first search from sheet vertex 0, each
        # vertex's edges taken in ascending order
        tree = _bfs_tree(self.vertex_count, self.edge_head, self.edge_tail)
        in_tree = np.zeros(E, dtype=bool)
        in_tree[tree[1][1:]] = True
        self.nontree = np.flatnonzero(~in_tree)

        # relations: face boundaries in non-tree coordinates, face t being
        # +1 on each edge it walks down and -1 on each it walks back up;
        # every edge is walked down by one face and back up by one, so each
        # relation row is an incidence row of the dual graph (zero where
        # the two faces coincide)
        walk, arc, face = self.face_walk, np.arange(k)[:, None], np.arange(d)
        down, back = np.full(E, -1), np.full(E, -1)
        down[walk[:-1] * k + arc] = face
        back[walk[1:] * k + arc] = face
        if (down < 0).any() or (back < 0).any():
            raise AssertionError("a face relation is not an incidence row")
        plus, minus = down[self.nontree], back[self.nontree]
        order, r = _replay(plus.tolist(), minus.tolist(), d)
        if r != d - 1:
            raise AssertionError("face relations short of rank d - 1; construction broken")
        m = len(self.nontree)
        self.genus2 = g = m - r
        if g % 2:
            raise AssertionError("odd first Betti number on a closed surface")
        self.genus = g // 2
        if self.genus != _cover._riemann_hurwitz(self.cover):
            raise AssertionError("homology rank disagrees with the genus count")
        pivots, gens = order[:r], order[r:]
        basis = np.arange(g)

        # the class of a cycle is C times its edge chain: row j of C is the
        # fundamental cycle of generator j in the dual tree, whose edges are
        # the pivot rows
        dual = _bfs_tree(d, plus[pivots], minus[pivots])
        at, j, sign = _tree_paths(*dual, plus[gens], minus[gens])
        self.class_map = _sparse(
            (g, E), np.concatenate([j, basis]),
            self.nontree[np.concatenate([pivots[at], gens])],
            np.concatenate([sign, np.ones(g, dtype=np.int64)]),
        )

        # B: basis cycle j is the fundamental cycle of generator j's edge in
        # the spanning tree, walked from its head back to its tail
        ends = self.nontree[gens]
        at, j, sign = _tree_paths(*tree, self.edge_head[ends], self.edge_tail[ends])
        edges = np.concatenate([at, ends])
        cols = np.concatenate([j, basis])
        vals = np.concatenate([sign, np.ones(g, dtype=np.int64)])
        # the model keeps the cycles by their nonzero entries only, one row
        # per (arc, basis cycle) and one column per sheet: the image chains
        # of a fiber correspondence are this times the fiber block,
        # transposed; B itself goes to the Gram and is dropped
        sheet, arc = np.divmod(edges, k)
        self.sheet_chains = _sparse((k * g, d), arc * g + cols, sheet, vals)
        # the Gram's prefix sums at a ramification vertex add at most L - 1
        # rows of B, whose entries are -1, 0 and 1
        B = np.zeros((E, g), dtype=lattice._narrowest(max(self.most_ends - 1, 1)))
        B[edges, cols] = vals
        return B

    # -- intersection numbers ----------------------------------------------

    def _build_gram(self, B):
        """Gram = B^T Q B for the local crossing form Q, for the basis
        cycles ``B`` as an edge-by-cycle matrix: the ramification vertices
        by one product per group of equal size, the sheet vertices one at
        a time over the basis columns that touch the vertex, by two row
        gathers of their prefix sums.

        The second cycle is displaced to the right of every oriented edge,
        so its strand arrives just clockwise of a tail end and just counter-
        clockwise of a head end; the crossings at a vertex pair each end's
        flow with the prefix sum of the other cycle's flows in cyclic end
        order, inclusive at a sheet vertex and exclusive at a ramification
        vertex. The flow is minus the coefficient at a tail end, and the two
        signs cancel in the product.
        """
        g = self.genus2
        gram = _sheet_crossings(B, self.degree, self.arc_count)
        # a ramification vertex pairs each end after the first with the sum
        # of the ends before it: one sparse product sums a whole group
        for _vertices, ends in self.branch_groups:
            if ends.shape[1] > 1:
                run = B[ends[:, :-1]]
                for i in range(1, run.shape[1]):
                    run[:, i] += run[:, i - 1]
                later = lattice.sparse(B[ends[:, 1:].ravel()].T)
                gram -= lattice._sparse_product(later, run.reshape(later.shape[1], g))
        if np.diagonal(gram).any():
            raise AssertionError("nonzero self-intersection")
        if not (gram.T == -gram).all():
            raise AssertionError("intersection form is not alternating")
        if g and abs(lattice.pfaffian(gram)) != 1:
            raise AssertionError("intersection form is not unimodular")
        self._gram64 = gram


def _sheet_crossings(B, degree, arcs) -> np.ndarray:
    """The sheet vertices' part of the Gram, in int64: minus the sum over
    the sheets s of ``x^T cumsum(x)``, x the rows of ``B`` at the ends of
    sheet vertex s (edges ``s * arcs`` on, in ascending arcs) and the
    columns of the basis cycles through it.

    A basis cycle is a fundamental cycle of the spanning tree, so it is
    simple: it leaves s by one end (+1) and comes back by another (-1), and
    every column of x is ``e_out - e_back``. So ``x^T cumsum(x)`` is
    ``cumsum(x)[out] - cumsum(x)[back]``: ``argmax`` and ``argmin`` find
    the ends and two row gathers the rows, which are scattered into the Gram
    at the columns' pairs. The prefix sums are -1, 0 or 1 and their
    differences at most 2, so they stay at ``B``'s width."""
    g = B.shape[1]
    gram = np.zeros((g, g), dtype=np.int64)
    flat = gram.reshape(-1)
    for s in range(degree):
        x = B[s * arcs:(s + 1) * arcs]
        cols = np.flatnonzero(x.any(axis=0))
        x = x[:, cols]
        run = np.cumsum(x, axis=0, dtype=x.dtype)
        crossings = run[x.argmax(axis=0)] - run[x.argmin(axis=0)]
        flat[(cols[:, None] * g + cols).ravel()] -= crossings.ravel()
    return gram


def _bfs_tree(count, plus, minus):
    """The breadth-first spanning tree from node 0 of the connected graph on
    ``count`` nodes whose edge i joins ``plus[i]`` and ``minus[i]``, each
    node's edges taken in ascending order, as four arrays over the nodes:
    the parent, the edge to it (-1 at the root), the sign with which a
    path takes that edge on the way up (-1 from its plus end, +1 from its
    minus end) and the depth."""
    adj = [[] for _ in range(count)]
    for e, (a, b) in enumerate(zip(plus.tolist(), minus.tolist())):
        adj[a].append((e, b, 1))
        adj[b].append((e, a, -1))
    up, up_edge, up_sign, depth = [0] * count, [-1] * count, [0] * count, [0] * count
    seen = [False] * count
    seen[0] = True
    order = [0]
    for v in order:
        for e, w, s in adj[v]:
            if not seen[w]:
                seen[w] = True
                up[w], up_edge[w], up_sign[w], depth[w] = v, e, s, depth[v] + 1
                order.append(w)
    if len(order) != count:
        raise AssertionError("graph disconnected; construction broken")
    return (np.array(up, dtype=np.intp), np.array(up_edge, dtype=np.intp),
            np.array(up_sign, dtype=np.int64), np.array(depth, dtype=np.intp))


def _tree_paths(up, up_edge, up_sign, depth, start, end):
    """The path in a tree from ``start[j]`` to ``end[j]``, for every j at
    once, as three arrays of triples (edge, j, sign): the two ends of each
    path walk up in lockstep, the deeper one first, until they meet at
    their lowest common ancestor. The tree is ``_bfs_tree``'s four arrays;
    an edge is taken with its ``up_sign`` on the way up from ``start`` and
    with the opposite sign on the way down to ``end``. A tree path is
    simple, so no (edge, j) comes twice."""
    j = np.arange(len(start))
    a, b = np.asarray(start), np.asarray(end)
    out = [(np.empty(0, dtype=np.intp), j[:0], np.empty(0, dtype=np.int64))]
    while True:
        apart = a != b
        a, b, j = a[apart], b[apart], j[apart]
        if not j.size:
            break
        da, db = depth[a], depth[b]
        for x, rise, sign in ((a, da >= db, 1), (b, db >= da, -1)):
            at = x[rise]
            out.append((up_edge[at], j[rise], sign * up_sign[at]))
            x[rise] = up[at]
    return tuple(np.concatenate(part) for part in zip(*out))


def _replay(plus, minus, count):
    """``lattice._eliminate``'s pivot order on an incidence matrix R, with
    ``count`` columns and row i +1 at column ``plus[i]`` and -1 at
    ``minus[i]`` (zero where they are equal), replayed on the rows' ends:
    ``(order, r)``, row ``order[t]`` of R being the row at position t when
    the elimination ends (an array) and r its rank.

    Every entry of R is -1, 0 or 1, so every pivot is a unit and the first
    nonzero of the remaining block in row-major order: it lies in the first
    row at position t or later that is not zero, whose columns then merge
    (the pivot's column moves into the row's other one, in every row that
    has it), and a row whose two columns merge becomes zero. Which of the
    two columns is the pivot's changes only the column transform, so the
    columns are tracked as merged sets (union-find) and the rows by their
    positions. The rows from position t are the zero rows met so far, in a
    queue, and then the rows not yet reached in their first order: a row
    reached as zero joins the back of the queue, and a pivot swaps places
    with its front, which goes to the back. So the pivots are the rows,
    in their order, that join two sets, and the zero rows (the
    generators) end in queue order; once r = count - 1 every later row is
    zero and joins the queue as it stands.

    U^-1[:, r:] is then the unit columns at ``order[r:]``, as no operation
    past the swaps reaches them, and U[r + j] the one vector of R's left
    kernel that is 1 at generator ``order[r + j]`` and 0 at the others:
    the signed path between its two columns in the tree of the pivot rows.
    """
    root = list(range(count))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    pivots, queue = [], deque()
    for i, (a, b) in enumerate(zip(plus, minus)):
        if len(pivots) == count - 1:
            queue.extend(range(i, len(plus)))
            break
        a, b = find(a), find(b)
        if a == b:
            queue.append(i)
        else:
            root[a] = b
            pivots.append(i)
            queue.rotate(-1)
    return np.array(pivots + list(queue), dtype=np.intp), len(pivots)


def _sparse(shape, rows, cols, vals) -> lattice.SparseMatrix:
    """The ``lattice.SparseMatrix`` of the entries ``vals`` at distinct
    positions ``(rows, cols)``, sorted row by row."""
    order = np.lexsort((cols, rows))
    return lattice.SparseMatrix(shape, rows[order], cols[order], vals[order])


def check_equivariance(fiber, src_perms, dst_perms) -> None:
    """Raise ``EquivarianceError`` unless ``fiber[p[i], q[j]] == fiber[i, j]``
    for each pair ``(p, q)`` of source and destination permutations given
    side by side: the fiber matrix commutes with the group they generate."""
    degrees = (len(src_perms[0]), len(dst_perms[0]))
    if fiber.shape != degrees:
        raise EquivarianceError(
            f"fiber matrix shape {fiber.shape} does not match degrees {degrees}"
        )
    f64, _ = lattice._int64(fiber)
    f = fiber if f64 is None else f64
    # every pair at once: moved[k, i, j] = fiber[p_k[i], q_k[j]]
    ps, pd = np.asarray(src_perms), np.asarray(dst_perms)
    if not (f[ps[:, :, None], pd[:, None, :]] == f).all():
        raise EquivarianceError(
            "fiber matrix does not commute with the monodromy action"
        )


# ---------------------------------------------------------------------------
# disjoint unions


@dataclass(frozen=True)
class CoverHomology:
    """Homology of a possibly disconnected cover: the direct sum of the
    component models, with block-diagonal Gram, held once in int64
    (``_gram64``) and assembled from the components' checked ones. Its
    sublattices read that array; ``gram`` reads it out as Python ints."""

    cover: CoverModel
    parts: tuple
    part_labels: tuple
    offsets: tuple
    _gram64: np.ndarray = field(repr=False, compare=False)

    @property
    def gram(self) -> np.ndarray:
        """The block-diagonal Gram as an object array of Python ints."""
        return lattice._objects(self._gram64)

    @property
    def rank(self) -> int:
        return self._gram64.shape[0]

    @property
    def genus_total(self) -> int:
        return self.rank // 2

    def sublattice(self, basis, exponent=None) -> lattice.PolarizedLattice:
        """The sublattice spanned by the columns of ``basis``, with the
        intersection form, tagged with its ``exponent`` when known. The
        lattice keeps the int64 Gram as its ``gram``; only ``lattice``
        computes with it."""
        return lattice.PolarizedLattice(self._gram64, basis, exponent)


def build_all(cover_model: CoverModel) -> CoverHomology:
    comps = components(cover_model)
    if len(comps) == 1:
        parts = [HomologyModel(cover_model, comps)]
    else:
        parts = [
            HomologyModel(sub, [tuple(range(sub.degree))])
            for sub in (_cover.component_cover(cover_model, comp) for comp in comps)
        ]
    offsets = np.cumsum([0] + [p.genus2 for p in parts]).tolist()
    if len(parts) == 1:
        gram64 = parts[0]._gram64
    else:
        total = offsets[-1]
        gram64 = np.zeros((total, total), dtype=np.int64)
        for p, at in zip(parts, offsets):
            gram64[at:at + p.genus2, at:at + p.genus2] = p._gram64
    return CoverHomology(
        cover=cover_model,
        parts=tuple(parts),
        part_labels=tuple(tuple(c) for c in comps),
        offsets=tuple(offsets[:-1]),
        _gram64=gram64,
    )


def induced_map_all(src: CoverHomology, dst: CoverHomology, fiber) -> np.ndarray:
    """Action of a fiber correspondence on homology.

    ``fiber[i][j]`` is the multiplicity with which a path on source sheet i
    maps to the corresponding path on destination sheet j, indexed by the
    full canonical label sets of both covers; both must come from the same
    datum. Each block of the fiber matrix maps one source component into one
    destination component: the image chains of the source basis are the
    block's transpose times B with its rows grouped by sheet, formed as the
    sparse sheet chains times the block, and their classes are C times the
    chains, in int64 while ``lattice``'s product bound holds. Returns the
    (rank_dst x rank_src) integer matrix on column cycle classes, an object
    array of Python ints (``_induced`` is the same matrix at fixed width).
    """
    return lattice._objects(_induced(src, dst, fiber))


def _induced(src: CoverHomology, dst: CoverHomology, fiber) -> np.ndarray:
    """``induced_map_all``'s matrix as its blocks come: int64 when every
    block fits in it, an object array of Python ints otherwise. For the
    package's own endomorphisms, which go to ``lattice.eye_minus`` as they
    are and are computed on nowhere else. The fiber matrix is converted
    once, to int64 where its entries fit, for the equivariance check and
    every block."""
    if src.cover.datum != dst.cover.datum:
        raise ValueError("source and destination covers come from different data")
    fiber = lattice._fixed_width(np.asarray(fiber, dtype=object))
    check_equivariance(fiber, src.cover.all_perms(), dst.cover.all_perms())
    blocks = []
    for pa, la, oa in zip(src.parts, src.part_labels, src.offsets):
        for pb, lb, ob in zip(dst.parts, dst.part_labels, dst.offsets):
            block = fiber[np.ix_(la, lb)]
            if not block.any():
                continue
            img = lattice._sparse_product(pa.sheet_chains, block).T.reshape(
                pb.edge_count, pa.genus2
            )
            if pb._boundary(img).any():
                raise AssertionError("image chain failed to close per component")
            at = np.s_[ob:ob + pb.genus2, oa:oa + pa.genus2]
            blocks.append((at, lattice._sparse_product(pb.class_map, img)))
    fixed = all(m.dtype != object for _, m in blocks)
    out = np.zeros((dst.rank, src.rank), dtype=np.int64) if fixed else zeros(dst.rank, src.rank)
    for at, m in blocks:
        out[at] = m
    return out
