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
its ends in cyclic order; edge heads and the boundary map follow by
scatters. The faces are one k x d walk (``face_walk``: row i holds the sheet
each face is on before arc i), and the relation matrix is read off it by
``np.add.at``. The boundary of a block of edge chains (``_boundary``) is a
segment sum, not a product with the boundary map: the sheet vertices are
the chains reshaped sheet by arc and summed over the arcs, and the
ramification vertices, grouped by their number of ends L (``branch_groups``),
are one gather and one sum over L per group. It runs under ``matmul``'s
rule with the most ends at a vertex for the inner dimension: int64 while
that times the largest entry is below 2^63, Python ints otherwise.
``induced_map_all`` checks with it that every image chain closes.

First homology comes from a spanning tree: non-tree edges give fundamental
cycles, face boundaries give the relations, and the quotient is free of rank
2g (asserted). The basis is held as one E x 2g integer matrix ``B`` (E the
number of edges, edge ``sheet * arcs + arc``); column j is basis cycle j as
an edge chain. The class of any cycle is ``C`` times its edge chain, ``C``
the rows of the relation transform past the relations placed at the
non-tree edges (zero at tree edges). A fiber correspondence therefore acts
on homology as one product: image chains ``(F^T (x) I) B``, then ``C``.
``B`` is under 1% nonzero at rank 5, so the image chains are formed from
its nonzero entries: the model also holds ``B`` with its rows grouped by
sheet, transposed, as a ``lattice.SparseMatrix`` (``sheet_chains``), and
the chains are that times the fiber block, transposed back.

The intersection form is ``B^T Q B`` for a local crossing form Q: push the
second chain off to the right of every edge; crossings then happen only
inside the disk around each vertex, where they are counted from the cyclic
order of edge ends (ascending arcs at a sheet vertex, inverse-monodromy
order at a ramification vertex). Q is block diagonal over the vertices, so
the Gram is summed one vertex at a time over the basis columns that pass
through it. A ramification vertex with two ends (e1, e2), as every
reflection makes, adds ``-outer(B[e2], B[e1])``; these, over half the
vertices of a spinor cover at rank 5, are summed by one sparse product
``B[second ends]^T B[first ends]``, and only sheet vertices and
ramification vertices with three or more ends (non-simple data) are summed
one at a time. The Gram is checked to have zero diagonal and to be alternating and
unimodular on every build.

The cover's matrices are held in int64, converted once when the model is
built: ``B``, and ``C``, the boundary map and the sheet chains of ``B``
as ``lattice.SparseMatrix`` (``C`` is about 2% nonzero at rank 5). With
beta the largest entry of the relation transforms they are read from, m
the number of non-tree edges and Delta the most edge ends at one vertex,
every entry of ``B`` is at most 2 m beta (a tree entry is a sum of
non-tree entries, each counted at most twice), and the build asserts
``2 E Delta (2 m beta)^2 < 2^63``. That bounds every partial sum the
build forms in int64: the tree entries, the prefix sums at a vertex and
the Gram. Each Gram entry is a sum of products of two entries of ``B``,
at most ``Delta_v^2`` of them from a vertex with Delta_v ends and so at
most ``2 E Delta`` in all over the vertices' 2E ends, so that every partial
sum, whatever the order and grouping of its terms, is at most
``2 E Delta max|B|^2``. That covers the batched product of the two-end
vertices, whose partial sums group the same terms by basis column, and
its own bound check (``max|B|^2`` times at most E terms) then holds too.
Products with a fiber matrix, whose entries are the caller's, go through
``lattice._product`` and ``lattice._sparse_product``, which check
``matmul``'s bound on each call and run on Python ints where it fails.
Every matrix that leaves this module is an object array of Python ints,
but the checked int64 Gram, which a homology hands only to
``lattice.PolarizedLattice``, for its sublattices (``sublattice``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import cover as _cover
from . import lattice
from .cover import CoverModel, components
from .errors import DisconnectedError, EquivarianceError, UnsupportedError
from .lattice import zeros


class HomologyModel:
    """Homology basis, intersection Gram and chain machinery for one
    connected cover of the rational base. Treat instances as immutable."""

    def __init__(self, cover_model: CoverModel):
        if cover_model.datum.base_genus != 0:
            raise UnsupportedError("homology model supports genus-0 bases only")
        comps = components(cover_model)
        if len(comps) != 1:
            raise DisconnectedError(
                "cover is disconnected; build per component",
                components=comps,
            )
        self.cover = cover_model
        self._build_complex()
        self._build_cycles()
        self._build_gram()

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
        # every branch end, vertex after vertex, and its vertex
        end_edge, end_vertex = ends[on_cycle], np.repeat(d + np.arange(branches), sizes)
        self.edge_count = E = d * k
        self.edge_tail = np.arange(E) // k
        self.edge_head = np.empty(E, dtype=np.intp)
        self.edge_head[end_edge] = end_vertex
        self.most_ends = max(k, len(walks))
        # the ramification vertices grouped by their number of ends L, each
        # group as (vertex ids, their ends in an array of L columns)
        self.branch_groups = []
        for size in sorted(set(sizes.tolist())):
            rows = np.flatnonzero(sizes == size)
            self.branch_groups.append((d + rows, ends[rows, :size]))
        # cyclic end order per vertex; ccw is ascending arcs at a sheet
        # vertex and the inverse-monodromy cycle at a ramification vertex
        self.vertex_ends = [("sheet", list(range(s * k, s * k + k))) for s in range(d)] + [
            ("branch", row[:size]) for row, size in zip(ends.tolist(), sizes.tolist())
        ]
        # boundary: row v holds the ends at vertex v, -1 at a sheet vertex
        # (the tail of each edge) and +1 at a ramification vertex (its head)
        self.boundary_map = lattice.SparseMatrix(
            (self.vertex_count, E),
            np.concatenate([self.edge_tail, end_vertex]).astype(np.int64),
            np.concatenate([np.arange(E), end_edge]).astype(np.int64),
            np.repeat(np.array([-1, 1], dtype=np.int64), E),
        )

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
        """``boundary_map @ chains`` for edge chains (the columns of
        ``chains``) by segment sums: the sheet vertices are one sum over
        the arcs of ``chains`` reshaped sheet by arc, and the ramification
        vertices one such sum per group of equal size, over their ends
        gathered a chunk of at most ``lattice._GATHER`` entries at a time
        (one vertex at the least), so the temporary stays small. Under
        ``lattice``'s product rule, with the most ends at a vertex for the
        inner dimension: int64 while that times the largest entry is below
        2^63, Python ints otherwise."""
        c64, top = lattice._int64(chains)
        if c64 is None or top * self.most_ends >= lattice._INT64_BOUND:
            chains = lattice._pyints(chains)
        else:
            chains = c64
        g = chains.shape[1]
        out = np.empty((self.vertex_count, g), dtype=chains.dtype)
        out[:self.degree] = -chains.reshape(self.degree, self.arc_count, g).sum(axis=1)
        for vertices, ends in self.branch_groups:
            step = max(1, lattice._GATHER // max(ends.shape[1] * g, 1))
            for lo in range(0, len(ends), step):
                out[vertices[lo:lo + step]] = chains[ends[lo:lo + step]].sum(axis=1)
        return out

    # -- cycles and relations ----------------------------------------------

    def _build_cycles(self):
        # spanning tree by breadth-first search from sheet vertex 0, each
        # vertex's edges taken in ascending order
        V, E, d, k = self.vertex_count, self.edge_count, self.degree, self.arc_count
        adj = [[] for _ in range(V)]
        for e, (t, h) in enumerate(zip(self.edge_tail.tolist(), self.edge_head.tolist())):
            adj[t].append((e, h))
            adj[h].append((e, t))
        parent = [None] * V  # (edge to the parent, parent vertex)
        order = [0]
        seen = [False] * V
        seen[0] = True
        for v in order:
            for e, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = (e, v)
                    order.append(w)
        if len(order) != V:
            raise AssertionError("1-skeleton disconnected despite transitivity")
        in_tree = np.zeros(E, dtype=bool)
        in_tree[[parent[w][0] for w in order[1:]]] = True
        self.nontree = np.flatnonzero(~in_tree)

        # relations: face boundaries in non-tree coordinates, face t being
        # +1 on each edge it walks down and -1 on each it walks back up
        m = len(self.nontree)
        walk, arc, face = self.face_walk, np.arange(k)[:, None], np.arange(d)
        rel = np.zeros((E, d), dtype=np.int64)
        np.add.at(rel, (walk[:-1] * k + arc, face), 1)
        np.add.at(rel, (walk[1:] * k + arc, face), -1)
        dd, r, U, Uinv = lattice._eliminate(rel[self.nontree], ("u", "uinv"))
        if (np.diagonal(dd)[:r] != 1).any():
            raise AssertionError("homology acquired torsion; construction broken")
        self.genus2 = m - r
        if self.genus2 % 2:
            raise AssertionError("odd first Betti number on a closed surface")
        self.genus = self.genus2 // 2
        if self.genus != _cover.genus(self.cover):
            raise AssertionError("homology rank disagrees with the genus count")
        # the transforms as the elimination left them, int64 unless they
        # outgrew it, under the bound of the module docstring
        C, c_max = lattice._int64(U[r:])
        cycles, b_max = lattice._int64(Uinv[:, r:])
        beta = max(c_max or 0, b_max or 0)
        if C is None or cycles is None or (
            2 * E * self.most_ends * (2 * m * beta) ** 2 >= lattice._INT64_BOUND
        ):
            raise AssertionError("relation transforms too large for int64 homology")
        # the class of a cycle is C times its edge chain: the rows of U past
        # the relations, at the non-tree edges
        nonzero = lattice.sparse(C)
        self.class_map = replace(nonzero, shape=(self.genus2, E), cols=self.nontree[nonzero.cols])

        # B: basis cycle j has the non-tree coefficients of column r + j of
        # U^-1; its tree coefficients close every vertex. Leaves first, the
        # edge to the parent carries off the net inflow of the vertex. Row
        # by row, as whole-array passes over B, which is mostly zero here,
        # measured slower (3x at rank 1026).
        B = np.zeros((E, self.genus2), dtype=np.int64)
        B[self.nontree] = cycles
        inflow = np.zeros((V, self.genus2), dtype=np.int64)
        for e, t, h in zip(self.nontree.tolist(), self.edge_tail[self.nontree].tolist(),
                           self.edge_head[self.nontree].tolist()):
            inflow[h] += B[e]
            inflow[t] -= B[e]
        for v in reversed(order[1:]):
            e, w = parent[v]
            B[e] = inflow[v] if v < d else -inflow[v]
            inflow[w] += inflow[v]
        self.B = B
        # the same cycles by their nonzero entries, one row per (arc, basis
        # cycle) and one column per sheet: the image chains of a fiber
        # correspondence are this times the fiber block, transposed
        self.sheet_chains = lattice.sparse(B.reshape(self.degree, -1).T)

    # -- intersection numbers ----------------------------------------------

    def _build_gram(self):
        """Gram = B^T Q B for the local crossing form Q, summed vertex by
        vertex over the basis columns that touch the vertex, but for the
        two-end ramification vertices, summed by one product.

        The second cycle is displaced to the right of every oriented edge,
        so its strand arrives just clockwise of a tail end and just counter-
        clockwise of a head end; the crossings at a vertex pair each end's
        flow with the prefix sum of the other cycle's flows in cyclic end
        order, inclusive at a sheet vertex and exclusive at a ramification
        vertex. The flow is minus the coefficient at a tail end, and the two
        signs cancel in the product.
        """
        B = self.B
        touched = B != 0
        gram = np.zeros((self.genus2, self.genus2), dtype=np.int64)
        # a ramification vertex with ends (e1, e2) pairs e2 with e1 alone:
        # its block is -outer(B[e2], B[e1]), and one product sums them all
        for _vertices, ends in self.branch_groups:
            if ends.shape[1] == 2:
                first, second = ends.T
                gram -= lattice._sparse_product(lattice.sparse(B[second].T), B[first])
        for kind, ends in self.vertex_ends:
            if kind == "branch" and len(ends) <= 2:
                continue  # one end pairs with nothing; two were summed above
            cols = np.flatnonzero(touched[ends].any(axis=0))
            x = B[np.ix_(ends, cols)]
            run = np.cumsum(x, axis=0)
            if kind == "branch":
                run -= x
            gram[np.ix_(cols, cols)] -= lattice._product(x.T, run)
        if np.diagonal(gram).any():
            raise AssertionError("nonzero self-intersection")
        if not (gram.T == -gram).all():
            raise AssertionError("intersection form is not alternating")
        if self.genus2 and abs(lattice.det(gram)) != 1:
            raise AssertionError("intersection form is not unimodular")
        self._gram64 = gram
        self.gram = gram.astype(object)


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
    component models, with block-diagonal Gram. ``_gram64`` is the same
    Gram in int64, assembled from the components' checked ones; its
    sublattices read it."""

    cover: CoverModel
    parts: tuple
    part_labels: tuple
    gram: np.ndarray
    offsets: tuple
    _gram64: np.ndarray = field(repr=False, compare=False)

    @property
    def rank(self) -> int:
        return self.gram.shape[0]

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
    parts = []
    for comp in comps:
        sub = cover_model if len(comps) == 1 else _cover.component_cover(cover_model, comp)
        parts.append(HomologyModel(sub))
    offsets = np.cumsum([0] + [p.genus2 for p in parts]).tolist()
    if len(parts) == 1:
        gram64, gram = parts[0]._gram64, parts[0].gram
    else:
        total = offsets[-1]
        gram64 = np.zeros((total, total), dtype=np.int64)
        for p, at in zip(parts, offsets):
            gram64[at:at + p.genus2, at:at + p.genus2] = p._gram64
        gram = gram64.astype(object)
    return CoverHomology(
        cover=cover_model,
        parts=tuple(parts),
        part_labels=tuple(tuple(c) for c in comps),
        gram=gram,
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
    array.
    """
    if src.cover.datum != dst.cover.datum:
        raise ValueError("source and destination covers come from different data")
    fiber = np.asarray(fiber, dtype=object)
    check_equivariance(fiber, src.cover.all_perms(), dst.cover.all_perms())
    out = zeros(dst.rank, src.rank)
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
            out[ob:ob + pb.genus2, oa:oa + pa.genus2] = lattice._sparse_product(
                pb.class_map, img
            )
    return out
