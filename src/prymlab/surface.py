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
        self.perms = [list(p) for p in cov.perms]
        self.inv_perms = []
        for p in self.perms:
            inv = [0] * d
            for i, v in enumerate(p):
                inv[v] = i
            self.inv_perms.append(inv)

        # vertices: sheets first, then one per monodromy cycle of each arc
        self.vertex_count = d
        self.branch_vertex = {}       # (arc, sheet) -> vertex id
        self.vertex_ends = [None] * d  # vertex id -> ("sheet"/"branch", ends)
        cycle_members = {}
        for i in range(k):
            seen = [False] * d
            for s in range(d):
                if seen[s]:
                    continue
                vid = self.vertex_count
                self.vertex_count += 1
                cyc = []
                t = s
                while not seen[t]:
                    seen[t] = True
                    cyc.append(t)
                    t = self.inv_perms[i][t]
                for t in cyc:
                    self.branch_vertex[(i, t)] = vid
                cycle_members[vid] = (i, cyc)
        # edge id: sheet * k + arc, oriented sheet vertex -> branch vertex
        self.edge_count = d * k
        self.edge_tail = [0] * self.edge_count
        self.edge_head = [0] * self.edge_count
        for s in range(d):
            for i in range(k):
                e = s * k + i
                self.edge_tail[e] = s
                self.edge_head[e] = self.branch_vertex[(i, s)]
        # cyclic end order per vertex; ccw is ascending arcs at a sheet
        # vertex and the inverse-monodromy cycle at a ramification vertex
        for s in range(d):
            self.vertex_ends[s] = ("sheet", [s * k + i for i in range(k)])
        self.vertex_ends.extend([None] * (self.vertex_count - d))
        for vid, (i, cyc) in cycle_members.items():
            self.vertex_ends[vid] = ("branch", [t * k + i for t in cyc])
        # boundary: row v holds the ends at vertex v, -1 at a sheet vertex
        # (the tail of each edge) and +1 at a ramification vertex (its head)
        ends = [(v, e, 1 if kind == "branch" else -1)
                for v, (kind, es) in enumerate(self.vertex_ends) for e in es]
        rows, cols, vals = (np.array(col, dtype=np.int64) for col in zip(*ends))
        self.boundary_map = lattice.SparseMatrix(
            (self.vertex_count, self.edge_count), rows, cols, vals
        )

        # face boundaries: one per sheet, arcs in ascending order
        self.faces = []
        for t in range(d):
            chain = {}
            s = t
            for i in range(k):
                chain[s * k + i] = chain.get(s * k + i, 0) + 1
                s2 = self.inv_perms[i][s]
                chain[s2 * k + i] = chain.get(s2 * k + i, 0) - 1
                s = s2
            if s != t:
                raise AssertionError("face walk failed to close")
            self.faces.append(chain)

    # -- cycles and relations ----------------------------------------------

    def _build_cycles(self):
        # spanning tree by breadth-first search from sheet vertex 0
        V, E = self.vertex_count, self.edge_count
        adj = [[] for _ in range(V)]
        for e in range(E):
            adj[self.edge_tail[e]].append((e, self.edge_head[e]))
            adj[self.edge_head[e]].append((e, self.edge_tail[e]))
        for lst in adj:
            lst.sort()
        parent = [None] * V   # (edge to the parent, parent vertex)
        order = [0]
        seen = [False] * V
        seen[0] = True
        in_tree = [False] * E
        for v in order:
            for e, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    in_tree[e] = True
                    parent[w] = (e, v)
                    order.append(w)
        if not all(seen):
            raise AssertionError("1-skeleton disconnected despite transitivity")
        self.nontree = [e for e in range(E) if not in_tree[e]]

        # relations: face boundaries in non-tree coordinates
        m = len(self.nontree)
        pos = {e: i for i, e in enumerate(self.nontree)}
        rel = np.zeros((m, len(self.faces)), dtype=np.int64)
        for t, chain in enumerate(self.faces):
            for e, c in chain.items():
                if not in_tree[e]:
                    rel[pos[e], t] = c
        d, r, U, Uinv = lattice._eliminate(rel, ("u", "uinv"))
        if (np.diagonal(d)[:r] != 1).any():
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
        most_ends = max(len(ends) for _kind, ends in self.vertex_ends)
        if C is None or cycles is None or (
            2 * E * most_ends * (2 * m * beta) ** 2 >= lattice._INT64_BOUND
        ):
            raise AssertionError("relation transforms too large for int64 homology")
        # the class of a cycle is C times its edge chain: the rows of U past
        # the relations, at the non-tree edges
        nonzero = lattice.sparse(C)
        self.class_map = replace(
            nonzero, shape=(self.genus2, E), cols=np.array(self.nontree)[nonzero.cols]
        )

        # B: basis cycle j has the non-tree coefficients of column r + j of
        # U^-1; its tree coefficients close every vertex. Leaves first, the
        # edge to the parent carries off the net inflow of the vertex.
        B = np.zeros((E, self.genus2), dtype=np.int64)
        B[self.nontree] = cycles
        inflow = np.zeros((V, self.genus2), dtype=np.int64)
        for e in self.nontree:
            inflow[self.edge_head[e]] += B[e]
            inflow[self.edge_tail[e]] -= B[e]
        for v in reversed(order[1:]):
            e, w = parent[v]
            B[e] = inflow[v] if self.edge_tail[e] == v else -inflow[v]
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
        pairs = [ends for kind, ends in self.vertex_ends
                 if kind == "branch" and len(ends) == 2]
        if pairs:
            first, second = (list(e) for e in zip(*pairs))
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

    def sublattice(self, basis) -> lattice.PolarizedLattice:
        """The sublattice spanned by the columns of ``basis``, with the
        intersection form. The lattice keeps the int64 Gram as its ``gram``;
        only ``lattice`` computes with it."""
        return lattice.PolarizedLattice(self._gram64, basis)


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
            if lattice._sparse_product(pb.boundary_map, img).any():
                raise AssertionError("image chain failed to close per component")
            out[ob:ob + pb.genus2, oa:oa + pa.genus2] = lattice._sparse_product(
                pb.class_map, img
            )
    return out
