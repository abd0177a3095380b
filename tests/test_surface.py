import dataclasses
import gc
import random
import tracemalloc
import weakref

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from prymlab import corr, cover, lattice, surface, weyl
from prymlab.cover import MonodromyDatum, induce, random_simple
from prymlab.errors import (
    DisconnectedError,
    EquivarianceError,
    GenerationError,
    UnsupportedError,
)
from prymlab.lattice import det, eye, is_alternating, mat_equal, to_lists, zeros
from prymlab.weyl import OrbitKind, reflection, short_root


def _ones(rows, cols):
    return zeros(rows, cols) + 1


def _double_cover(points):
    s = reflection(short_root(1), 1)
    return induce(MonodromyDatum(1, 0, tuple([s] * points)), OrbitKind.VECTOR)


def test_torus_gram_is_the_standard_symplectic_form():
    H = _oracles.build(_double_cover(4))
    assert H.genus == 1
    assert to_lists(H.gram) in ([[0, 1], [-1, 0]], [[0, -1], [1, 0]])


def test_six_point_double_cover_is_genus_two_unimodular():
    H = _oracles.build(_double_cover(6))
    assert H.genus == 2
    assert is_alternating(H.gram)
    assert abs(det(H.gram)) == 1


def test_b3_spinor_rank_fourteen():
    d = random_simple(3, 4, 6, seed=1)
    H = _oracles.build(induce(d, OrbitKind.SPINOR))
    assert H.genus2 == 14
    assert abs(det(H.gram)) == 1


def test_build_is_deterministic():
    d = random_simple(2, 4, 4, seed=5)
    H1 = _oracles.build(induce(d, OrbitKind.SPINOR))
    H2 = _oracles.build(induce(d, OrbitKind.SPINOR))
    assert to_lists(H1.gram) == to_lists(H2.gram)
    assert _same_sparse(H1.sheet_chains, H2.sheet_chains)


def test_build_rejects_positive_base_genus():
    s = reflection(short_root(1), 1)
    d = MonodromyDatum(1, 1, (s, s), ((s, s),))
    with pytest.raises(UnsupportedError):
        _oracles.build(induce(d, OrbitKind.VECTOR))


def test_build_rejects_disconnected_cover():
    d = random_simple(3, 0, 10, seed=2)
    with pytest.raises(DisconnectedError):
        _oracles.build(induce(d, OrbitKind.SPINOR))


def test_gram_unimodular_alternating_on_random_data():
    rng = random.Random(31)
    cases = []
    for _ in range(6):
        cases.append((2, 2 * rng.randint(1, 3), 2 * rng.randint(1, 3)))
    for _ in range(4):
        cases.append((3, 2 * rng.randint(1, 2), 2 * rng.randint(2, 3)))
    cases.append((4, 2, 8))
    for n, ds, dl in cases:
        datum = random_simple(n, ds, dl, seed=rng.randint(0, 10**6))
        cm = induce(datum, OrbitKind.VECTOR)
        H = _oracles.build(cm)
        assert is_alternating(H.gram)
        if H.genus2:
            assert abs(det(H.gram)) == 1
        assert H.genus == cover.genus(cm)


def test_basis_cycles_are_cycles():
    d = random_simple(3, 4, 6, seed=4)
    H = surface.build_all(induce(d, OrbitKind.SPINOR))
    for p in H.parts:
        boundary = zeros(p.vertex_count, p.edge_count)
        for e in range(p.edge_count):
            boundary[p.edge_head[e], e] += 1
            boundary[p.edge_tail[e], e] -= 1
        assert mat_equal(boundary @ _cycles(p), zeros(p.vertex_count, p.genus2))
        # the segment sums induced_map_all checks image chains with, and the
        # loop build's sparse boundary map
        assert mat_equal(p._boundary(eye(p.edge_count)), boundary)
        loop = _oracles.LoopHomologyModel(p.cover)
        assert mat_equal(lattice._sparse_product(loop.boundary_map, eye(p.edge_count)), boundary)
        assert not np.diagonal(p.gram).any()


def test_induced_identity_map():
    d = random_simple(2, 4, 4, seed=6)
    H = surface.build_all(induce(d, OrbitKind.SPINOR))
    N = surface.induced_map_all(H, H, eye(4))
    assert mat_equal(N, eye(H.rank))


def test_induced_involution_squares_to_identity():
    d = random_simple(3, 4, 6, seed=7)
    HC = surface.build_all(induce(d, OrbitKind.VECTOR))
    iota = surface.induced_map_all(HC, HC, corr.negation_matrix(3))
    assert mat_equal(iota @ iota, eye(HC.rank))


def test_induced_rejects_non_equivariant_matrix():
    d = random_simple(2, 4, 4, seed=8)
    H = surface.build_all(induce(d, OrbitKind.SPINOR))
    bad = zeros(4, 4)
    bad[0, 1] = 1
    with pytest.raises(EquivarianceError):
        surface.induced_map_all(H, H, bad)


def test_induced_rejects_mixed_data():
    d1 = random_simple(2, 4, 4, seed=1)
    d2 = random_simple(2, 4, 4, seed=2)
    H1 = surface.build_all(induce(d1, OrbitKind.SPINOR))
    H2 = surface.build_all(induce(d2, OrbitKind.SPINOR))
    with pytest.raises(ValueError):
        surface.induced_map_all(H1, H2, eye(4))


@pytest.mark.parametrize("n,ds,dl,seed", [(2, 4, 4, 3), (3, 4, 6, 3)])
def test_adjointness_of_transposed_correspondence(n, ds, dl, seed):
    datum = random_simple(n, ds, dl, seed=seed)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    s0 = corr.make_S0(n).matrix
    fwd = surface.induced_map_all(HX, HC, s0)
    bwd = surface.induced_map_all(HC, HX, s0.T)
    # pairing the image forward equals pairing against the transposed image
    assert mat_equal(fwd.T @ HC.gram, HX.gram @ bwd)


def test_functoriality_of_composition():
    datum = random_simple(3, 4, 6, seed=9)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    s0 = corr.make_S0(3).matrix
    neg = corr.negation_matrix(3)
    one = surface.induced_map_all(HX, HC, s0 @ neg)
    two = surface.induced_map_all(HC, HC, neg) @ surface.induced_map_all(HX, HC, s0)
    assert mat_equal(one, two)


def test_trace_correspondences_induce_zero():
    datum = random_simple(3, 4, 6, seed=10)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    d, e = 8, 6
    assert mat_equal(
        surface.induced_map_all(HX, HX, _ones(d, d)), zeros(HX.rank, HX.rank)
    )
    assert mat_equal(
        surface.induced_map_all(HX, HC, _ones(d, e)), zeros(HC.rank, HX.rank)
    )
    assert mat_equal(
        surface.induced_map_all(HC, HC, _ones(e, e)), zeros(HC.rank, HC.rank)
    )


def test_all_ones_image_lies_in_invariants():
    # the trace image is invariant under the sheet involution (here: zero)
    datum = random_simple(2, 4, 4, seed=12)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    t = surface.induced_map_all(HX, HC, _ones(4, 4))
    iota = surface.induced_map_all(HC, HC, corr.negation_matrix(2))
    assert mat_equal(iota @ t, t)


def test_build_all_split_cover():
    datum = random_simple(3, 0, 10, seed=2)
    H = surface.build_all(induce(datum, OrbitKind.SPINOR))
    assert len(H.parts) == 2
    assert H.rank == sum(p.genus2 for p in H.parts)
    # block diagonal gram
    g0, gram = H.parts[0].genus2, H.gram
    for i in range(g0):
        for j in range(g0, H.rank):
            assert gram[i, j] == 0


def test_induced_map_all_sheet_involution_swaps_parts():
    datum = random_simple(3, 0, 10, seed=2)
    H = surface.build_all(induce(datum, OrbitKind.SPINOR))
    sig = surface.induced_map_all(H, H, corr.sigma_matrix(3))
    g0 = H.parts[0].genus2
    assert mat_equal(sig @ sig, eye(H.rank))
    for i in range(g0):
        for j in range(g0):
            assert sig[i, j] == 0  # odd-size subsets land in the other half


def test_model_is_freed_without_the_cycle_collector():
    cm = induce(random_simple(2, 4, 4, seed=5), OrbitKind.SPINOR)
    gc.disable()
    try:
        H = _oracles.build(cm)
        ref = weakref.ref(H)
        del H
        assert ref() is None
    finally:
        gc.enable()


def _arrays(value):
    """Every array in an attribute value, through lists, tuples and the
    fields of a ``lattice.SparseMatrix``."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _arrays(item)
    elif isinstance(value, lattice.SparseMatrix):
        yield from (value.rows, value.cols, value.vals)


def test_models_keep_one_form_of_each_structure():
    # after a build a model holds its cycles only as sheet chains, its vertex
    # ends only as branch groups and its Gram only in int64: no dense
    # edge-by-cycle basis, no object array, no boundary map, no per-vertex
    # end list; and a homology has one Gram field
    H = surface.build_all(induce(random_simple(3, 0, 10, seed=2), OrbitKind.SPINOR))
    assert len(H.parts) == 2
    for p in H.parts:
        for name, value in vars(p).items():
            if isinstance(value, lattice.SparseMatrix):
                assert value.shape != (p.vertex_count, p.edge_count), name
            if isinstance(value, (list, tuple)):
                assert len(value) != p.vertex_count, name
            for a in _arrays(value):
                assert a.shape != (p.edge_count, p.genus2), name
                assert a.dtype != object, name
    grams = [f.name for f in dataclasses.fields(H) if "gram" in f.name]
    assert grams == ["_gram64"]
    assert H._gram64.dtype == np.int64


# -- the pairwise local-flow and dict-substitution oracles ----------------------

# vector and spinor covers at ranks 2-5, rank 5 being where the int64
# homology is timed; (3, 0, 10, 2) and (5, 0, 12, 1) split the spinor cover
ORACLE_DATA = [
    (2, 4, 4, 3), (3, 4, 6, 3), (3, 0, 10, 2), (4, 2, 8, 5), (5, 2, 10, 1), (5, 0, 12, 1),
]
# more seeded data for the loop-built reference, (4, 0, 12, 7) split again
BUILD_DATA = [(2, 2, 6, 11), (3, 6, 4, 12), (4, 0, 12, 7), (4, 4, 6, 13)]


def _columns(B):
    return [
        {e: int(B[e, j]) for e in range(B.shape[0]) if B[e, j]} for j in range(B.shape[1])
    ]


def _dense(s):
    """A ``lattice.SparseMatrix`` as a dense array."""
    out = zeros(*s.shape)
    out[s.rows, s.cols] = s.vals
    return out


def _cycles(p):
    """The basis cycles of model ``p`` as an edge-by-cycle matrix, read off
    its sheet chains (one row per (arc, cycle), one column per sheet)."""
    return _dense(p.sheet_chains).T.reshape(p.edge_count, p.genus2)


@pytest.mark.parametrize("orbit", [OrbitKind.VECTOR, OrbitKind.SPINOR])
@pytest.mark.parametrize("n,ds,dl,seed", ORACLE_DATA)
def test_gram_matches_pairwise_flow_oracle(n, ds, dl, seed, orbit):
    H = surface.build_all(induce(random_simple(n, ds, dl, seed=seed), orbit))
    if (ds, orbit) == (0, OrbitKind.SPINOR):
        assert len(H.parts) == 2
    for p in H.parts:
        loop = _oracles.LoopHomologyModel(p.cover)
        cycles = _columns(loop.B)
        assert to_lists(p.gram) == [
            [_oracles.intersection(loop, a, b) for b in cycles] for a in cycles
        ]


# a datum that is not simple: its 3-cycles give ramification vertices with
# three ends
NON_SIMPLE = MonodromyDatum(3, 0, tuple(
    weyl.SignedPerm(3, g) for g in ((2, 3, 1), (3, 1, 2), (-2, -3, 1), (3, -1, -2))
))


def _product_one(n, factors, seed):
    """A datum of ``factors`` arbitrary signed permutations of rank ``n``
    with product one, seeded, one factor at least of order 3 or more; its
    vector and spinor covers, on which W(B_n) acts faithfully, then have
    ramification vertices with three or more ends."""
    rng = random.Random(seed)
    while True:
        gens, prod = [], weyl.SignedPerm.identity(n)
        for _ in range(factors - 1):
            image = rng.sample(range(1, n + 1), n)
            gens.append(weyl.SignedPerm(n, [v * rng.choice((1, -1)) for v in image]))
            prod = prod * gens[-1]
        gens.append(prod.inverse())
        if any(not (g * g).is_identity() for g in gens):
            return MonodromyDatum(n, 0, tuple(gens))


# seeded non-simple data at ranks 2-5 with 3-7 factors
PRODUCT_ONE = [(2 + i % 4, 3 + i % 5, 200 + i) for i in range(12)]
NON_SIMPLE_DATA = [NON_SIMPLE] + [_product_one(*case) for case in PRODUCT_ONE]
NON_SIMPLE_IDS = ["non-simple"] + [f"product-one{case}" for case in PRODUCT_ONE]


@pytest.mark.parametrize("orbit", [OrbitKind.VECTOR, OrbitKind.SPINOR, OrbitKind.PARITY])
@pytest.mark.parametrize(
    "datum",
    [random_simple(*case[:3], seed=case[3]) for case in ORACLE_DATA] + NON_SIMPLE_DATA,
    ids=[str(case) for case in ORACLE_DATA] + NON_SIMPLE_IDS,
)
def test_gram_matches_the_vertex_by_vertex_sum(datum, orbit):
    H = surface.build_all(induce(datum, orbit))
    sizes = {ends.shape[1] for p in H.parts for _vertices, ends in p.branch_groups}
    if orbit is not OrbitKind.PARITY:
        assert max(sizes) >= 3 if datum in NON_SIMPLE_DATA else 2 in sizes
    for p in H.parts:
        loop = _oracles.LoopHomologyModel(p.cover)
        assert to_lists(p.gram) == to_lists(_oracles.gram_by_vertices(loop))


@pytest.mark.parametrize("n,ds,dl,seed", ORACLE_DATA)
def test_induced_maps_match_substitution_oracle(n, ds, dl, seed):
    datum = random_simple(n, ds, dl, seed=seed)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    loops = {id(p): _oracles.LoopHomologyModel(p.cover) for p in HX.parts + HC.parts}
    for src, dst, fiber in [
        (HX, HX, corr.make_D(n).matrix),
        (HX, HX, corr.sigma_matrix(n)),
        (HX, HC, corr.make_S0(n).matrix),
    ]:
        got = surface.induced_map_all(src, dst, fiber)
        want = []
        for pa, la in zip(src.parts, src.part_labels):
            for z in _columns(loops[id(pa)].B):
                col = []
                for pb, lb in zip(dst.parts, dst.part_labels):
                    img = _oracles.substitute(z, fiber, la, lb, pa.arc_count)
                    assert _oracles.boundary(pb, img) == {}
                    cls = _oracles.class_of(pb, img)
                    # the class pairs with every basis cycle as the chain does
                    loop = loops[id(pb)]
                    assert to_lists(pb.gram @ lattice.intmat([cls]).T) == [
                        [_oracles.intersection(loop, b, img)] for b in _columns(loop.B)
                    ]
                    col += cls
                want.append(col)
        assert to_lists(got.T) == want


def _commutes_pair_by_pair(fiber, src_perms, dst_perms) -> bool:
    """fiber[p[i], q[j]] == fiber[i, j] for every pair, one pair at a time."""
    return all(
        fiber[ps[i], pd[j]] == fiber[i, j]
        for ps, pd in zip(src_perms, dst_perms)
        for i in range(len(ps)) for j in range(len(pd))
    )


@pytest.mark.parametrize("big", [1, 2**70])
def test_check_equivariance_gathers_every_pair_at_once(big):
    rng = random.Random(5)
    src = [[1, 0, 2, 3], [0, 1, 3, 2]]
    dst = [[1, 0, 2], [0, 2, 1]]
    # constant on the orbits of the pairs: the rows {0, 1} and {2, 3}
    fiber = lattice.intmat([[big, big, big]] * 2 + [[3, 3, 3]] * 2)
    assert _commutes_pair_by_pair(fiber, src, dst)
    surface.check_equivariance(fiber, src, dst)
    for _ in range(6):
        bad = fiber.copy()
        bad[rng.randrange(4), rng.randrange(3)] += 1
        assert not _commutes_pair_by_pair(bad, src, dst)
        with pytest.raises(EquivarianceError,
                           match="^fiber matrix does not commute with the monodromy action$"):
            surface.check_equivariance(bad, src, dst)
    with pytest.raises(EquivarianceError,
                       match=r"^fiber matrix shape \(4, 2\) does not match degrees \(4, 3\)$"):
        surface.check_equivariance(fiber[:, :2], src, dst)


# -- the array build against the loop-built reference ----------------------------


def _same_sparse(a, b) -> bool:
    return a.shape == b.shape and all(
        np.array_equal(getattr(a, f), getattr(b, f)) for f in ("rows", "cols", "vals")
    )


@pytest.mark.parametrize("orbit", [OrbitKind.VECTOR, OrbitKind.SPINOR, OrbitKind.PARITY])
@pytest.mark.parametrize(
    "datum",
    [random_simple(*case[:3], seed=case[3]) for case in ORACLE_DATA + BUILD_DATA]
    + NON_SIMPLE_DATA,
    ids=[str(case) for case in ORACLE_DATA + BUILD_DATA] + NON_SIMPLE_IDS,
)
def test_array_build_matches_the_loop_build(datum, orbit):
    cm = induce(datum, orbit)
    comps = cover.components(cm)
    for comp in comps:
        sub = cm if len(comps) == 1 else cover.component_cover(cm, comp)
        got, want = surface.HomologyModel(sub), _oracles.LoopHomologyModel(sub)
        # the branch groups and the sheet vertices' ends by construction
        # spell out the loop build's cyclic end order at every vertex
        d, k = got.degree, got.arc_count
        ends = [("sheet", list(range(s * k, s * k + k))) for s in range(d)]
        ends += [None] * (got.vertex_count - d)
        for vertices, group in got.branch_groups:
            for v, row in zip(vertices.tolist(), group.tolist()):
                ends[v] = ("branch", row)
        assert ends == want.vertex_ends
        assert got.edge_head.tolist() == want.edge_head
        assert got.edge_tail.tolist() == want.edge_tail
        assert got.most_ends == want.most_ends
        assert got.nontree.tolist() == want.nontree
        assert _same_sparse(got.class_map, want.class_map)
        assert _same_sparse(got.sheet_chains, want.sheet_chains)
        assert to_lists(got.gram) == to_lists(want.gram)
        # the face walk spells out the loop build's face dicts
        k = got.arc_count
        for t, chain in enumerate(want.faces):
            walked = {}
            for i in range(k):
                down, up = got.face_walk[i, t] * k + i, got.face_walk[i + 1, t] * k + i
                walked[down] = walked.get(down, 0) + 1
                walked[up] = walked.get(up, 0) - 1
            assert walked == chain


# -- the cycle basis and the class map from the two trees ------------------------


@st.composite
def _incidence_rows(draw):
    """A connected multigraph on n nodes as the two ends of each edge: a
    random spanning tree, extra edges with loops among them, parallel
    copies, each edge oriented at random and the edges shuffled."""
    n = draw(st.integers(min_value=1, max_value=8))
    node = st.integers(min_value=0, max_value=n - 1)
    edges = [(i, draw(st.integers(min_value=0, max_value=i - 1))) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(node, node), min_size=int(n == 1), max_size=10))
    edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    edges = [e[::-1] if draw(st.booleans()) else e for e in edges]
    plus, minus = zip(*draw(st.permutations(edges)))
    return n, np.array(plus, dtype=np.intp), np.array(minus, dtype=np.intp)


@settings(max_examples=300, deadline=None)
@given(_incidence_rows())
def test_replay_matches_the_relation_elimination(case):
    # the incidence matrix R, row i +1 at plus[i] and -1 at minus[i] (zero
    # on a loop): U^-1[:, r:] is the unit columns at the generators and
    # U[r:] their fundamental cycles in the tree of the pivot rows
    n, plus, minus = case
    m = len(plus)
    R = zeros(m, n)
    for i, (a, b) in enumerate(zip(plus.tolist(), minus.tolist())):
        R[i, a] += 1
        R[i, b] -= 1
    _, r, U, Uinv = lattice._eliminate(R, ("u", "uinv"))
    order, got = surface._replay(plus.tolist(), minus.tolist(), n)
    assert got == r == n - 1
    pivots, gens = order[:r], order[r:]
    g = m - r
    uinv, u = zeros(m, g), zeros(g, m)
    uinv[gens, np.arange(g)] = 1
    u[np.arange(g), gens] = 1
    tree = surface._bfs_tree(n, plus[pivots], minus[pivots])
    at, j, sign = surface._tree_paths(*tree, plus[gens], minus[gens])
    u[j, pivots[at]] = sign
    assert to_lists(U[r:]) == to_lists(u)
    assert to_lists(Uinv[:, r:]) == to_lists(uinv)


_SEEDED = (
    [random_simple(*case[:3], seed=case[3]) for case in ORACLE_DATA + BUILD_DATA]
    + NON_SIMPLE_DATA
)
_SEEDED_IDS = [str(case) for case in ORACLE_DATA + BUILD_DATA] + NON_SIMPLE_IDS


@pytest.mark.parametrize("orbit", [OrbitKind.VECTOR, OrbitKind.SPINOR, OrbitKind.PARITY])
@pytest.mark.parametrize("datum", _SEEDED, ids=_SEEDED_IDS)
def test_tree_cycle_basis_closes_in_units_dual_to_the_class_map(monkeypatch, datum, orbit):
    # every basis cycle is a fundamental cycle of the spanning tree: entries
    # -1, 0 and 1, zero boundary, and C B = 1 for the class map C; the
    # sheet chains hold the same B
    seen = []
    gram = surface.HomologyModel._build_gram

    def spy(model, B):
        seen.append((model, B))
        return gram(model, B)

    monkeypatch.setattr(surface.HomologyModel, "_build_gram", spy)
    H = surface.build_all(induce(datum, orbit))
    assert [p for p, _ in seen] == list(H.parts)
    for p, B in seen:
        assert set(np.unique(B).tolist()) <= {-1, 0, 1}
        assert not p._boundary(B).any()
        assert to_lists(lattice._sparse_product(p.class_map, B)) == to_lists(eye(p.genus2))
        assert to_lists(_cycles(p)) == to_lists(B)


@pytest.mark.parametrize("datum", _SEEDED, ids=_SEEDED_IDS)
def test_build_all_runs_no_elimination(monkeypatch, datum):
    def refused(*args, **kwargs):
        raise AssertionError("the build ran a Smith elimination")

    monkeypatch.setattr(lattice, "_eliminate", refused)
    for orbit in (OrbitKind.VECTOR, OrbitKind.SPINOR, OrbitKind.PARITY):
        assert surface.build_all(induce(datum, orbit)).rank >= 0


def _chains(p, entry, columns=3, seed=0):
    """Edge chains on model ``p`` with entries drawn from ``entry``."""
    rng = random.Random(seed)
    return lattice.intmat(
        [[rng.choice(entry) for _ in range(columns)] for _ in range(p.edge_count)]
    )


@pytest.mark.parametrize("datum", [random_simple(4, 2, 8, seed=5), NON_SIMPLE], ids=["simple", "non-simple"])
@pytest.mark.parametrize("top", [7, 2**62, 2**80])
def test_boundary_by_segment_sums_matches_the_boundary_map(datum, top):
    # 2^62 times the most ends at a vertex passes 2^63: Python ints, exact
    p = surface.build_all(induce(datum, OrbitKind.SPINOR)).parts[0]
    loop = _oracles.LoopHomologyModel(p.cover)
    chains = _chains(p, [-top, -1, 0, 0, 1, top])
    got = p._boundary(chains)
    assert to_lists(got) == to_lists(lattice._sparse_product(loop.boundary_map, chains))
    on_pyints = top * p.most_ends >= 2**63
    assert (got.dtype == object) == on_pyints
    if on_pyints:
        assert all(type(x) is int for x in got.flat)
    assert not p._boundary(loop.B).any()


def test_boundary_python_int_path_at_the_bound():
    p = surface.build_all(induce(random_simple(3, 4, 6, seed=3), OrbitKind.SPINOR)).parts[0]
    loop = _oracles.LoopHomologyModel(p.cover)
    edge = 0  # the first end at sheet vertex 0
    for x, on_pyints in [((2**63 - 1) // p.most_ends, False), (2**63 // p.most_ends + 1, True)]:
        chains = zeros(p.edge_count, 1)
        chains[edge, 0] = x
        got = p._boundary(chains)
        assert (got.dtype == object) == on_pyints
        assert to_lists(got) == to_lists(lattice._sparse_product(loop.boundary_map, chains))


def test_induced_map_catches_a_chain_that_does_not_close():
    datum = random_simple(3, 4, 6, seed=3)
    H = surface.build_all(induce(datum, OrbitKind.SPINOR))
    p = H.parts[0]
    # one coefficient of one basis cycle moved to another edge of the same
    # sheet: still a chain, no longer a cycle
    chains = _dense(p.sheet_chains)
    row = int(np.flatnonzero(chains.any(axis=1))[0])
    sheet = int(np.flatnonzero(chains[row])[0])
    chains[row, sheet] += 1
    p.sheet_chains = lattice.sparse(chains)
    assert p._boundary(chains.T.reshape(p.edge_count, -1)).any()
    with pytest.raises(AssertionError, match="^image chain failed to close per component$"):
        surface.induced_map_all(H, H, eye(p.degree))


# -- the boundary and the build on the width ladder ------------------------------

_LADDER_EDGES = [2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1]
_LADDER_MODEL = surface.build_all(
    induce(random_simple(3, 4, 6, seed=3), OrbitKind.SPINOR)
).parts[0]


@st.composite
def _ladder_chains(draw):
    p = _LADDER_MODEL
    cols = draw(st.integers(min_value=1, max_value=3))
    edge = st.sampled_from(_LADDER_EDGES).flatmap(lambda x: st.sampled_from([x, -x]))
    entry = st.one_of(edge, st.integers(min_value=-2, max_value=2))
    # a few edges carry a large entry, the rest small ones
    chains = [[draw(st.integers(min_value=-1, max_value=1)) for _ in range(cols)]
              for _ in range(p.edge_count)]
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        e = draw(st.integers(min_value=0, max_value=p.edge_count - 1))
        chains[e][draw(st.integers(min_value=0, max_value=cols - 1))] = draw(entry)
    width = draw(st.sampled_from([None, np.int16, np.int32, np.int64]))
    return chains, width


@settings(max_examples=200, deadline=None)
@given(_ladder_chains())
def test_boundary_at_the_width_edges_matches_the_dict_reference(case):
    # chains given as Python ints or already at a width of the ladder; the
    # boundary is at the narrowest width holding max|chain| times the most
    # ends at a vertex, or Python ints from 2^63
    chains, width = case
    p = _LADDER_MODEL
    mat = lattice.intmat(chains)
    if width is not None:
        if any(abs(x) >= lattice._LIMIT[np.dtype(width)] for row in chains for x in row):
            return
        mat = mat.astype(width)
    got = p._boundary(mat)
    for j in range(len(chains[0])):
        want = _oracles.boundary(p, {e: row[j] for e, row in enumerate(chains) if row[j]})
        assert {v: c for v, c in enumerate(got[:, j].tolist()) if c} == want
    need = max(abs(x) for row in chains for x in row) * p.most_ends
    assert got.dtype == (lattice._narrowest(need) if need < 2**63 else object)


@pytest.mark.parametrize("args,limit_mb", [((5, 12, 16, 0), 3), ((8, 4, 16, 1), 80)],
                         ids=["rank-258", "rank-1026"])
def test_spinor_build_heap_peak(args, limit_mb):
    # B held at the width its entries -1, 0 and 1 need: int16 here, where
    # int64 peaked at 4.8 and 110 MB
    cm = induce(random_simple(*args), OrbitKind.SPINOR)
    tracemalloc.start()
    try:
        surface.build_all(cm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


@pytest.mark.parametrize("args", [(5, 12, 16, 0), (8, 4, 16, 1)], ids=["rank-258", "rank-1026"])
def test_spinor_cycle_basis_reaches_the_gram_in_int16(monkeypatch, args):
    # every entry of B is -1, 0 or 1, and B goes to the Gram at the width
    # of (most ends - 1) max|B|: int16 at both ranks, where at rank 1026 an
    # old bound, 2 m beta times the most ends (51,240), held B in int32
    seen = []
    real = surface.HomologyModel._build_gram

    def spy(self, B):
        seen.append((B.dtype, lattice._maxabs(B), self.most_ends))
        return real(self, B)

    monkeypatch.setattr(surface.HomologyModel, "_build_gram", spy)
    surface.build_all(induce(random_simple(*args), OrbitKind.SPINOR))
    [(width, top, most_ends)] = seen
    assert top == 1 and width == np.int16
    assert lattice._narrowest((most_ends - 1) * top) == width


def test_connected_build_finds_its_components_once(monkeypatch):
    # in build_all, which hands them to the model; the rank check reads the
    # Riemann-Hurwitz count without a second
    calls = []
    real = cover.components

    def counted(cm):
        calls.append(cm)
        return real(cm)

    monkeypatch.setattr(cover, "components", counted)
    monkeypatch.setattr(surface, "components", counted)
    cm = induce(random_simple(3, 4, 6, seed=3), OrbitKind.SPINOR)
    H = surface.build_all(cm)
    assert len(calls) == 1
    assert H.parts[0].genus == cover.genus(cm)


def _sheet_parts(cm):
    """``(B, degree, arcs, sheet part)`` for every model ``build_all`` makes
    of ``cm``, as ``surface._sheet_crossings`` saw and returned them."""
    seen = []
    real = surface._sheet_crossings

    def spy(B, degree, arcs):
        out = real(B, degree, arcs)
        seen.append((B.copy(), degree, arcs, out.copy()))  # the Gram goes on from it
        return out

    surface._sheet_crossings = spy
    try:
        surface.build_all(cm)
    finally:
        surface._sheet_crossings = real
    return seen


def _merged_gens(datum):
    """The datum with its first two and its fifth and sixth local
    monodromies merged into one each: the product is still one, and the
    merged points are no reflections."""
    g = datum.gens
    return MonodromyDatum(datum.n, 0, (g[0] * g[1],) + g[2:4] + (g[4] * g[5],) + g[6:])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 4), st.integers(0, 3), st.integers(1, 4), st.integers(0, 2**16),
    st.sampled_from(list(OrbitKind)), st.booleans(),
)
def test_sheet_crossings_equal_the_product_form(n, half_s, half_l, seed, orbit, merge):
    # seeded simple data and data with two merged points, in every orbit;
    # ds = 0 splits the spinor cover
    try:
        datum = random_simple(n, 2 * half_s, 2 * half_l, seed)
    except GenerationError:  # ruled out by Riemann-Hurwitz
        return
    if merge:
        if len(datum.gens) < 6:
            return
        datum = _merged_gens(datum)
        assert cover.validate(datum) is None
    for B, degree, arcs, got in _sheet_parts(induce(datum, orbit)):
        assert got.dtype == np.int64
        assert to_lists(got) == to_lists(_oracles.sheet_crossings_by_products(B, degree, arcs))


@pytest.mark.parametrize("args,orbit,parts", [
    ((5, 12, 16, 0), OrbitKind.SPINOR, 1),
    ((3, 0, 10, 2), OrbitKind.SPINOR, 2),
    ((4, 4, 8, 5), OrbitKind.VECTOR, 1),
    ((4, 4, 8, 5), OrbitKind.PARITY, 1),
])
def test_sheet_crossings_equal_the_product_form_on_fixed_data(args, orbit, parts):
    seen = _sheet_parts(induce(random_simple(*args), orbit))
    assert len(seen) == parts
    for B, degree, arcs, got in seen:
        assert to_lists(got) == to_lists(_oracles.sheet_crossings_by_products(B, degree, arcs))


def test_induced_core_is_the_public_map_at_fixed_width():
    datum = random_simple(3, 4, 6, seed=3)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    split = surface.build_all(induce(random_simple(3, 0, 10, seed=2), OrbitKind.SPINOR))
    for src, dst, fiber in [(HX, HX, corr.make_D(3).matrix), (HX, HC, corr.make_S0(3).matrix),
                            (split, split, corr.sigma_matrix(3))]:
        core = surface._induced(src, dst, fiber)
        public = surface.induced_map_all(src, dst, fiber)
        assert core.dtype == np.int64
        assert public.dtype == object and all(type(x) is int for x in public.flat)
        assert to_lists(core) == to_lists(public)
    # entries past int64 leave the core as Python ints
    big = 2**62 * corr.make_D(3).matrix
    core = surface._induced(HX, HX, big)
    assert core.dtype == object
    assert to_lists(core) == to_lists(2**62 * surface.induced_map_all(HX, HX, corr.make_D(3).matrix))
