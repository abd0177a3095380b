import gc
import random
import weakref

import pytest

import _oracles
from prymlab import corr, cover, lattice, surface, weyl
from prymlab.cover import MonodromyDatum, induce, random_simple
from prymlab.errors import DisconnectedError, EquivarianceError, UnsupportedError
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
    assert mat_equal(H1.B, H2.B)


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
        assert mat_equal(boundary @ p.B, zeros(p.vertex_count, p.genus2))
        # the sparse boundary map induced_map_all checks image chains with
        assert mat_equal(lattice._sparse_product(p.boundary_map, eye(p.edge_count)), boundary)
        assert all(p.gram[i, i] == 0 for i in range(p.genus2))


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
    g0 = H.parts[0].genus2
    for i in range(g0):
        for j in range(g0, H.rank):
            assert H.gram[i, j] == 0


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


# -- the pairwise local-flow and dict-substitution oracles ----------------------

# vector and spinor covers at ranks 2-5, rank 5 being where the int64
# homology is timed; (3, 0, 10, 2) and (5, 0, 12, 1) split the spinor cover
ORACLE_DATA = [
    (2, 4, 4, 3), (3, 4, 6, 3), (3, 0, 10, 2), (4, 2, 8, 5), (5, 2, 10, 1), (5, 0, 12, 1),
]


def _columns(B):
    return [
        {e: int(B[e, j]) for e in range(B.shape[0]) if B[e, j]} for j in range(B.shape[1])
    ]


@pytest.mark.parametrize("orbit", [OrbitKind.VECTOR, OrbitKind.SPINOR])
@pytest.mark.parametrize("n,ds,dl,seed", ORACLE_DATA)
def test_gram_matches_pairwise_flow_oracle(n, ds, dl, seed, orbit):
    H = surface.build_all(induce(random_simple(n, ds, dl, seed=seed), orbit))
    if (ds, orbit) == (0, OrbitKind.SPINOR):
        assert len(H.parts) == 2
    for p in H.parts:
        cycles = _columns(p.B)
        assert to_lists(p.gram) == [
            [_oracles.intersection(p, a, b) for b in cycles] for a in cycles
        ]


# a datum that is not simple: its 3-cycles give ramification vertices with
# three ends, which the Gram sums one vertex at a time
NON_SIMPLE = MonodromyDatum(3, 0, tuple(
    weyl.SignedPerm(3, g) for g in ((2, 3, 1), (3, 1, 2), (-2, -3, 1), (3, -1, -2))
))


@pytest.mark.parametrize("orbit", [OrbitKind.VECTOR, OrbitKind.SPINOR, OrbitKind.PARITY])
@pytest.mark.parametrize(
    "datum",
    [random_simple(*case[:3], seed=case[3]) for case in ORACLE_DATA] + [NON_SIMPLE],
    ids=[str(case) for case in ORACLE_DATA] + ["non-simple"],
)
def test_gram_matches_the_vertex_by_vertex_sum(datum, orbit):
    H = surface.build_all(induce(datum, orbit))
    ends = {(kind, len(e)) for p in H.parts for kind, e in p.vertex_ends}
    if orbit is not OrbitKind.PARITY:
        assert ("branch", 3 if datum is NON_SIMPLE else 2) in ends
    for p in H.parts:
        assert to_lists(p.gram) == to_lists(_oracles.gram_by_vertices(p))


@pytest.mark.parametrize("n,ds,dl,seed", ORACLE_DATA)
def test_induced_maps_match_substitution_oracle(n, ds, dl, seed):
    datum = random_simple(n, ds, dl, seed=seed)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    for src, dst, fiber in [
        (HX, HX, corr.make_D(n).matrix),
        (HX, HX, corr.sigma_matrix(n)),
        (HX, HC, corr.make_S0(n).matrix),
    ]:
        got = surface.induced_map_all(src, dst, fiber)
        want = []
        for pa, la in zip(src.parts, src.part_labels):
            for z in _columns(pa.B):
                col = []
                for pb, lb in zip(dst.parts, dst.part_labels):
                    img = _oracles.substitute(z, fiber, la, lb, pa.arc_count)
                    assert _oracles.boundary(pb, img) == {}
                    cls = _oracles.class_of(pb, img)
                    # the class pairs with every basis cycle as the chain does
                    assert to_lists(pb.gram @ lattice.intmat([cls]).T) == [
                        [_oracles.intersection(pb, b, img)] for b in _columns(pb.B)
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
