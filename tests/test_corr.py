from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import check_equivariance_all_roots, pairing
from prymlab import corr, cover, surface, weyl
from prymlab.corr import (
    FiberMatrix,
    check_identity,
    identity_names,
    make_D,
    make_Di,
    make_S0,
)
from prymlab.errors import (
    EquivarianceError,
    PrymlabError,
    RankError,
    UnknownIdentityError,
    UnsupportedError,
)
from prymlab.lattice import eye, intmat, mat_equal, to_lists, zeros
from prymlab.weyl import OrbitKind


def test_make_D_rank2_is_complementation():
    D = make_D(2).matrix
    assert to_lists(D) == [
        [0, 0, 0, 1],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
    ]
    assert make_D(2).degree == 1


@pytest.mark.parametrize("n,deg", [(2, 1), (3, 5), (4, 17), (5, 49)])
def test_make_D_degree_closed_form(n, deg):
    assert make_D(n).degree == deg


def test_fiber_matrix_rejects_non_equivariant():
    m = zeros(4, 4)
    m[0, 1] = 1
    with pytest.raises(EquivarianceError):
        FiberMatrix(2, OrbitKind.SPINOR, OrbitKind.SPINOR, m)
    with pytest.raises(EquivarianceError):
        FiberMatrix(2, OrbitKind.SPINOR, OrbitKind.VECTOR, zeros(4, 3))


def _accepts(check, *args):
    try:
        check(*args)
    except EquivarianceError:
        return False
    return True


@lru_cache(maxsize=None)
def _entry_orbits(n, src, dst):
    """Orbit number of each entry (i, j) under the group acting on both
    indices, joined along every reflection; and the number of orbits."""
    rows, cols = len(weyl.orbit_labels(src, n)), len(weyl.orbit_labels(dst, n))
    parent = list(range(rows * cols))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for root in weyl.all_roots(n):
        w = weyl.reflection(root, n)
        ps, pd = weyl.perm_on_orbit(w, src), weyl.perm_on_orbit(w, dst)
        for i in range(rows):
            for j in range(cols):
                parent[find(i * cols + j)] = find(ps[i] * cols + pd[j])
    number = {}
    orbit = [number.setdefault(find(x), len(number)) for x in range(rows * cols)]
    return np.array(orbit).reshape(rows, cols), len(number)


_ORBIT_PAIRS = [
    (OrbitKind.SPINOR, OrbitKind.SPINOR),
    (OrbitKind.SPINOR, OrbitKind.VECTOR),
    (OrbitKind.VECTOR, OrbitKind.VECTOR),
]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 5),
    pair=st.sampled_from(_ORBIT_PAIRS),
    perturb=st.booleans(),
)
def test_simple_reflection_check_agrees_with_all_roots(data, n, pair, perturb):
    src, dst = pair
    orbits, count = _entry_orbits(n, src, dst)
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=count, max_size=count))
    m = np.array(coeffs, dtype=object)[orbits]
    if perturb:
        i = data.draw(st.integers(0, m.shape[0] - 1))
        j = data.draw(st.integers(0, m.shape[1] - 1))
        m[i, j] += data.draw(st.sampled_from([-2, -1, 1, 2]))
    ours = _accepts(FiberMatrix, n, src, dst, m)
    assert ours == _accepts(check_equivariance_all_roots, n, src, dst, m)
    # every entry orbit has at least as many entries as the source orbit
    assert ours == (not perturb)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_check_needs_the_short_simple_root(n):
    # invariant under every permutation of the indices, not under sign flips
    labels = weyl.orbit_labels(OrbitKind.VECTOR, n)
    m = np.array(
        [[int(a.value > 0 and b.value > 0) for b in labels] for a in labels], dtype=object
    )
    *long_roots, short = weyl.simple_roots(n)
    assert short == weyl.short_root(n)
    perms = [weyl.perm_on_orbit(weyl.reflection(r, n), OrbitKind.VECTOR) for r in long_roots]
    surface.check_equivariance(m, perms, perms)
    with pytest.raises(EquivarianceError):
        FiberMatrix(n, OrbitKind.VECTOR, OrbitKind.VECTOR, m)
    with pytest.raises(EquivarianceError):
        check_equivariance_all_roots(n, OrbitKind.VECTOR, OrbitKind.VECTOR, m)


def _same_ints(ours, oracle):
    return (
        ours.dtype == object
        and ours.shape == oracle.shape
        and all(type(x) is int for x in ours.flat)
        and mat_equal(ours, oracle)
    )


def _orbit_gram_by_weights(n, weight):
    """Gram and exponent of an extended weight orbit from its weight
    vectors, in rationals: for the form -2 times the standard one, entry
    (v_a, v_b) - (v_a, v_a) - 1 and exponent -(orbit size)(v_a, v_a) / n."""
    vecs = _oracles.weight_vectors_by_values(n, weight)
    self_pair = pairing(vecs[0], vecs[0], -2)
    gram = [[pairing(x, y, -2) - self_pair - 1 for y in vecs] for x in vecs]
    return gram, Fraction(-len(vecs)) * self_pair / n


@pytest.mark.parametrize("n", range(2, 7))
def test_fiber_matrices_match_the_set_oracles(n):
    assert _same_ints(make_D(n).matrix, _oracles.fiber_D(n))
    assert _same_ints(make_S0(n).matrix, _oracles.fiber_S0(n))
    assert _same_ints(corr.sigma_matrix(n), _oracles.fiber_sigma(n))
    assert _same_ints(corr.negation_matrix(n), _oracles.fiber_negation(n))
    assert _same_ints(corr.parity_incidence(n), _oracles.fiber_parity_incidence(n))
    for parity in (0, 1, 2, -1):
        ours = corr.parity_indicator(n, parity)
        assert _same_ints(ours, _oracles.fiber_parity_indicator(n, parity))
    # identity x's closed-form orbit Grams, D - 1 and 2(iota - 1) + J, with
    # the exponents it reports
    x = check_identity("cross_composition", n).details
    e = 2 * n
    closed = {
        "spinor": (make_D(n).matrix - eye(1 << n), x["q"]),
        "vector": (2 * (corr.negation_matrix(n) - eye(e)) + intmat([[1] * e] * e), x["q'"]),
    }
    for weight, (gram, q) in closed.items():
        assert (to_lists(gram), q) == _orbit_gram_by_weights(n, weight), weight


# the entries of make_D, make_Di and sigma_matrix as the matrices were built
# one Python call per pair of masks (a, b)
_PAIR_ENTRIES = {
    "D": lambda a, b: (a ^ b).bit_count() - 1 if a != b else 0,
    **{f"D{i}": lambda a, b, i=i: int((a ^ b).bit_count() == i + 1) for i in range(4)},
    "sigma": lambda a, b, n: int(b == ((1 << n) - 1) ^ a),
}
_GRID_ENTRIES = {
    "D": lambda xor, size: np.maximum(size - 1, 0),
    **{f"D{i}": lambda xor, size, i=i: size == i + 1 for i in range(4)},
}


@pytest.mark.parametrize("n", range(2, 9))
def test_spinor_matrices_from_the_mask_grid_equal_the_pair_by_pair_build(n):
    d = 1 << n
    for name, entry in _GRID_ENTRIES.items():
        want = intmat([[_PAIR_ENTRIES[name](a, b) for b in range(d)] for a in range(d)])
        assert _same_ints(corr._spinor_matrix(n, entry), want), name
    full = d - 1
    want = intmat([[_PAIR_ENTRIES["sigma"](a, b, n) for b in range(d)] for a in range(d)])
    assert _same_ints(corr._spinor_matrix(n, lambda xor, size: xor == full), want)
    if n <= corr.FIBER_RANK_MAX:
        assert _same_ints(make_D(n).matrix, corr._spinor_matrix(n, _GRID_ENTRIES["D"]))
        assert _same_ints(corr.sigma_matrix(n), want)


@pytest.mark.parametrize("i", range(4))
def test_shells_match_the_set_oracle(i):
    assert _same_ints(make_Di(4, i).matrix, _oracles.fiber_Di(4, i))


def test_make_S0_rows():
    s0 = make_S0(2).matrix
    # labels: subsets (), (1,), (2,), (1,2); vector 1,-1,2,-2
    assert to_lists(s0)[0] == [0, 1, 0, 1]  # empty set selects -1 and -2
    assert to_lists(s0)[3] == [1, 0, 1, 0]
    # the all-ones traces T, T1, T2 commute with the group
    ones = np.full((4, 4), 1, dtype=object)
    assert FiberMatrix(2, OrbitKind.SPINOR, OrbitKind.VECTOR, ones).degree == 4
    FiberMatrix(2, OrbitKind.SPINOR, OrbitKind.SPINOR, ones)
    FiberMatrix(2, OrbitKind.VECTOR, OrbitKind.VECTOR, ones)
    # S = 2*S0 + n*T: row sums 2n + n*2n, column sums 2*2^(n-1) + n*2^n
    for n in (2, 3):
        details = check_identity("trace_products", n).details
        assert details["deg S"] == 2 * n + 2 * n * n
        assert details["deg tS"] == 2 ** n + n * 2 ** n


def test_make_Di_shells():
    d0 = make_Di(4, 0)
    assert d0.degree == 4  # hypercube adjacency
    assert mat_equal(d0.matrix, d0.matrix.T)
    d3 = make_Di(4, 3)
    assert mat_equal(d3.matrix, corr.sigma_matrix(4))
    total = zeros(16, 16)
    for i in range(4):
        total = total + i * make_Di(4, i).matrix
    assert mat_equal(total, make_D(4).matrix)


def test_make_Di_requires_rank_four():
    with pytest.raises(RankError):
        make_Di(3, 0)


def test_match_scalar_reads_the_first_nonzero_pattern_entry():
    pattern = intmat([[0, 0, -3], [2, 0, 1]])
    assert corr._match_scalar(-2 * pattern, pattern) == (-2, True)
    # floor division: 7 // -3 == -3, and -3 * pattern is not the left side
    assert corr._match_scalar(intmat([[0, 0, 7], [-4, 0, -2]]), pattern) == (-3, False)
    # row-major: the entry at (0, 1) decides, not the one at (1, 0)
    assert corr._match_scalar(intmat([[0, 10], [3, 0]]), intmat([[0, 5], [1, 0]])) == (2, False)
    assert corr._match_scalar(zeros(2, 3), zeros(2, 3)) == (0, True)
    assert corr._match_scalar(intmat([[0, -1]]), zeros(1, 2)) == (0, False)


def test_identity_catalog_all_fiber_levels():
    for name in identity_names():
        for n in corr.applicable_ranks(name):
            result = check_identity(name, n)
            assert result.passed, (name, n, result.witness)


def test_identity_details_spot_checks():
    assert check_identity("s0_roundtrip_spinor", 3).details["coefficient"] == 2
    assert check_identity("quadratic_relation", 2).details["m"] == 0
    assert check_identity("s0_roundtrip_vector", 4).details["coefficient"] == 4
    g = check_identity("parity_pushforward", 3)
    assert g.details["M"] == g.details["binomial sum"] == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cross_composition_solved_constants(n):
    r = check_identity("cross_composition", n)
    assert r.passed
    # roundtrip trace multiple, from expanding the scaled incidence
    assert r.details["d1"] == 2 * n**3 + 4 * n**2 + 4 * n - 4
    assert r.details["q"] == 2 ** (n - 1)
    assert r.details["q'"] == 4


def test_identity_letter_aliases():
    assert check_identity("d", 4).name == "sigma_commutes_D"


def test_identity_unknown_name():
    with pytest.raises(UnknownIdentityError):
        check_identity("nonsense", 3)


def test_identity_wrong_rank():
    with pytest.raises(RankError):
        check_identity("cube_adjacency_square", 3)


def test_identity_homology_level():
    datum = cover.random_simple(3, 4, 6, seed=11)
    for name in (
        "trace_products",
        "s0_roundtrip_spinor",
        "s0_roundtrip_vector",
        "sigma_commutes_D",
        "symmetrized_D_trace",
        "quadratic_relation",
        "parity_pushforward",
    ):
        r = check_identity(name, 3, level="homology", datum=datum)
        assert r.passed, (name, r.details)


@pytest.mark.parametrize("n", [2, 4])
def test_identity_homology_other_ranks(n):
    names = ["s0_roundtrip_spinor", "s0_roundtrip_vector", "quadratic_relation"]
    if n == 4:
        names.append("cube_adjacency_square")
    for name in names:
        r = check_identity(name, n, level="homology")
        assert r.passed, (name, n, r.details)


@pytest.mark.parametrize("letter", ["a", "b", "c", "d", "e", "f"])
def test_identity_homology_rank_six_default_datum(letter):
    r = check_identity(letter, 6, level="homology")
    assert r.passed, (letter, r.details)


def test_identity_homology_split_case():
    r = check_identity("split_diagonal_annihilation", 3, level="homology")
    assert r.passed
    assert r.details["components"] == 2


def test_identity_homology_rejects_vector_statements():
    with pytest.raises(UnsupportedError):
        check_identity("parity_pullback", 4, level="homology")


def test_degrees_constant_across_rows():
    for n in (2, 3, 4):
        for fm in (make_D(n), make_S0(n)):
            fm.degree  # raises if a row sum differs


def test_fiber_level_refuses_a_datum():
    datum = cover.random_simple(3, 4, 6, seed=11)
    with pytest.raises(PrymlabError):
        check_identity("s0_roundtrip_spinor", 3, level="fiber", datum=datum)


@pytest.mark.parametrize(
    "letter,n", [("d", 3), ("e", 3), ("f", 3), ("j", 4), ("k", 3), ("f", 6)]
)
def test_homology_statements_on_the_subset_orbit_build_one_cover(letter, n, monkeypatch):
    built = []
    build_all = surface.build_all

    def recording(cover_model):
        built.append(cover_model.orbit)
        return build_all(cover_model)

    monkeypatch.setattr(surface, "build_all", recording)
    assert check_identity(letter, n, level="homology").passed
    assert built == [OrbitKind.SPINOR]


@pytest.mark.parametrize("level", ["fiber", "homology"])
@pytest.mark.parametrize("n", [3, 4])
def test_wrong_D_fails_the_quadratic_relation(level, n, monkeypatch):
    # D + sigma commutes with the group, so only the identity can reject it
    src, dst, make_D = corr._CORRESPONDENCES["D"]
    monkeypatch.setitem(
        corr._CORRESPONDENCES, "D", (src, dst, lambda k: make_D(k) + corr.sigma_matrix(k))
    )
    r = check_identity("quadratic_relation", n, level=level)
    assert r.passed is False
    assert ("lhs" in r.witness) == (level == "fiber")
    assert check_identity("sigma_commutes_D", n, level=level).passed
