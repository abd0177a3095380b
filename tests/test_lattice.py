import inspect
import itertools
import random
import sys
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import _oracles
from _oracles import (
    _snf_state,
    chain_mod_lists,
    contains_via_u,
    det_cofactor,
    det_fraction_free,
    minors_gcd_chain,
    product_lists,
    solve_exact_via_u,
    sum_lattices,
)
from prymlab import lattice, surface
from prymlab.corr import make_D
from prymlab.cover import induce, random_simple
from prymlab.errors import DegenerateFormError
from prymlab.prym import probe_trial
from prymlab.lattice import (
    PolarizedLattice,
    contains,
    det,
    divisors,
    dual_type,
    eye,
    image,
    intersect,
    intmat,
    kernel,
    lattices_equal,
    mat_equal,
    matmul,
    ptype,
    saturate,
    snf,
    solve_exact,
    to_lists,
    zeros,
)
from prymlab.weyl import OrbitKind


def _random_matrix(rng, rows, cols, lo=-9, hi=9):
    return intmat([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


def test_snf_identity():
    U, D, V = snf(eye(3))
    assert to_lists(D) == to_lists(eye(3))


def test_snf_diag_2_3():
    M = intmat([[2, 0], [0, 3]])
    assert divisors(M) == (1, 6)
    # gcd-of-minors oracle: entries gcd 1, determinant 6
    assert minors_gcd_chain([[2, 0], [0, 3]]) == [1, 6]


def test_snf_zero_matrix():
    _, D, _ = snf(zeros(2, 3))
    assert to_lists(D) == [[0, 0, 0], [0, 0, 0]]


def test_snf_transforms_are_unimodular():
    rng = random.Random(7)
    M = _random_matrix(rng, 5, 4)
    U, D, V = snf(M)
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    assert mat_equal(U @ M @ V, D)


def test_snf_agrees_with_minor_gcd_oracle():
    rng = random.Random(123)
    for _ in range(60):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        M = _random_matrix(rng, r, c)
        assert list(divisors(M)) == minors_gcd_chain(to_lists(M))


def test_det_matches_cofactor_expansion():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(1, 5)
        M = _random_matrix(rng, k, k)
        assert det(M) == det_cofactor(to_lists(M))


def test_kernel_of_sum_functional():
    K = kernel(intmat([[1, 1]]))
    assert K.shape == (2, 1)
    assert sorted(to_lists(K.T)[0]) == [-1, 1]


def test_image_of_doubling():
    I2 = image(intmat([[2, 0], [0, 2]]))
    assert abs(det(I2)) == 4  # index-4 sublattice


def test_image_not_saturated_but_saturate_fixes():
    M = intmat([[2], [0]])
    assert to_lists(image(M)) == [[2], [0]]
    assert to_lists(saturate(M)) == [[1], [0]]


def test_saturate_idempotent_and_rank_preserving():
    rng = random.Random(11)
    for _ in range(20):
        M = _random_matrix(rng, 5, rng.randint(1, 4), lo=-6, hi=6)
        S = saturate(M)
        assert S.shape[1] == len(divisors(M))
        assert lattices_equal(S, saturate(S))


def test_saturate_keeps_primitive_basis():
    M = intmat([[1, 0], [0, 1], [3, -2]])
    assert lattices_equal(saturate(M), M)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=6),
    st.sampled_from([9, 2**40]),
    st.data(),
)
def test_saturate_of_a_tall_matrix_is_the_first_columns_of_uinv(rows, cols, top, data):
    # with more rows than columns saturate reads V: mat V = U^-1 D gives the
    # very columns of U^-1 it read before, in int64 and on Python ints
    assume(cols < rows)
    entries = st.integers(min_value=-top, max_value=top)
    M = intmat([[data.draw(entries) for _ in range(cols)] for _ in range(rows)])
    _, r, uinv = lattice._eliminate(M, ("uinv",))
    got = saturate(M)
    assert got.dtype == object and got.shape == (rows, r)
    assert to_lists(got) == to_lists(uinv[:, :r])


def test_intersect_transverse_lines():
    A = intmat([[1], [0]])
    B = intmat([[0], [1]])
    assert intersect(A, B).shape[1] == 0


def test_intersect_with_overlap():
    A = intmat([[1, 0], [0, 2], [0, 0]])
    B = intmat([[1, 0], [0, 1], [0, 0]])
    got = intersect(A, B)
    assert lattices_equal(got, A)


def test_sum_lattices_spans_both():
    A = intmat([[2], [0]])
    B = intmat([[0], [3]])
    S = sum_lattices(A, B)
    assert lattices_equal(S, intmat([[2, 0], [0, 3]]))


def test_solve_exact_and_contains():
    A = intmat([[2, 1], [0, 1]])
    b = intmat([[3], [1]])
    x = solve_exact(A, b)
    assert mat_equal(A @ x, b)
    with pytest.raises(ValueError):
        solve_exact(intmat([[2]]), intmat([[1]]))


def test_ptype_single_pair():
    L = PolarizedLattice(intmat([[0, 2], [-2, 0]]), eye(2))
    assert ptype(L) == (2,)


def test_ptype_unimodular_is_principal():
    g = intmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert ptype(PolarizedLattice(g, eye(4))) == (1, 1)


def test_ptype_degenerate_reports_radical():
    g = zeros(2, 2)
    with pytest.raises(DegenerateFormError) as err:
        ptype(PolarizedLattice(g, eye(2)))
    assert err.value.radical is not None


def test_ptype_odd_rank_rejected():
    g = intmat([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    with pytest.raises(DegenerateFormError):
        ptype(PolarizedLattice(g, intmat([[1], [0], [0]])))


def test_gram_type_of_an_odd_rank_form_reports_its_radical():
    # a 3 x 3 alternating form of rank 2: its Pfaffian, of odd order, is 0,
    # and its radical is the line through (3, -2, 1)
    g = intmat([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])
    basis = intmat([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    message = r"^restricted form is degenerate with radical of rank 1$"
    with pytest.raises(DegenerateFormError, match=message) as err:
        lattice.gram_type(g, basis)
    assert to_lists(err.value.radical) in ([[3], [-2], [2]], [[-3], [2], [-2]])


def test_homology_sublattices_do_not_scan_the_checked_gram(monkeypatch):
    H = surface.build_all(induce(random_simple(4, 4, 8, 5), OrbitKind.SPINOR))
    scans = []
    post_init = PolarizedLattice.__post_init__

    def spy(self):
        scans.append(self.gram is H._gram64)
        post_init(self)

    monkeypatch.setattr(PolarizedLattice, "__post_init__", spy)
    b = 2 * eye(H.rank)
    sub = H.sublattice(b, 4)
    assert scans == []
    assert sub.gram is H._gram64 and sub.basis is b and sub.exponent == 4
    with pytest.raises(ValueError, match="shape mismatch"):
        H.sublattice(eye(H.rank - 1))
    # the public constructor still checks the same Gram, and agrees
    public = PolarizedLattice(H._gram64, b, 4)
    assert scans == [True]
    assert mat_equal(sub.restricted_gram(), public.restricted_gram())
    assert ptype(sub) == ptype(public) == (4,) * (H.rank // 2)


def test_polarized_lattice_requires_alternating():
    with pytest.raises(ValueError):
        PolarizedLattice(eye(2), eye(2))


def test_polarized_lattice_checks_alternation_past_int64():
    big = 2**70
    with pytest.raises(ValueError, match="alternating"):
        PolarizedLattice(intmat([[0, big], [big, 0]]), eye(2))
    with pytest.raises(ValueError, match="alternating"):
        PolarizedLattice(np.array([[0, 3], [3, 0]], dtype=np.int64), eye(2))
    g = intmat([[0, big, 0, 1], [-big, 0, 2, 0], [0, -2, 0, 5], [-1, 0, -5, 0]])
    b = intmat([[1, 0], [2, 1], [0, 3], [1, 1]])
    got = PolarizedLattice(g, b).restricted_gram()
    assert got.dtype == object and mat_equal(got, matmul(matmul(b.T, g), b))


def test_polarized_lattice_reads_its_gram_once(monkeypatch):
    g = intmat([[0, 1, 0, 3], [-1, 0, 2, 0], [0, -2, 0, 5], [-3, 0, -5, 0]])
    b = intmat([[1, 0], [2, 1], [0, 3], [1, 1]])
    lat = PolarizedLattice(g, b)
    assert lat.gram is g  # the Gram is kept as given
    expected = matmul(matmul(b.T, g), b)
    real = lattice._int64
    read = []

    def spy(x):
        read.append(x is g)
        return real(x)

    monkeypatch.setattr(lattice, "_int64", spy)
    for _ in range(2):
        got = lat.restricted_gram()
        assert got.dtype == object and mat_equal(got, expected)
    assert read and not any(read)


def test_dual_type_examples():
    assert dual_type((1, 2)) == (1, 2)
    assert dual_type((1, 1, 4)) == (1, 4, 4)
    assert dual_type((1, 1, 1)) == (1, 1, 1)


def test_dual_type_rejects_non_chain():
    with pytest.raises(ValueError):
        dual_type((2, 3))


@st.composite
def _chains(draw):
    length = draw(st.integers(min_value=1, max_value=6))
    mults = draw(
        st.lists(st.integers(min_value=1, max_value=6), min_size=length, max_size=length)
    )
    chain = []
    value = 1
    for m in mults:
        value *= m
        chain.append(value)
    return tuple(chain)


@settings(max_examples=300, deadline=None)
@given(_chains())
def test_dual_type_is_an_involution(chain):
    assert dual_type(dual_type(chain)) == chain


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_snf_postconditions_hypothesis(rows, cols, data):
    M = intmat(
        [
            [
                data.draw(st.integers(min_value=-9, max_value=9))
                for _ in range(cols)
            ]
            for _ in range(rows)
        ]
    )
    U, D, V = snf(M)
    assert mat_equal(U @ M @ V, D)
    chain = [int(D[i, i]) for i in range(min(rows, cols))]
    nz = [d for d in chain if d]
    assert all(d > 0 for d in nz)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # nonzero entries only on the leading diagonal
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D[i, j] == 0


def test_alternating_divisors_pair_up():
    rng = random.Random(3)
    for _ in range(15):
        k = rng.randint(1, 3)
        A = _random_matrix(rng, 2 * k, 2 * k, lo=-4, hi=4)
        G = A - A.T
        if len(divisors(G)) < 2 * k:
            continue  # degenerate draw
        chain = divisors(G)
        assert all(chain[i] == chain[i + 1] for i in range(0, 2 * k, 2))


# -- Pfaffian-first divisor chains ---------------------------------------------


def _snf_chain(M):
    _, D, _ = snf(M)
    return tuple(int(D[i, i]) for i in range(min(D.shape)) if D[i, i] != 0)


@st.composite
def _nonsingular(draw, alternating):
    k = draw(st.integers(min_value=1, max_value=3 if alternating else 5))
    size = 2 * k if alternating else k
    entries = st.integers(min_value=-9, max_value=9)
    M = intmat([[draw(entries) for _ in range(size)] for _ in range(size)])
    if alternating:
        M = M - M.T
    # a common row factor forces nontrivial divisors
    M[0] = M[0] * draw(st.integers(min_value=1, max_value=4))
    assume(det(M) != 0)
    return M


@st.composite
def _unimodular(draw, size):
    U = eye(size)
    for _ in range(draw(st.integers(min_value=0, max_value=3 * size))):
        i = draw(st.integers(min_value=0, max_value=size - 1))
        j = draw(st.integers(min_value=0, max_value=size - 1))
        if i != j:
            U[i] = U[i] + draw(st.integers(min_value=-3, max_value=3)) * U[j]
    return U


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(_nonsingular))
def test_modular_chain_matches_snf_and_minors(M):
    chain = divisors(M)
    assert chain == _snf_chain(M)
    assert list(chain) == minors_gcd_chain(to_lists(M))


@settings(max_examples=100, deadline=None)
@given(st.booleans().flatmap(_nonsingular), st.data())
def test_modular_chain_invariant_under_unimodular_change(M, data):
    size = M.shape[0]
    U = data.draw(_unimodular(size))
    V = data.draw(_unimodular(size))
    assert abs(det(U)) == 1 and abs(det(V)) == 1
    assert divisors(U @ M @ V) == divisors(M)


@st.composite
def _chain_inputs(draw):
    """A nonsingular square matrix, alternating or not, with entries small
    enough for int64 rows modulo |det| or large enough to need Python ints."""
    alternating = draw(st.booleans())
    k = draw(st.integers(min_value=1, max_value=3 if alternating else 6))
    size = 2 * k if alternating else k
    bits = draw(st.sampled_from([2, 4, 4, 20, 40]))
    entries = st.integers(min_value=-(2**bits), max_value=2**bits)
    M = intmat([[draw(entries) for _ in range(size)] for _ in range(size)])
    if alternating:
        M = M - M.T
    # a common factor of row 0 (and column 0, to stay alternating) forces
    # nontrivial divisors
    c = draw(st.integers(min_value=1, max_value=4))
    M[0] = M[0] * c
    if alternating:
        M[:, 0] = M[:, 0] * c
    assume(det(M) != 0)
    return M, alternating


@settings(max_examples=300, deadline=None)
@given(_chain_inputs())
@example((intmat([[2**40, 0], [0, 6]]), False))
@example((intmat([[0, 2**33], [-(2**33), 0]]), True))
@example((intmat([[4, 0, 0], [0, 6, 0], [0, 0, 10]]), False))
def test_modular_chain_matches_the_list_reference(case):
    M, alternating = case
    D = abs(det_fraction_free(to_lists(M)))
    want = chain_mod_lists(to_lists(M), D)
    assert lattice._chain_mod(M, D) == want
    if alternating:
        assert lattice._nonsingular_chain(M) == want
        # modulo the Pfaffian alone, the same chain
        assert lattice._chain_mod(M, isqrt(D)) == want
    else:
        # the skew block's chain is M's with each entry twice
        doubled = tuple(d for d in want for _ in range(2))
        assert lattice._nonsingular_chain(lattice._skew_block(M)) == doubled


def test_modular_chain_runs_in_int64_below_the_square_bound():
    # D^2 + D < 2^63 keeps int64 rows; past it the rows stay Python ints
    assert 3037000499 ** 2 + 3037000499 < 2**63 <= 3037000500 ** 2 + 3037000500
    for D, int64_rows in ((3037000499, True), (3037000500, False)):
        M = intmat([[D, 0], [0, 1]])
        chain, run = _traced(lattice._chain_mod, M, D)
        assert chain == chain_mod_lists(to_lists(M), D) == (1, D)
        assert ("a = a.astype(np.int64)" in run) is int64_rows


def test_modular_chain_keeps_dividing_pivot():
    # the pivot 2 divides the other entries of its row and column
    M = intmat([[2, 4, 6], [4, 2, 8], [6, 8, 2]])
    assert divisors(M) == _snf_chain(M) == (2, 2, 40)
    M = intmat([[3, 9], [6, 3]])
    assert divisors(M) == _snf_chain(M) == (3, 15)


def test_modular_chain_of_divisible_diagonal():
    assert divisors(intmat([[3, 0], [0, 12]])) == (3, 12)
    assert divisors(intmat([[12, 0], [0, 3]])) == (3, 12)
    assert divisors(intmat([[0, 4], [-4, 0]])) == (4, 4)


def test_modular_chain_one_by_one():
    assert divisors(intmat([[-5]])) == (5,)
    assert divisors(intmat([[1]])) == (1,)


def test_divisors_of_singular_square_keeps_snf_route():
    M = intmat([[2, 4], [1, 2]])
    assert divisors(M) == _snf_chain(M) == (1,)


def test_probe_seed_with_coefficient_blowup_finishes():
    # the restricted Gram here is 20 x 20; unreduced elimination never ended
    row = probe_trial(4, 12, 16, 4)
    assert tuple(row["computed_type"]) == (4,) * 5 + (8,) * 5
    assert row["agree"]


# -- exact products and determinants: int64 and Python-int paths agree ---------


def _object_matrix(rows, r, c):
    m = zeros(r, c)
    for i in range(r):
        for j in range(c):
            m[i, j] = rows[i][j]
    return m


@st.composite
def _factors(draw):
    r, k, c = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    bits = draw(st.sampled_from([3, 31, 62, 63, 90]))
    entry = st.integers(min_value=-(2**bits), max_value=2**bits)
    a = [[draw(entry) for _ in range(k)] for _ in range(r)]
    b = [[draw(entry) for _ in range(c)] for _ in range(k)]
    return _object_matrix(a, r, k), _object_matrix(b, k, c)


@settings(max_examples=300, deadline=None)
@given(_factors())
@example((zeros(0, 3), zeros(3, 2)))
@example((zeros(2, 0), zeros(0, 3)))
@example((zeros(2, 3), zeros(3, 0)))
def test_matmul_equals_object_product(factors):
    a, b = factors
    got = matmul(a, b)
    assert got.dtype == object and got.shape == (a.shape[0], b.shape[1])
    assert all(type(x) is int for x in got.flat)
    assert to_lists(got) == [
        [sum(a[i, t] * b[t, j] for t in range(a.shape[1])) for j in range(b.shape[1])]
        for i in range(a.shape[0])
    ]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=2**40),
    st.integers(min_value=-2, max_value=2),
)
def test_matmul_just_under_and_over_the_int64_bound(inner, x, offset):
    # every entry of the product is +-inner*x*y, which sits next to 2^63;
    # over the bound only the Python-int path is exact
    y = 2**63 // (inner * x) + offset
    assume(y >= 1)
    a = _object_matrix([[x] * inner, [-x] * inner], 2, inner)
    b = _object_matrix([[y] * inner], 1, inner).T
    assert to_lists(matmul(a, b)) == [[inner * x * y], [-inner * x * y]]


@pytest.mark.parametrize("big", [2**63, -(2**63) - 1, -(2**63)])
def test_matmul_and_det_take_python_ints_at_the_int64_edge(big):
    # 2^63 and -2^63-1 do not convert to int64; -2^63 does, but negating it
    # wraps, so an int64 product or determinant would read -2^63 for 2^63
    a = _object_matrix([[big, 1], [0, -1]], 2, 2)
    b = _object_matrix([[-1, 0], [0, 1]], 2, 2)
    assert lattice._int64(a) == (None, None)
    got = matmul(a, b)
    assert got.dtype == object and all(type(x) is int for x in got.flat)
    assert to_lists(got) == [[-big, 1], [0, -1]]
    assert det(a) == -big
    assert det(_object_matrix([[-1, 0], [1, big]], 2, 2)) == -big
    sparse_got = lattice._sparse_product(lattice.sparse(a), b)
    assert sparse_got.dtype == object and to_lists(sparse_got) == [[-big, 1], [0, -1]]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=2**40),
    st.integers(min_value=-2, max_value=2),
)
def test_sparse_product_just_under_and_over_the_int64_bound(inner, x, offset):
    # each row has `inner` nonzeros among 2 * inner columns, so the bound
    # counts the nonzeros of a row: int64 exactly while inner*x*y < 2^63
    y = 2**63 // (inner * x) + offset
    assume(y >= 1)
    s = lattice.sparse(
        _object_matrix([[x] * inner + [0] * inner, [0] * inner + [-x] * inner], 2, 2 * inner)
    )
    b = _object_matrix([[y] * 2 * inner], 1, 2 * inner).T
    got = lattice._sparse_product(s, b)
    assert to_lists(got) == [[inner * x * y], [-inner * x * y]]
    assert (got.dtype == np.int64) == (inner * x * y < 2**63)


@settings(max_examples=200, deadline=None)
@given(_factors(), st.integers(min_value=1, max_value=9))
def test_sparse_product_equals_matmul_in_every_chunking(factors, gather):
    # a small gather budget splits the nonzeros of one row across chunks
    a, b = factors
    s = lattice.sparse(a)
    assert s.vals.size == sum(1 for x in a.flat if x)
    previous, lattice._GATHER = lattice._GATHER, gather
    try:
        got = lattice._sparse_product(s, b)
    finally:
        lattice._GATHER = previous
    assert got.shape == (a.shape[0], b.shape[1])
    assert got.T.flags.c_contiguous  # surface reshapes the transpose in place
    assert to_lists(got) == to_lists(matmul(a, b))


@st.composite
def _det_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    bits = draw(st.sampled_from([2, 20, 40, 70]))
    entry = st.integers(min_value=-(2**bits), max_value=2**bits)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    shape = draw(st.sampled_from(["any", "singular", "zero_pivot"]))
    if shape == "singular" and n >= 2:
        rows[-1] = [draw(st.integers(-3, 3)) * x for x in rows[0]]
    if shape == "zero_pivot" and n >= 1:
        rows[0][0] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(_det_inputs())
@example([])
@example([[7]])
@example([[0, 1], [1, 0]])
@example([[0, 2], [0, 3]])
@example([[1, 2], [2, 4]])
def test_det_matches_fraction_free_and_cofactor(rows):
    n = len(rows)
    got = det(_object_matrix(rows, n, n))
    assert type(got) is int
    assert got == det_fraction_free(rows)
    if n <= 4:
        assert got == det_cofactor(rows)


@pytest.mark.parametrize("big", [2**62, 2**63 - 2, -(2**63 - 2), 2**63 - 1, -(2**63 - 1), 2**70])
def test_eye_minus_at_the_int64_edge(big):
    x = lattice.eye_minus(intmat([[big, 3], [-5, 1]]))
    assert to_lists(x) == [[1 - big, -3], [5, 0]]
    assert (x.dtype == object) == (abs(big) + 1 >= 2**63)
    assert to_lists(lattice.eye_minus(x)) == [[big, 3], [-5, 1]]


def test_det_accepts_int64_input():
    M = np.array([[2, 1], [7, 4]], dtype=np.int64)
    assert det(M) == 1


# -- the vectorised Smith elimination against the list reference ---------------

_WANTS = [w for k in range(4) for w in itertools.combinations(("u", "uinv", "v"), k)]


def _working_arrays(*mats) -> bool:
    """Whether ``_eliminate``'s arrays are what it works on: one width of
    the ladder (int16, int32 or int64) shared by every array, or all object
    arrays of Python ints (they widen and switch together)."""
    if mats[0].dtype in lattice._LIMIT and all(mat.dtype == mats[0].dtype for mat in mats):
        return True
    return all(mat.dtype == object and all(type(x) is int for x in mat.flat) for mat in mats)


def _assert_engines_agree(rows, m, n):
    """Equal D, rank and transforms for every ``want``, as working arrays;
    the public wrappers hand out Python ints."""
    ref = _snf_state(_object_matrix(rows, m, n))
    transforms = {"u": ref.u, "uinv": ref.uinv, "v": ref.v}
    rank = sum(1 for i in range(min(m, n)) if ref.a[i][i] != 0)
    for want in _WANTS:
        d, r, *got = lattice._eliminate(_object_matrix(rows, m, n), want)
        assert (to_lists(d), r) == (ref.a, rank)
        assert [to_lists(mat) for mat in got] == [transforms[name] for name in want]
        assert _working_arrays(d, *got)
    mat = _object_matrix(rows, m, n)
    for out in (image(mat), saturate(mat), kernel(mat), *snf(mat)):
        assert out.dtype == object and all(type(x) is int for x in out.flat)


@st.composite
def _elimination_inputs(draw):
    m, n = (draw(st.integers(min_value=0, max_value=6)) for _ in range(2))
    # small entries whose pivots often fail to divide their line; large ones
    # whose quotients push the elimination past int64, or start past it
    bits = draw(st.sampled_from([0, 0, 40, 61, 70]))
    small = st.integers(min_value=-9, max_value=9)
    entry = st.one_of(small, st.integers(min_value=-(2**bits), max_value=2**bits))
    return [[draw(entry if bits else small) for _ in range(n)] for _ in range(m)]


@settings(max_examples=300, deadline=None)
@given(_elimination_inputs())
@example([])
@example([[], [], []])
@example([[-4]])
@example([[0]])
@example([[2], [3]])
@example([[2, 3]])
@example([[6, 4], [4, 6]])
def test_elimination_matches_list_reference(rows):
    m = len(rows)
    n = len(rows[0]) if rows else 0
    _assert_engines_agree(rows, m, n)


def _traced(fn, *args):
    """``(fn(*args), lines)``: the stripped source lines of ``fn``, nested
    functions included, in the order they ran."""
    src, start = inspect.getsourcelines(fn)
    code_file = fn.__code__.co_filename
    run = []

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != code_file:
            return None
        if event == "line" and start <= frame.f_lineno < start + len(src):
            run.append(src[frame.f_lineno - start].strip())
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        out = fn(*args)
    finally:
        sys.settrace(previous)
    return out, run


def _lines_run(rows, m, n, want=("u", "uinv", "v")):
    """Stripped source lines of ``lattice._eliminate`` in the order they ran
    on the matrix."""
    return _traced(lattice._eliminate, _object_matrix(rows, m, n), want)[1]


_EUCLID_SWAP = "swap(axis, int(idx[k - 1]), t)"
_UPDATE = "y[idx] -= q[:, None] * y[t]"
_RESCAN = "bound = max(_maxabs(y) for y in x.values())"
_WIDEN = "growth = 1 + summed * int(np.abs(q).max())"
_SWITCH = "x[k] = _pyints(x[k])"


def test_elimination_swaps_in_a_remainder_while_clearing_a_column():
    rows = [[2], [3]]  # 2 does not divide 3: row operations bring in 1
    assert _EUCLID_SWAP in _lines_run(rows, 2, 1)
    assert to_lists(lattice._eliminate(_object_matrix(rows, 2, 1))[0]) == [[1], [0]]
    _assert_engines_agree(rows, 2, 1)


def test_elimination_swaps_in_a_remainder_while_clearing_a_row():
    rows = [[2, 3]]
    assert _EUCLID_SWAP in _lines_run(rows, 1, 2)
    assert to_lists(lattice._eliminate(_object_matrix(rows, 1, 2))[0]) == [[1, 0]]
    _assert_engines_agree(rows, 1, 2)


def test_elimination_adds_a_row_the_pivot_does_not_divide():
    rows = [[2, 0], [0, 3]]
    run = _lines_run(rows, 2, 2)
    assert any(line.startswith("update(0, [t], np.array([-1])") for line in run)
    assert to_lists(lattice._eliminate(_object_matrix(rows, 2, 2))[0]) == [[1, 0], [0, 6]]
    _assert_engines_agree(rows, 2, 2)


_REMAINDER_SCAN = "bad = np.flatnonzero(vals % p)"
_DIVISIBILITY_SCAN = "bad = np.flatnonzero((rest % a[t, t] != 0).any(axis=1))"


@pytest.mark.parametrize("rows", [[[1, 2, -3], [3, 5, -4], [-2, -8, 27]], [[-1, 4], [3, -11]]])
def test_elimination_at_unit_pivots_scans_no_remainders(rows):
    # every pivot is +-1: it divides every line and block, so neither the
    # remainders of a line nor the divisibility of the block are scanned
    n = len(rows)
    for want in _WANTS:
        run = _lines_run(rows, n, n, want)
        assert _UPDATE in run
        assert _REMAINDER_SCAN not in run and _DIVISIBILITY_SCAN not in run
    _assert_engines_agree(rows, n, n)


def test_elimination_scans_remainders_at_a_pivot_of_two():
    run = _lines_run([[2, 4], [6, 3]], 2, 2)
    assert _REMAINDER_SCAN in run and _DIVISIBILITY_SCAN in run
    _assert_engines_agree([[2, 4], [6, 3]], 2, 2)


def test_elimination_switches_to_python_ints_mid_elimination():
    # steps 0 and 1 stay small; the quotient 2^61 // 3 of step 2 would wrap
    rows = [[1, 1, 0, 0], [1, 2, 0, 0], [0, 0, 3, 2**61]]
    assert max(abs(x) for row in rows for x in row) < 2**63
    for want in _WANTS:
        run = _lines_run(rows, 3, 4, want)
        assert _SWITCH in run
        assert _UPDATE in run[: run.index(_SWITCH)]  # an int64 update ran first
    _assert_engines_agree(rows, 3, 4)


def test_elimination_bound_counts_every_line_of_an_update():
    # U^-1 sums k columns times their quotients: with four quotients 2^31
    # the bound 2^31 * (1 + 4 * 2^31) passes 2^63, with one it does not
    assert _SWITCH in _lines_run([[1], [2**31], [2**31], [2**31], [2**31]], 5, 1)
    assert _SWITCH not in _lines_run([[1], [2**31]], 2, 1)


def test_elimination_stays_in_int64_on_small_entries():
    assert _SWITCH not in _lines_run([[6, 4, 9], [4, 6, 1]], 2, 3)


def test_elimination_of_empty_and_one_by_one_shapes():
    for m, n in ((0, 3), (3, 0), (0, 0)):
        d, r, u, uinv, v = lattice._eliminate(zeros(m, n), ("u", "uinv", "v"))
        assert (d.shape, r) == ((m, n), 0)
        assert to_lists(u) == to_lists(uinv) == to_lists(eye(m))
        assert to_lists(v) == to_lists(eye(n))
    d, r, u, uinv, v = lattice._eliminate(intmat([[-4]]), ("u", "uinv", "v"))
    assert (to_lists(d), r, to_lists(u), to_lists(uinv), to_lists(v)) == (
        [[4]], 1, [[-1]], [[-1]], [[1]])
    d, r = lattice._eliminate(intmat([[0]]))
    assert (to_lists(d), r) == ([[0]], 0)


def test_elimination_rescans_where_the_carried_bound_crosses_int64():
    # each update by quotient 1 doubles the carried bound: 2^61 -> 2^62 on
    # column 0, then 2^63 on row 0, where a scan finds 2^61 - 1 and the
    # elimination stays in int64
    rows = [[1, 1], [1, 2**61]]
    for want in _WANTS:
        run = _lines_run(rows, 2, 2, want)
        # a unit step zeroes row t of the matrix directly, but widens the
        # bound by its quotients all the same
        assert run.count(_WIDEN) >= 2
        assert _RESCAN in run[run.index(_UPDATE) + 1:]
        assert _SWITCH not in run
    _assert_engines_agree(rows, 2, 2)


def test_elimination_switches_after_a_rescan_that_confirms_the_bound():
    # the first update doubles 2^62: the carried bound fails, the scan finds
    # 2^62 again, and only then does every array go over to Python ints
    rows = [[1, 1], [1, 2**62]]
    for want in _WANTS:
        run = _lines_run(rows, 2, 2, want)
        assert _RESCAN in run and _SWITCH in run
        assert run.index(_RESCAN) < run.index(_SWITCH)
        assert _UPDATE not in run[: run.index(_SWITCH)]
    _assert_engines_agree(rows, 2, 2)


_OFF_PIVOT_SCAN = 'idx = lines("a", axis)[:, t].nonzero()[0]'
_RAVEL = "flat = a[t:, t:].ravel()"


@pytest.mark.parametrize("rows", [[[1, 2, -3], [3, 5, -4], [-2, -8, 27]], [[-1, 4], [3, -11]]])
def test_elimination_unit_step_scans_each_line_once_and_never_ravels(rows):
    # at a unit pivot the column is cleared by one row update and the row
    # is zeroed: one scan of each line, no remainder scan, no rescan of a
    # cleared line, and in int64 the pivot search copies no block
    n = len(rows)
    for want in _WANTS:
        run = _lines_run(rows, n, n, want)
        assert run.count(_OFF_PIVOT_SCAN) == 2 * n
        assert _REMAINDER_SCAN not in run and _RAVEL not in run
        assert _SWITCH not in run
    _assert_engines_agree(rows, n, n)


def test_elimination_rescans_only_after_a_swapped_in_remainder():
    # [[2, 4], [6, 12]]: pivot 2 divides its column and its row, so each is
    # scanned once; in [[2, 3]] the row clear swaps in the remainder 1, and
    # the step goes back to its column
    run = _lines_run([[2, 4], [6, 12]], 2, 2)
    assert _EUCLID_SWAP not in run and _REMAINDER_SCAN in run
    assert run.count(_OFF_PIVOT_SCAN) == 2
    run = _lines_run([[2, 3]], 1, 2)
    assert _EUCLID_SWAP in run
    assert run.count(_OFF_PIVOT_SCAN) == 4  # row, then column and row again
    for rows in ([[2, 4], [6, 12]], [[2, 3]]):
        _assert_engines_agree(rows, len(rows), len(rows[0]))


@st.composite
def _carried_inputs(draw):
    rows = draw(_elimination_inputs())
    k = draw(st.integers(min_value=0, max_value=3))
    bits = draw(st.sampled_from([3, 40, 70]))
    entry = st.integers(min_value=-(2**bits), max_value=2**bits)
    return rows, [[draw(entry) for _ in range(k)] for _ in rows], k


@settings(max_examples=200, deadline=None)
@given(_carried_inputs())
@example(([[1, 1], [1, 2**61]], [[1], [2**62]], 1))
@example(([[2, 3], [4, 5]], [[2**70, 1], [-3, 2**63]], 2))
@example(([[], []], [[5], [-7]], 1))
def test_elimination_carries_rhs_as_u_times_it(case):
    rows, rhs, k = case
    m = len(rows)
    n = len(rows[0]) if rows else 0
    _, _, u = lattice._eliminate(_object_matrix(rows, m, n), ("u",))
    expected = to_lists(matmul(u, _object_matrix(rhs, m, k)))
    for want in _WANTS:
        plain = lattice._eliminate(_object_matrix(rows, m, n), want)
        *same, carried = lattice._eliminate(
            _object_matrix(rows, m, n), want, _object_matrix(rhs, m, k))
        assert same[1] == plain[1]
        assert [to_lists(x) for x in same[:1] + same[2:]] == [
            to_lists(x) for x in plain[:1] + plain[2:]]
        assert _working_arrays(*same[:1], *same[2:], carried)
        assert to_lists(carried) == expected


@st.composite
def _systems(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=0, max_value=5))
    k = draw(st.integers(min_value=1, max_value=3))
    small = st.integers(min_value=-6, max_value=6)
    a = [[draw(small) for _ in range(n)] for _ in range(m)]
    if draw(st.booleans()):  # b in the span of a
        x = [[draw(small) for _ in range(k)] for _ in range(n)]
        b = [[sum(a[i][l] * x[l][j] for l in range(n)) for j in range(k)] for i in range(m)]
    else:
        b = [[draw(small) for _ in range(k)] for _ in range(m)]
    return _object_matrix(a, m, n), _object_matrix(b, m, k)


@settings(max_examples=200, deadline=None)
@given(_systems())
def test_solve_exact_and_contains_match_solving_through_u(system):
    a, b = system
    assert contains(a, b) is contains_via_u(a, b)
    if not contains_via_u(a, b):
        with pytest.raises(ValueError, match="no integral solution"):
            solve_exact(a, b)
        return
    x = solve_exact(a, b)
    assert to_lists(x) == solve_exact_via_u(a, b)
    assert mat_equal(matmul(a, x), b)
    assert [int(v) for v in solve_exact(a, b[:, 0])] == [row[0] for row in to_lists(x)]


def test_contains_forms_no_transform(monkeypatch):
    calls = []
    engine = lattice._eliminate

    def spy(mat, want=(), rhs=None):
        calls.append(want)
        return engine(mat, want, rhs)

    monkeypatch.setattr(lattice, "_eliminate", spy)
    assert contains(intmat([[2, 0], [0, 3]]), intmat([[4], [-3]]))
    assert not contains(intmat([[2, 0], [0, 3]]), intmat([[1], [0]]))
    assert calls == [(), ()]


@pytest.mark.parametrize("call", [
    lambda a, b: contains(a, b),
    lambda a, b: lattices_equal(a, b),
    lambda a, b: lattices_equal(b, a),
    lambda a, b: solve_exact(a, b),
    lambda a, b: solve_exact(a, b[:, 0]),
])
def test_ambient_rank_mismatch_raises_before_any_elimination(call, monkeypatch):
    def no_elimination(*args):
        raise AssertionError("eliminated a mismatched pair")

    monkeypatch.setattr(lattice, "_eliminate", no_elimination)
    with pytest.raises(ValueError, match="ambient rank mismatch"):
        call(intmat([[1, 0], [0, 1], [0, 0]]), intmat([[1], [0]]))


# -- det as the Pfaffian of its skew block -------------------------------------


def _lu_rows(diag, lower, upper):
    """Rows of L U for L unit lower triangular with ``lower[i][j]`` below the
    diagonal and U upper triangular with ``diag`` on the diagonal and
    ``upper[i][j]`` above it. Its leading minor of order k + 1 is
    diag[0] * ... * diag[k], the pivot of step k of a fraction-free
    elimination: a run of unit entries in ``diag`` is a run of unit pivots,
    and each -1 a change of sign."""
    n = len(diag)
    L = [[1 if i == j else lower[i][j] if j < i else 0 for j in range(n)] for i in range(n)]
    U = [[diag[i] if i == j else upper[i][j] if j > i else 0 for j in range(n)]
         for i in range(n)]
    return [[sum(L[i][k] * U[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@st.composite
def _unit_run_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    unit = st.sampled_from([1, -1])
    diag = [draw(st.one_of(unit, unit, unit, st.sampled_from([2, -2, 3, -6])))
            for _ in range(n)]
    small = st.integers(min_value=-3, max_value=3)
    lower, upper = ([[draw(small) for _ in range(n)] for _ in range(n)] for _ in range(2))
    return diag, lower, upper


@settings(max_examples=300, deadline=None)
@given(_unit_run_inputs())
@example(([1, -1, 1], [[0] * 3, [2, 0, 0], [1, -3, 0]], [[0, 1, 2], [0, 0, -1], [0] * 3]))
@example(([-1, 1, 2, -1], [[1] * 4] * 4, [[2] * 4] * 4))
def test_det_over_unit_pivots_matches_fraction_free(case):
    diag, lower, upper = case
    rows = _lu_rows(diag, lower, upper)
    n = len(rows)
    assert det(_object_matrix(rows, n, n)) == det_fraction_free(rows) == prod(diag)


_EDGES = [2**15 - 1, 2**15, 2**31 - 1, 2**63 - 1]


@st.composite
def _width_edge_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    edge = st.sampled_from(_EDGES).flatmap(lambda x: st.sampled_from([x, -x]))
    entry = st.one_of(edge, st.integers(min_value=-3, max_value=3))
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        rows[-1] = [draw(st.integers(-2, 2)) * x for x in rows[0]]  # singular
    return rows


@settings(max_examples=400, deadline=None)
@given(_width_edge_inputs())
@example([[2**15 - 1, 1], [1, 2**15 - 1]])
@example([[2**15, -(2**15)], [2**15 - 1, 2**15]])
@example([[2**31 - 1, 1, 0], [1, 2**31 - 1, 1], [0, 1, -(2**31 - 1)]])
@example([[2**63 - 1, 2], [-(2**63 - 1), 2**63 - 1]])
@example([[1, 2**15 - 1, 0], [2**15 - 1, 3, 2**15], [0, 2**15, 1]])
def test_det_at_the_width_edges_matches_fraction_free(rows):
    n = len(rows)
    assert det(_object_matrix(rows, n, n)) == det_fraction_free(rows)
    assert det(np.array(rows, dtype=object)) == det_fraction_free(rows)


def test_narrowest_width_holds_its_bound():
    assert lattice._narrowest(0) == np.int16
    assert lattice._narrowest(2**15 - 1) == np.int16
    assert lattice._narrowest(2**15) == np.int32
    assert lattice._narrowest(2**31 - 1) == np.int32
    assert lattice._narrowest(2**31) == np.int64
    assert lattice._narrowest(2**63 - 1) == np.int64


def _permutation_sign(perm):
    inversions = sum(perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm)))
    return (-1) ** inversions


@pytest.mark.parametrize("n", range(8))
def test_det_restores_the_sign_of_the_skew_block_at_every_order(n):
    # Pf [[0, M], [-M^T, 0]] = (-1)^(n(n-1)/2) det M: the block of the
    # identity has Pfaffian +1 at n = 0, 1, 4, 5 and -1 at n = 2, 3, 6, 7
    assert lattice.pfaffian(lattice._skew_block(eye(n))) == (-1) ** (n * (n - 1) // 2)
    assert det(eye(n)) == 1
    assert det(-eye(n)) == (-1) ** n
    rng = random.Random(n)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    assert det(_object_matrix(rows, n, n)) == _permutation_sign(perm)
    for _ in range(10):
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert det(_object_matrix(rows, n, n)) == det_fraction_free(rows)


def test_det_runs_one_pfaffian_of_twice_its_order(monkeypatch):
    orders = []
    real = lattice.pfaffian
    monkeypatch.setattr(lattice, "pfaffian", lambda g: orders.append(g.shape) or real(g))
    for n in range(5):
        orders.clear()
        rows = [[(3 * i + 5 * j) % 7 - 3 for j in range(n)] for i in range(n)]
        assert det(_object_matrix(rows, n, n)) == det_fraction_free(rows)
        assert orders == [(2 * n, 2 * n)]


def test_divisors_of_a_nonsingular_square_runs_one_pfaffian_and_no_elimination(monkeypatch):
    def no_elimination(*args):
        raise AssertionError("Smith elimination ran on a nonsingular square")

    orders = []
    real = lattice.pfaffian
    monkeypatch.setattr(lattice, "_eliminate", no_elimination)
    monkeypatch.setattr(lattice, "pfaffian", lambda g: orders.append(len(g)) or real(g))
    for M, chain in [
        (intmat([[2, 4, 6], [4, 2, 8], [6, 8, 2]]), (2, 2, 40)),
        (intmat([[0, 4], [-4, 0]]), (4, 4)),
        (intmat([[-5]]), (5,)),
    ]:
        orders.clear()
        assert divisors(M) == chain
        assert orders == [2 * len(M)]


@pytest.mark.parametrize("fn", [det, lattice.pfaffian], ids=["det", "pfaffian"])
@pytest.mark.parametrize(
    "bad",
    [zeros(0, 3), zeros(3, 0), zeros(2, 3), np.array([]), np.array([1, 2]), np.array(5),
     np.zeros((2, 2, 2), dtype=np.int64)],
    ids=["0x3", "3x0", "2x3", "empty 1-d", "1-d", "0-d", "3-d"],
)
def test_det_and_pfaffian_take_only_a_square_matrix(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)


# -- the Pfaffian: skew elimination with 2 x 2 pivots on the width ladder ------

_PF_WIDEN = "a = a.astype(_narrowest(need))"
_PF_RESCAN = "bound = _maxabs(a[t + 2:, t + 2:])"
_PF_SWITCH = "a = a.astype(object)"
_NEAR_2_70 = [2**70 - 1, 2**70, 2**70 + 3]


@st.composite
def _alternating_inputs(draw):
    """An alternating matrix of order 0 to 10 as rows of Python ints, its
    entries in [-3, 3] or near +-2^70 (the Python-int path) or at an edge
    of the width ladder, sometimes with a zero row and column."""
    n = draw(st.integers(min_value=0, max_value=10))
    big = st.sampled_from(_NEAR_2_70 + _LADDER_EDGES).flatmap(
        lambda x: st.sampled_from([x, -x]))
    small = st.integers(min_value=-3, max_value=3)
    entry = st.one_of(small, small, small, big) if draw(st.booleans()) else small
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = draw(entry)
            rows[j][i] = -rows[i][j]
    if n and draw(st.integers(min_value=0, max_value=4)) == 0:
        z = draw(st.integers(min_value=0, max_value=n - 1))
        for k in range(n):
            rows[z][k] = rows[k][z] = 0
    return rows


@settings(max_examples=300, deadline=None)
@given(_alternating_inputs())
@example([])
@example([[0, 0, 1], [0, 0, 2], [-1, -2, 0]])  # odd order
@example([[0, 0, 0, 0], [0, 0, 1, 2], [0, -1, 0, 3], [0, -2, -3, 0]])  # zero row
@example([[0, 0, 1, 2], [0, 0, 3, 4], [-1, -3, 0, 5], [-2, -4, -5, 0]])  # zero pivot
@example([[0, 2**70, 1, 0], [-(2**70), 0, 0, 1], [-1, 0, 0, 2**70], [0, -1, -(2**70), 0]])
def test_pfaffian_matches_the_expansion_and_squares_to_det(rows):
    n = len(rows)
    want = _oracles.pfaffian_expansion(rows)
    mat = _object_matrix(rows, n, n)
    assert lattice.pfaffian(mat) == want
    assert want * want == det_fraction_free(rows)
    assert to_lists(mat) == rows  # the input is left as it was
    if all(abs(x) < 2**63 for row in rows for x in row):
        for width in (np.int16, np.int32, np.int64):
            top = max((abs(x) for row in rows for x in row), default=0)
            if top < lattice._LIMIT[np.dtype(width)]:
                assert lattice.pfaffian(mat.astype(width)) == want


def test_pfaffian_of_odd_order_or_a_zero_row_is_zero():
    assert lattice.pfaffian(intmat([[0, 1, 2], [-1, 0, 3], [-2, -3, 0]])) == 0
    g = intmat([[0, 1, 0, 2], [-1, 0, 0, 3], [0, 0, 0, 0], [-2, -3, 0, 0]])
    assert lattice.pfaffian(g) == 0 == det_fraction_free(to_lists(g))
    assert lattice.pfaffian(zeros(0, 0)) == 1
    with pytest.raises(ValueError, match="non-square"):
        lattice.pfaffian(zeros(2, 3))


def test_pfaffian_widens_where_the_scanned_bound_fails_and_only_there():
    # entries 2^14 start in int16; step 0 (pivot 1) forms up to
    # 2^14 + 2 (2^14)^2, past int16 even after the scan, so the array goes
    # to int32, not int64; entries 2^40 start in int64 and go to Python
    # ints; small entries stay in int16 with no scan and no widening
    for x, widen, switch in [(2**14, True, False), (2**40, False, True), (1, False, False)]:
        rows = [[0, 1, x, 0], [-1, 0, 1, x], [-x, -1, 0, 1], [0, -x, -1, 0]]
        got, run = _traced(lattice.pfaffian, _object_matrix(rows, 4, 4))
        assert got == _oracles.pfaffian_expansion(rows)
        assert (_PF_WIDEN in run) == widen and (_PF_SWITCH in run) == switch
        assert (_PF_RESCAN in run) == (widen or switch)


def test_pfaffian_rescans_a_carried_bound_past_the_width_and_keeps_it():
    # step 0 (pivot 1, row 1 zero past it) leaves the block as it was but
    # carries y + 2 y^2 = 20100; step 1 (pivot 2) would form twice that,
    # past 2^15, so the block is scanned: its true maximum 1 keeps int16
    y = 100
    rows = [[0, 1, y, 0, 0, 0], [-1, 0, 0, 0, 0, 0], [-y, 0, 0, 2, 0, 0],
            [0, 0, -2, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 0, 0, 0, -1, 0]]
    got, run = _traced(lattice.pfaffian, _object_matrix(rows, 6, 6))
    assert got == _oracles.pfaffian_expansion(rows) == 2
    assert run.count(_PF_RESCAN) == 1 and _PF_WIDEN not in run


def test_pfaffian_of_a_spinor_gram_stays_in_int16(monkeypatch):
    # spinor Gram entries are -1, 0 and 1 and stay small through the unit
    # steps: after the input, every array scanned is int16, and each step
    # scans only its two pivot rows
    H = surface.build_all(induce(random_simple(5, 12, 16, 11), OrbitKind.SPINOR))
    g = H._gram64
    scanned = []
    real = lattice._maxabs
    monkeypatch.setattr(lattice, "_maxabs", lambda a: scanned.append(a) or real(a))
    assert abs(lattice.pfaffian(g)) == 1
    assert scanned[0] is g
    assert {a.dtype for a in scanned[1:]} == {np.dtype(np.int16)}
    assert [a.shape[0] for a in scanned[1:]] == [2] * (len(g) // 2 - 1)


def test_unimodularity_and_types_take_the_pfaffian_not_det(monkeypatch):
    # the homology build checks its Gram by the Pfaffian, and the type of
    # an alternating form reads its modulus off the Pfaffian: no det runs
    calls = []
    real = lattice.pfaffian

    def no_det(m):
        raise AssertionError("det ran on an alternating form")

    monkeypatch.setattr(lattice, "det", no_det)
    monkeypatch.setattr(lattice, "pfaffian", lambda g: calls.append(len(g)) or real(g))
    H = surface.build_all(induce(random_simple(4, 4, 8, 5), OrbitKind.SPINOR))
    assert calls == [H.rank]
    lat = H.sublattice(eye(H.rank))
    assert ptype(lat) == (1,) * (H.rank // 2)
    assert calls == [H.rank, H.rank]


# -- the elimination and the sparse product on the width ladder ----------------

_LADDER_EDGES = [2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 1]
_ELIM_WIDEN = "wider = _narrowest(need)"


def _ladder_entries(draw, count):
    edge = st.sampled_from(_LADDER_EDGES).flatmap(lambda x: st.sampled_from([x, -x]))
    entry = st.one_of(edge, st.integers(min_value=-3, max_value=3))
    return [draw(entry) for _ in range(count)]


@st.composite
def _ladder_systems(draw):
    m, n = (draw(st.integers(min_value=0, max_value=4)) for _ in range(2))
    k = draw(st.integers(min_value=0, max_value=2))
    rows = [_ladder_entries(draw, n) for _ in range(m)]
    rhs = [_ladder_entries(draw, k) for _ in range(m)]
    return rows, rhs, k, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_ladder_systems())
@example(([[2**15 - 1, 1], [1, 2**15 - 1]], [[1], [0]], 1, True))
@example(([[1, 2**15], [2**15, -(2**15)]], [[2**31], [-1]], 1, True))
@example(([[2**31 - 1, 2], [3, 2**31]], [[2**63 - 1], [2]], 1, False))
@example(([[1, 1], [1, 2**63 - 1]], [[], []], 0, False))
def test_elimination_at_the_width_edges_matches_list_reference(case):
    # entries at each rung's edge, so the start width, the widenings and the
    # switch to Python ints all occur; for every want, with and without a
    # right-hand side, the result is the list reference's
    rows, rhs, k, as_int64 = case
    m = len(rows)
    n = len(rows[0]) if rows else 0
    ref = _snf_state(_object_matrix(rows, m, n))
    transforms = {"u": ref.u, "uinv": ref.uinv, "v": ref.v}
    rank = sum(1 for i in range(min(m, n)) if ref.a[i][i] != 0)
    mat = _object_matrix(rows, m, n)
    if as_int64 and all(abs(x) < 2**63 for row in rows for x in row):
        mat = mat.astype(np.int64)
    for want in _WANTS:
        for carried in (None, _object_matrix(rhs, m, k)):
            d, r, *got = lattice._eliminate(mat, want, carried)
            assert (to_lists(d), r) == (ref.a, rank)
            if carried is not None:
                *got, ub = got
                assert to_lists(ub) == product_lists(ref.u, rhs)
                got.append(ub)
            assert [to_lists(x) for x in got[:len(want)]] == [transforms[w] for w in want]
            assert _working_arrays(d, *got)
    assert to_lists(mat) == rows  # the input is left as it was


def test_elimination_starts_at_the_narrowest_width_of_its_input():
    for top, width in ((2**15 - 1, np.int16), (2**15, np.int32), (2**31, np.int64)):
        d, _, u = lattice._eliminate(intmat([[top, 0], [0, 1]]), ("u",))
        assert d.dtype == u.dtype == width


def test_elimination_of_one_minus_delta_widens_int16_to_int32_once():
    # the image of 1 - delta at rank 258: entries and U^-1 start in int16,
    # and one scanned bound past 2^15 takes every array to int32 for good
    H = surface.build_all(induce(random_simple(5, 12, 16, 0), OrbitKind.SPINOR))
    delta = surface.induced_map_all(H, H, make_D(5).matrix)
    x = lattice.eye_minus(delta)
    assert lattice._narrowest(lattice._maxabs(x)) == np.int16
    (d, _, uinv), run = _traced(lattice._eliminate, x, ("uinv",))
    assert run.count(_ELIM_WIDEN) == 1 and _SWITCH not in run
    assert d.dtype == uinv.dtype == np.int32


@pytest.mark.parametrize("seed", range(4))
def test_image_of_one_minus_delta_rescans_its_arrays_rarely(monkeypatch, seed):
    # U^-1's bound is carried apart and raised by the one column an update
    # changes, so an update of k lines does not multiply it by 1 + k max|q|:
    # at rank 258 the whole arrays (the matrix and U^-1) are rescanned at
    # most nine times per image, where a shared bound rescanned them 15 to
    # 18 times
    H = surface.build_all(induce(random_simple(5, 12, 16, seed), OrbitKind.SPINOR))
    x = lattice.eye_minus(surface.induced_map_all(H, H, make_D(5).matrix))
    whole = []
    scan = lattice._maxabs

    def recording(a):
        if np.ndim(a) == 2:
            whole.append(a.shape)
        return scan(a)

    monkeypatch.setattr(lattice, "_maxabs", recording)
    got = image(x)
    monkeypatch.undo()
    # the input's conversion, then two arrays per rescan
    assert whole[0] == x.shape
    rescans = (len(whole) - 1) // 2
    assert 0 < rescans <= 9
    assert got.shape == (H.rank, 18)


def test_build_runs_no_elimination_and_holds_b_in_int16_units(monkeypatch):
    # the spinor build at rank 258 reads its cycle basis and class map off
    # the spanning tree and the dual tree: no Smith elimination, and B
    # reaches the Gram in int16 with entries -1, 0 and 1 only
    runs, seen = [], []
    gram = surface.HomologyModel._build_gram

    def counted(mat, want=(), rhs=None):
        runs.append(np.shape(mat))
        raise AssertionError("the build eliminated")

    def spy_gram(model, B):
        seen.append((B.dtype, set(np.unique(B).tolist())))
        return gram(model, B)

    monkeypatch.setattr(lattice, "_eliminate", counted)
    monkeypatch.setattr(surface.HomologyModel, "_build_gram", spy_gram)
    H = surface.build_all(induce(random_simple(5, 12, 16, 0), OrbitKind.SPINOR))
    assert H.rank == 258 and not runs
    assert seen == [(np.int16, {-1, 0, 1})]


@st.composite
def _ladder_products(draw):
    r, inner, c = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    a = [[x * draw(st.booleans()) for x in _ladder_entries(draw, inner)] for _ in range(r)]
    b = [_ladder_entries(draw, c) for _ in range(inner)]
    width = draw(st.sampled_from([None, np.int16, np.int32, np.int64]))
    return a, b, width


@settings(max_examples=300, deadline=None)
@given(_ladder_products())
@example(([[2**15 - 1, 1]], [[2**15 - 1], [1]], np.int16))
@example(([[2**15]], [[1]], np.int32))
@example(([[2**31 - 1, 0], [0, 2]], [[2**31 - 1, 1], [1, -(2**31 - 1)]], np.int32))
@example(([[2**63 - 1]], [[2]], np.int64))
def test_sparse_product_at_the_width_edges_matches_list_reference(case):
    # b given as an object array or already at a width of the ladder; the
    # product is at the narrowest width holding max|s| * max|b| * w, or
    # Python ints from 2^63
    a, b, width = case
    r, inner = len(a), len(b)
    c = len(b[0]) if b else 0
    bmat = _object_matrix(b, inner, c)
    if width is not None:
        if any(abs(x) >= lattice._LIMIT[np.dtype(width)] for row in b for x in row):
            return
        bmat = bmat.astype(width)
    s = lattice.sparse(_object_matrix(a, r, inner))
    got = lattice._sparse_product(s, bmat)
    assert to_lists(got) == product_lists(a, b)
    w = int(np.bincount(s.rows).max()) if s.rows.size else 0
    top_a = max((abs(x) for row in a for x in row), default=0)
    top_b = max((abs(x) for row in b for x in row), default=0)
    need = top_a * top_b * w
    assert got.dtype == (lattice._narrowest(need) if need < 2**63 else object)
    assert to_lists(bmat) == b  # the input is left as it was


# -- the divisor chain modulo a known exponent ---------------------------------


@settings(max_examples=200, deadline=None)
@given(_chain_inputs(), st.integers(min_value=1, max_value=64))
def test_chain_modulo_any_modulus_is_exact(case, modulus):
    # a modulus that the last divisor does not divide misses the product
    # check against |det| and falls back; one that it divides is kept
    M, alternating = case
    D = abs(det_fraction_free(to_lists(M)))
    want = chain_mod_lists(to_lists(M), D)
    if alternating:
        assert lattice._nonsingular_chain(M, modulus) == want
    else:
        assert lattice._nonsingular_chain(lattice._skew_block(M), modulus)[::2] == want


@pytest.mark.parametrize("modulus,tries", [(None, 1), (4, 1), (8, 1), (2, 2), (3, 2)])
def test_chain_modulo_the_exponent_falls_back_to_the_pfaffian(monkeypatch, modulus, tries):
    # type (1, 4): chain 1, 1, 4, 4, |det| 16 and Pfaffian 4, in a basis
    # that mixes the blocks
    U = intmat([[1, 1, 0, 2], [0, 1, 0, 0], [1, 0, 1, 0], [0, 3, 0, 1]])
    g = matmul(matmul(U.T, intmat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 4], [0, 0, -4, 0]])), U)
    moduli = []
    real = lattice._chain_mod
    monkeypatch.setattr(lattice, "_chain_mod", lambda m, D: moduli.append(D) or real(m, D))
    assert lattice._nonsingular_chain(g, modulus) == (1, 1, 4, 4)
    assert len(moduli) == tries
    if tries == 2:
        assert moduli == [modulus, 4]
    assert ptype(PolarizedLattice(g, eye(4), modulus)) == (1, 4)


def test_exponent_does_not_enter_lattice_equality():
    from dataclasses import fields

    assert [f.name for f in fields(PolarizedLattice) if f.compare] == ["gram", "basis"]
