"""Fiber-level correspondence matrices and their exact identities.

A correspondence between two covers of the same base is encoded by an
integer matrix indexed by the canonical fiber labels: entry ``[i][j]`` is
the multiplicity with which sheet i of the source maps to sheet j of the
destination. Composition in diagram order is plain matrix multiplication of
these coefficient matrices, and the transpose encodes the transposed
correspondence.

``check_identity`` verifies a catalog of exact matrix identities between the
distinguished correspondences of the subset (spinor) and signed-index
(vector) covers, either as abstract fiber matrices for any supported rank or
pushed to homology over the rational base, where the trace correspondences
induce zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import cover as _cover
from . import surface, weyl
from .errors import RankError, ScaleError, UnsupportedError
from .lattice import eye, intmat, mat_equal, to_lists, zeros
from .weyl import OrbitKind

FIBER_RANK_MAX = 6


@dataclass(frozen=True)
class FiberMatrix:
    """Integer correspondence matrix between two canonical orbits, checked on
    construction to commute with the signed-permutation group: with the
    reflections of its simple roots, which generate it."""

    n: int
    src_orbit: OrbitKind
    dst_orbit: OrbitKind
    matrix: np.ndarray

    def __post_init__(self):
        gens = [weyl.reflection(root, self.n) for root in weyl.simple_roots(self.n)]
        surface.check_equivariance(
            np.asarray(self.matrix, dtype=object),
            [weyl.perm_on_orbit(w, self.src_orbit) for w in gens],
            [weyl.perm_on_orbit(w, self.dst_orbit) for w in gens],
        )

    @property
    def degree(self):
        """Common row sum (transitivity forces it to be constant)."""
        return _degree(self.matrix)


def _degree(matrix) -> int:
    rows = [int(sum(row)) for row in matrix]
    if any(r != rows[0] for r in rows):
        raise AssertionError("row sums not constant on a transitive orbit")
    return rows[0]


def _require_rank(n: int, low: int = 2):
    if not low <= n <= FIBER_RANK_MAX:
        raise RankError(f"fiber matrices supported for rank {low}..{FIBER_RANK_MAX}")


def _subsets(n: int):
    return [set(lab.value) for lab in weyl.orbit_labels(OrbitKind.SPINOR, n)]


def make_D(n: int) -> FiberMatrix:
    """The subset-orbit correspondence weighting each pair by the size of the
    symmetric difference minus one; its induced endomorphism has exponent
    ``2**(n-1)``."""
    _require_rank(n)
    subs = _subsets(n)
    d = len(subs)
    m = zeros(d, d)
    for a in range(d):
        for b in range(d):
            if a != b:
                m[a, b] = len(subs[a] ^ subs[b]) - 1
    fm = FiberMatrix(n, OrbitKind.SPINOR, OrbitKind.SPINOR, m)
    if fm.degree != 2 ** (n - 1) * (n - 2) + 1:
        raise AssertionError("degree drifted from the closed form")
    return fm


def make_S0(n: int) -> FiberMatrix:
    """The incidence correspondence from the subset to the signed-index
    cover: a subset goes to its selected signed indices (members positively,
    non-members negated). The scaled incidence S = 2*S0 + n*J and the trace
    correspondences are built from it and the all-ones matrix J, which every
    group element fixes."""
    _require_rank(n)
    subs = _subsets(n)
    vec = [lab.value for lab in weyl.orbit_labels(OrbitKind.VECTOR, n)]
    s0 = zeros(len(subs), len(vec))
    for a, A in enumerate(subs):
        for j, v in enumerate(vec):
            if (v > 0 and v in A) or (v < 0 and -v not in A):
                s0[a, j] = 1
    return FiberMatrix(n, OrbitKind.SPINOR, OrbitKind.VECTOR, s0)


def make_Di(n: int, i: int) -> FiberMatrix:
    """Indicator of symmetric difference of size ``i+1`` on the subset orbit
    (the shell decomposition of the rank-4 correspondence)."""
    if n != 4:
        raise RankError("shell correspondences are defined for rank 4")
    if not 0 <= i <= 3:
        raise ValueError("shell index must lie in 0..3")
    subs = _subsets(n)
    d = len(subs)
    m = zeros(d, d)
    for a in range(d):
        for b in range(d):
            if len(subs[a] ^ subs[b]) == i + 1:
                m[a, b] = 1
    return FiberMatrix(n, OrbitKind.SPINOR, OrbitKind.SPINOR, m)


def sigma_matrix(n: int) -> np.ndarray:
    """Complementation permutation on the subset orbit (the sheet involution
    of the degree-2^n cover)."""
    subs = _subsets(n)
    full = set(range(1, n + 1))
    index = {tuple(sorted(s)): i for i, s in enumerate(subs)}
    m = zeros(len(subs), len(subs))
    for a, A in enumerate(subs):
        m[a, index[tuple(sorted(full - A))]] = 1
    return m


def negation_matrix(n: int) -> np.ndarray:
    """Sign-flip permutation on the signed-index orbit (the Prym involution
    of the degree-2n cover)."""
    labels = [lab.value for lab in weyl.orbit_labels(OrbitKind.VECTOR, n)]
    index = {v: i for i, v in enumerate(labels)}
    m = zeros(len(labels), len(labels))
    for i, v in enumerate(labels):
        m[i, index[-v]] = 1
    return m


def parity_incidence(n: int) -> np.ndarray:
    """Subset orbit -> parity orbit incidence (the degree-2 quotient map)."""
    subs = _subsets(n)
    m = zeros(len(subs), 2)
    for a, A in enumerate(subs):
        m[a, len(A) % 2] = 1
    return m


def parity_indicator(n: int, parity: int) -> np.ndarray:
    subs = _subsets(n)
    v = zeros(len(subs), 1)
    for a, A in enumerate(subs):
        if len(A) % 2 == parity % 2:
            v[a, 0] = 1
    return v


# ---------------------------------------------------------------------------
# orbit Gram matrices


@dataclass(frozen=True)
class OrbitGram:
    n: int
    weight: str
    scale: int
    gram: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=object)
        for i in range(g.shape[0]):
            if g[i, i] != -1:
                raise AssertionError("orbit gram diagonal must be -1")
            for j in range(g.shape[1]):
                if i != j and g[i, j] < 0:
                    raise AssertionError("orbit gram off-diagonal must be >= 0")


def _weight_vectors(n: int, weight: str):
    if weight == "vector":
        out = []
        for lab in weyl.orbit_labels(OrbitKind.VECTOR, n):
            v = [Fraction(0)] * n
            v[abs(lab.value) - 1] = Fraction(1 if lab.value > 0 else -1)
            out.append(tuple(v))
        return out
    if weight == "spinor":
        out = []
        for lab in weyl.orbit_labels(OrbitKind.SPINOR, n):
            inside = set(lab.value)
            out.append(
                tuple(
                    Fraction(-1, 2) if j in inside else Fraction(1, 2)
                    for j in range(1, n + 1)
                )
            )
        return out
    raise ValueError("weight must be 'vector' or 'spinor'")


def orbit_gram(n: int, weight: str, scale: int = -2):
    """Gram matrix of the extended weight orbit and the exponent of its
    correspondence.

    The form is ``scale * sum(x_i y_i)`` with a negative integer scale; the
    entries ``(pairing of orbit vectors) - (self pairing) - 1`` must come out
    integral, else the scale is rejected.
    """
    if scale >= 0:
        raise ScaleError("the form must be negative definite: scale < 0")
    vecs = _weight_vectors(n, weight)
    d = len(vecs)

    def form(x, y):
        return scale * sum(a * b for a, b in zip(x, y))

    self_pair = form(vecs[0], vecs[0])
    g = zeros(d, d)
    for i in range(d):
        for j in range(d):
            val = form(vecs[i], vecs[j]) - self_pair - 1
            if val.denominator != 1:
                raise ScaleError(
                    f"scale {scale} gives non-integral pairing {val} on the {weight} orbit"
                )
            g[i, j] = int(val)
    q = Fraction(-d) * self_pair / n
    if q.denominator != 1 or q <= 0:
        raise ScaleError(f"exponent {q} is not a positive integer")
    return OrbitGram(n=n, weight=weight, scale=scale, gram=g), int(q)


# ---------------------------------------------------------------------------
# identity catalog


@dataclass(frozen=True)
class IdentityResult:
    name: str
    letter: str
    n: int
    level: str
    passed: bool
    details: dict
    witness: dict


def _ones(r, c):
    return np.full((r, c), 1, dtype=object)


def _match_scalar(lhs, pattern):
    """Solve lhs == scalar * pattern; returns (scalar, ok)."""
    lhs = np.asarray(lhs, dtype=object)
    pattern = np.asarray(pattern, dtype=object)
    scalar = None
    for i in range(lhs.shape[0]):
        for j in range(lhs.shape[1]):
            if pattern[i, j]:
                scalar = int(lhs[i, j]) // int(pattern[i, j])
                break
        if scalar is not None:
            break
    if scalar is None:
        scalar = 0
    return scalar, mat_equal(lhs, scalar * pattern)


def _fiber_a(n):
    d, e = 1 << n, 2 * n
    T, T1, T2 = _ones(d, e), _ones(d, d), _ones(e, e)
    S = 2 * make_S0(n).matrix + n * T
    a1, ok1 = _match_scalar(S @ T.T, T1)
    a2, ok2 = _match_scalar(T @ S.T, T1)
    b1, ok3 = _match_scalar(T.T @ S, T2)
    b2, ok4 = _match_scalar(S.T @ T, T2)
    deg_s = _degree(S)
    deg_ts = int(sum(S[:, 0]))
    ok = ok1 and ok2 and ok3 and ok4 and a1 == a2 == deg_s and b1 == b2 == deg_ts
    return ok, {"a": a1, "b": b1, "deg S": deg_s, "deg tS": deg_ts}, {}


def _fiber_b(n):
    s0 = make_S0(n).matrix
    D = make_D(n).matrix
    d = 1 << n
    lhs = s0 @ s0.T
    rhs = eye(d) - D + (n - 1) * _ones(d, d)
    ok = mat_equal(lhs, rhs)
    return ok, {"coefficient": n - 1}, {} if ok else {"lhs": to_lists(lhs), "rhs": to_lists(rhs)}


def _fiber_c(n):
    s0 = make_S0(n).matrix
    e = 2 * n
    lhs = s0.T @ s0
    rhs = 2 ** (n - 2) * (eye(e) - negation_matrix(n)) + 2 ** (n - 2) * _ones(e, e)
    ok = mat_equal(lhs, rhs)
    return ok, {"coefficient": 2 ** (n - 2)}, {} if ok else {"lhs": to_lists(lhs)}


def _fiber_d(n):
    D = make_D(n).matrix
    sig = sigma_matrix(n)
    ok = mat_equal(sig @ D, D @ sig)
    return ok, {}, {} if ok else {"commutator": to_lists(sig @ D - D @ sig)}


def _fiber_e(n):
    D = make_D(n).matrix
    sig = sigma_matrix(n)
    d = 1 << n
    lhs = (eye(d) + sig) @ (D - eye(d))
    ok = mat_equal(lhs, (n - 2) * _ones(d, d))
    return ok, {"coefficient": n - 2}, {} if ok else {"lhs": to_lists(lhs)}


def _fiber_f(n):
    D = make_D(n).matrix
    d = 1 << n
    q = 2 ** (n - 1)
    lhs = (D - eye(d)) @ (D + (q - 1) * eye(d))
    m, ok = _match_scalar(lhs, _ones(d, d))
    return ok, {"exponent": q, "m": m}, {} if ok else {"lhs": to_lists(lhs)}


def _fiber_g(n):
    if n % 2 == 0:
        raise ValueError("parity pushforward identity needs odd rank")
    D = make_D(n).matrix
    d = 1 << n
    lhs = (D - eye(d)) @ parity_incidence(n)
    m, ok = _match_scalar(lhs, _ones(d, 2))
    expected = sum(comb(n, k) * (k - 1) for k in range(0, n + 1, 2))
    ok = ok and m == expected
    return ok, {"M": m, "binomial sum": expected}, {} if ok else {"lhs": to_lists(lhs)}


def _fiber_h(n):
    D = make_D(n).matrix
    d = 1 << n
    w = parity_indicator(n, 0) - parity_indicator(n, 1)
    lhs = (D + 7 * eye(d)) @ w
    ok = mat_equal(lhs, 8 * w)
    return ok, {"eigenvalue": 8}, {} if ok else {"lhs": to_lists(lhs)}


def _fiber_i(n):
    D = make_D(n).matrix
    ones = _ones(1 << n, 1)
    ok = True
    for p in (0, 1):
        v = parity_indicator(n, p)
        if not mat_equal(D @ v, 8 * ones + v):
            ok = False
    return ok, {"full fiber multiple": 8}, {}


def _fiber_j(n):
    D0 = make_Di(n, 0).matrix
    D1 = make_Di(n, 1).matrix
    sig = sigma_matrix(n)
    d = 1 << n
    lhs = (eye(d) + sig) @ (D0 - 2 * eye(d)) @ (D0 + 2 * eye(d))
    ok = mat_equal(lhs, 4 * D1)
    # the shells also reassemble the main correspondence
    total = zeros(d, d)
    for i in range(4):
        total = total + i * make_Di(n, i).matrix
    ok = ok and mat_equal(total, make_D(n).matrix)
    return ok, {"shell sum equals D": True}, {} if ok else {"lhs": to_lists(lhs)}


def _fiber_x(n):
    """Cross compositions of the scaled incidence with itself: both
    roundtrips equal minus-the-exponent times the other side's orbit gram
    plus a solved multiple of the trace, and the gram-shifted compositions
    collapse onto the trace."""
    d, e = 1 << n, 2 * n
    T = _ones(d, e)
    S = 2 * make_S0(n).matrix + n * T
    g_spin, q = orbit_gram(n, "spinor", scale=-2)
    g_vec, qprime = orbit_gram(n, "vector", scale=-2)
    lhs1 = S @ S.T + qprime * g_spin.gram
    d1, ok1 = _match_scalar(lhs1, _ones(d, d))
    lhs2 = S.T @ S + q * g_vec.gram
    d2, ok2 = _match_scalar(lhs2, _ones(e, e))
    lhs3 = S @ (g_vec.gram + qprime * eye(e))
    c1, ok3 = _match_scalar(lhs3, T)
    lhs4 = (g_spin.gram + q * eye(d)) @ S
    c2, ok4 = _match_scalar(lhs4, T)
    ok = ok1 and ok2 and ok3 and ok4
    details = {"d1": d1, "d2": d2, "c1": c1, "c2": c2, "q": q, "q'": qprime}
    return ok, details, {} if ok else {"lhs1": to_lists(lhs1)}


def _fiber_k(n):
    if n != 3:
        raise ValueError("split-case identity is a rank-3 statement")
    D = make_D(n).matrix
    d = 1 << n
    sig = sigma_matrix(n)
    # structural form in the split case: same-parity trace - identity + 2*sigma
    subs = _subsets(n)
    same = zeros(d, d)
    for a in range(d):
        for b in range(d):
            if len(subs[a]) % 2 == len(subs[b]) % 2:
                same[a, b] = 1
    ok = mat_equal(D, same - eye(d) + 2 * sig)
    # diagonal-type divisors are annihilated: (D - 1)(1 + sigma) u = 0 for
    # degree-zero u supported on one parity class
    evens = [a for a in range(d) if len(subs[a]) % 2 == 0]
    op = (D - eye(d)) @ (eye(d) + sig)
    for a in evens[1:]:
        u = zeros(d, 1)
        u[evens[0], 0] = 1
        u[a, 0] = -1
        if not mat_equal(op @ u, zeros(d, 1)):
            ok = False
    return ok, {}, {}


_FIBER_CHECKS = {
    "trace_products": ("a", lambda n: 2 <= n <= FIBER_RANK_MAX, _fiber_a),
    "s0_roundtrip_spinor": ("b", lambda n: 2 <= n <= FIBER_RANK_MAX, _fiber_b),
    "s0_roundtrip_vector": ("c", lambda n: 2 <= n <= FIBER_RANK_MAX, _fiber_c),
    "sigma_commutes_D": ("d", lambda n: 2 <= n <= FIBER_RANK_MAX, _fiber_d),
    "symmetrized_D_trace": ("e", lambda n: 2 <= n <= FIBER_RANK_MAX, _fiber_e),
    "quadratic_relation": ("f", lambda n: 2 <= n <= FIBER_RANK_MAX, _fiber_f),
    "parity_pushforward": ("g", lambda n: n in (3, 5), _fiber_g),
    "antidiagonal_eigenvalue": ("h", lambda n: n == 4, _fiber_h),
    "parity_pullback": ("i", lambda n: n == 4, _fiber_i),
    "cube_adjacency_square": ("j", lambda n: n == 4, _fiber_j),
    "split_diagonal_annihilation": ("k", lambda n: n == 3, _fiber_k),
    "cross_composition": ("x", lambda n: 2 <= n <= FIBER_RANK_MAX, _fiber_x),
}

_LETTER_ALIAS = {letter: name for name, (letter, _, _) in _FIBER_CHECKS.items()}

_HOMOLOGY_LETTERS = ("a", "b", "c", "d", "e", "f", "g", "j", "k")


def identity_names() -> list:
    return list(_FIBER_CHECKS)


def applicable_ranks(name: str) -> list:
    _, pred, _ = _FIBER_CHECKS[_canonical(name)]
    return [n for n in range(2, FIBER_RANK_MAX + 1) if pred(n)]


def _canonical(name: str) -> str:
    if name in _FIBER_CHECKS:
        return name
    if name in _LETTER_ALIAS:
        return _LETTER_ALIAS[name]
    raise KeyError(f"unknown identity {name!r}; known: {sorted(_FIBER_CHECKS)}")


def check_identity(name: str, n: int, level: str = "fiber", datum=None) -> IdentityResult:
    """Verify one catalog identity exactly.

    ``level="fiber"`` checks the abstract matrix identity at the given rank;
    ``level="homology"`` pushes it through a genus-0 datum (a seeded random
    simple one when none is given), where the trace terms vanish.
    """
    name = _canonical(name)
    letter, pred, fn = _FIBER_CHECKS[name]
    if not pred(n):
        raise RankError(f"identity {name} does not apply at rank {n}")
    if level == "fiber":
        passed, details, witness = fn(n)
        return IdentityResult(name, letter, n, level, passed, details, witness)
    if level != "homology":
        raise ValueError("level must be 'fiber' or 'homology'")
    if letter not in _HOMOLOGY_LETTERS:
        raise UnsupportedError(f"identity {name} has no homology content over the rational base")
    if datum is None:
        if letter == "k":
            datum = _cover.random_simple(3, 0, 8, seed=11)
        else:
            # dl >= 2n - 2 keeps g(C') = dl/2 - n + 1 nonnegative
            ds, dl = 4, max(2 * min(n, 4), 2 * n - 2)
            datum = _cover.random_simple(n, ds, dl, seed=11)
    passed, details, witness = _homology_check(letter, n, datum)
    return IdentityResult(name, letter, n, "homology", passed, details, witness)


def _homology_check(letter: str, n: int, datum):
    if datum.n != n:
        raise RankError(f"datum has rank {datum.n}, the identity was asked at rank {n}")
    if datum.base_genus != 0:
        raise UnsupportedError("homology checks run over the rational base only")
    HX = surface.build_all(_cover.induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(_cover.induce(datum, OrbitKind.VECTOR))
    ind = surface.induced_map_all
    g2x = HX.rank
    g2c = HC.rank
    Ix, Ic = eye(g2x), eye(g2c)
    details = {}
    if letter == "a":
        d, e = 1 << n, 2 * n
        t = ind(HX, HC, _ones(d, e))
        t1 = ind(HX, HX, _ones(d, d))
        t2 = ind(HC, HC, _ones(e, e))
        ok = (
            mat_equal(t, zeros(g2c, g2x))
            and mat_equal(t1, zeros(g2x, g2x))
            and mat_equal(t2, zeros(g2c, g2c))
        )
        details["trace maps vanish"] = ok
        return ok, details, {}
    delta = ind(HX, HX, make_D(n).matrix)
    if letter in ("b", "c"):
        s0_fiber = make_S0(n).matrix
        s0 = ind(HX, HC, s0_fiber)
        ts0 = ind(HC, HX, s0_fiber.T)
    if letter == "b":
        ok = mat_equal(ts0 @ s0, Ix - delta)
        return ok, {"relation": "ts0 s0 = 1 - delta"}, {}
    if letter == "c":
        iota = ind(HC, HC, negation_matrix(n))
        ok = mat_equal(s0 @ ts0, 2 ** (n - 2) * (Ic - iota))
        return ok, {"relation": "s0 ts0 = 2^(n-2)(1 - iota)"}, {}
    sig = ind(HX, HX, sigma_matrix(n))
    if letter == "d":
        ok = mat_equal(sig @ delta, delta @ sig)
        return ok, {}, {}
    if letter == "e":
        ok = mat_equal((delta - Ix) @ (Ix + sig), zeros(g2x, g2x))
        return ok, {"trace term vanishes": True}, {}
    if letter == "f":
        q = 2 ** (n - 1)
        ok = mat_equal((delta - Ix) @ (delta + (q - 1) * Ix), zeros(g2x, g2x))
        return ok, {"exponent": q}, {}
    if letter == "g":
        HY = surface.build_all(_cover.induce(datum, OrbitKind.PARITY))
        push = ind(HX, HY, parity_incidence(n))
        tau = ind(HY, HY, intmat([[0, 1], [1, 0]]))
        m = sum(comb(n, k) * (k - 1) for k in range(0, n + 1, 2))
        ok = mat_equal(push @ (delta - Ix), m * ((eye(HY.rank) + tau) @ push))
        return ok, {"M": m, "parity cover rank": HY.rank}, {}
    if letter == "j":
        d0 = ind(HX, HX, make_Di(4, 0).matrix)
        d1 = ind(HX, HX, make_Di(4, 1).matrix)
        ok = mat_equal((d0 + 2 * Ix) @ (d0 - 2 * Ix) @ (Ix + sig), 4 * d1)
        return ok, {}, {}
    if letter == "k":
        subs = _subsets(n)
        d = 1 << n
        same = zeros(d, d)
        for a in range(d):
            for b in range(d):
                if len(subs[a]) % 2 == len(subs[b]) % 2:
                    same[a, b] = 1
        same_ind = ind(HX, HX, same)
        ok = mat_equal(delta, same_ind - Ix + 2 * sig)
        ok = ok and mat_equal((delta - Ix) @ (Ix + sig), zeros(g2x, g2x))
        return ok, {"components": len(HX.parts)}, {}
    raise AssertionError(f"unhandled homology letter {letter}")
