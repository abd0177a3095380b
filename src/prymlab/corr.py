"""Fiber-level correspondence matrices and their exact identities.

A correspondence between two covers of the same base is encoded by an
integer matrix indexed by the label positions of ``weyl`` (a subset at its
bitmask, ``+-j`` at ``2(j-1)`` and ``2(j-1) + 1``): entry ``[i][j]`` is the
multiplicity with which sheet i of the source maps to sheet j of the
destination, and each matrix here is built from that mask and position
arithmetic. Composition in diagram order is plain matrix multiplication of
these coefficient matrices, and the transpose encodes the transposed
correspondence.

``check_identity`` verifies a catalog of exact identities between the
distinguished correspondences of the subset (spinor) and signed-index
(vector) covers. Each identity is stated once, over correspondences named in
one table, the identity and the trace J (the all-ones matrix), and one
evaluator runs it at either level: on the fiber matrices at any supported
rank, or on the maps they induce on the homology of a datum's covers over
the rational base. J stays in every statement; on homology it induces zero,
which identity ``a`` checks. ``prym`` states its scenarios, the duality
path and the probe over the same table, through one ``Evaluator`` per datum:
each cover is built and each named map induced at most once.

Identity ``x`` also reads the Grams of the two extended weight orbits, and
states them over the named correspondences too. For the form -2 times the
standard one, shifted to -1 on the diagonal, the subset pair (a, b) has
entry ``-2<v_a, v_b> + n/2 - 1 = |a ^ b| - 1``: the spinor Gram is D - 1,
with exponent 2^(n-1), that of P(X,delta). On signed indices the entry is
``1 - 2<u, v>``: the vector Gram is 2(iota - 1) + J, with exponent 4.
Everything here is integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import comb

import numpy as np

from . import cover as _cover
from . import surface, weyl
from .errors import RankError, UnknownIdentityError, UnsupportedError
from .lattice import eye, intmat, mat_equal, matmul, to_lists
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


def require_fiber_rank(n: int) -> None:
    """Raise ``RankError`` unless the fiber matrices exist at rank ``n``."""
    if not 2 <= n <= FIBER_RANK_MAX:
        raise RankError(f"fiber matrices supported for rank 2..{FIBER_RANK_MAX}")


def _spinor_matrix(n: int, entry) -> np.ndarray:
    """The subset-orbit matrix with entry ``entry(a ^ b, |a ^ b|)`` at
    masks (a, b), every pair at once: ``entry`` takes the grid of XORs and
    their popcounts, read off a table over the masks, as arrays. An object
    array of Python ints."""
    masks = np.arange(1 << n)
    xor = masks[:, None] ^ masks
    popcount = ((masks[:, None] >> np.arange(n)) & 1).sum(axis=1)
    return np.asarray(entry(xor, popcount[xor]), dtype=int).astype(object)


def make_D(n: int) -> FiberMatrix:
    """The subset-orbit correspondence weighting each pair by the size of the
    symmetric difference minus one; its induced endomorphism has exponent
    ``2**(n-1)``."""
    require_fiber_rank(n)
    m = _spinor_matrix(n, lambda xor, size: np.maximum(size - 1, 0))
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
    require_fiber_rank(n)
    # position p holds index p // 2 + 1, negated iff p is odd; mask a selects
    # it iff that index is a member exactly when p is even
    s0 = intmat([[(a >> (p >> 1) & 1) ^ (p & 1) for p in range(2 * n)] for a in range(1 << n)])
    return FiberMatrix(n, OrbitKind.SPINOR, OrbitKind.VECTOR, s0)


def make_Di(n: int, i: int) -> FiberMatrix:
    """Indicator of symmetric difference of size ``i+1`` on the subset orbit
    (the shell decomposition of the rank-4 correspondence)."""
    if n != 4:
        raise RankError("shell correspondences are defined for rank 4")
    if not 0 <= i <= 3:
        raise ValueError("shell index must lie in 0..3")
    m = _spinor_matrix(n, lambda xor, size: size == i + 1)
    return FiberMatrix(n, OrbitKind.SPINOR, OrbitKind.SPINOR, m)


def sigma_matrix(n: int) -> np.ndarray:
    """Complementation permutation on the subset orbit (the sheet involution
    of the degree-2^n cover)."""
    full = (1 << n) - 1
    return _spinor_matrix(n, lambda xor, size: xor == full)


def negation_matrix(n: int) -> np.ndarray:
    """Sign-flip permutation on the signed-index orbit (the Prym involution
    of the degree-2n cover): position p goes to p ^ 1."""
    return intmat([[int(q == p ^ 1) for q in range(2 * n)] for p in range(2 * n)])


def parity_incidence(n: int) -> np.ndarray:
    """Subset orbit -> parity orbit incidence (the degree-2 quotient map)."""
    return intmat([[int(a.bit_count() % 2 == p) for p in (0, 1)] for a in range(1 << n)])


def parity_indicator(n: int, parity: int) -> np.ndarray:
    return intmat([[int(a.bit_count() % 2 == parity % 2)] for a in range(1 << n)])


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
    """Solve lhs == scalar * pattern; returns (scalar, ok). The scalar is
    read off the first nonzero entry of the pattern in row-major order, by
    floor division, and is 0 for an all-zero pattern."""
    lhs = np.asarray(lhs, dtype=object)
    pattern = np.asarray(pattern, dtype=object)
    nonzero = np.flatnonzero(pattern)
    scalar = int(lhs.flat[nonzero[0]]) // int(pattern.flat[nonzero[0]]) if nonzero.size else 0
    return scalar, mat_equal(lhs, scalar * pattern)


# the orbits of the subset cover X, the signed-index cover C and the parity
# double cover
_X, _C, _Y = OrbitKind.SPINOR, OrbitKind.VECTOR, OrbitKind.PARITY

# the named correspondences: name -> (source orbit, destination orbit, fiber
# matrix at rank n, or the name of the correspondence whose fiber matrix
# this one's is the transpose of)
_CORRESPONDENCES = {
    "D": (_X, _X, lambda n: make_D(n).matrix),
    "S0": (_X, _C, lambda n: make_S0(n).matrix),
    "tS0": (_C, _X, "S0"),
    "sigma": (_X, _X, sigma_matrix),
    "iota": (_C, _C, negation_matrix),
    "P": (_X, _Y, parity_incidence),
    "tP": (_Y, _X, "P"),
    "tau": (_Y, _Y, lambda n: intmat([[0, 1], [1, 0]])),
    "D0": (_X, _X, lambda n: make_Di(n, 0).matrix),
    "D1": (_X, _X, lambda n: make_Di(n, 1).matrix),
    "same": (_X, _X, lambda n: matmul(parity_incidence(n), parity_incidence(n).T)),
}


class Evaluator:
    """Evaluates statements over the named correspondences at one level.
    Without a datum a named correspondence is its fiber matrix, and
    composition in diagram order is the matrix product. With a datum it is
    the map induced on the homology of the datum's covers, each induced and
    built on first use, and composition runs right to left. Each fiber
    matrix is made once, a transpose read off the matrix it transposes,
    and each named map is made once and kept read-only, since every later
    statement reads the same array. The trace J from one orbit to another
    is the all-ones matrix, evaluated the same way."""

    def __init__(self, n: int, datum=None):
        self.n = n
        self.datum = datum
        self.fiber = datum is None
        self._models = {}
        self._covers = {}
        self._fibers = {}
        self._named = {}

    def cover_model(self, orbit: OrbitKind) -> _cover.CoverModel:
        """The datum's cover of ``orbit``, induced once."""
        if orbit not in self._models:
            self._models[orbit] = _cover.induce(self.datum, orbit)
        return self._models[orbit]

    def cover(self, orbit: OrbitKind) -> surface.CoverHomology:
        if orbit not in self._covers:
            self._covers[orbit] = surface.build_all(self.cover_model(orbit))
        return self._covers[orbit]

    def _fiber(self, name: str):
        if name not in self._fibers:
            make = _CORRESPONDENCES[name][2]
            self._fibers[name] = self._fiber(make).T if isinstance(make, str) else make(self.n)
        return self._fibers[name]

    def _evaluate(self, src, dst, fiber):
        if self.fiber:
            return fiber
        return surface.induced_map_all(self.cover(src), self.cover(dst), fiber)

    def __call__(self, name: str):
        if name not in self._named:
            src, dst, _ = _CORRESPONDENCES[name]
            self._named[name] = self._evaluate(src, dst, self._fiber(name))
            self._named[name].setflags(write=False)
        return self._named[name]

    def trace(self, src: OrbitKind, dst: OrbitKind):
        size = (len(weyl.orbit_labels(src, self.n)), len(weyl.orbit_labels(dst, self.n)))
        return self._evaluate(src, dst, _ones(*size))

    def one(self, orbit: OrbitKind):
        if self.fiber:
            return eye(len(weyl.orbit_labels(orbit, self.n)))
        return eye(self.cover(orbit).rank)

    def then(self, *maps):
        """Composite of ``maps``, the first applied first."""
        return reduce(matmul, maps if self.fiber else maps[::-1])

    def verdict(self, ok: bool, details: dict, lhs):
        """The result triple; a failing fiber statement shows its left side."""
        return ok, details, {} if ok or not self.fiber else {"lhs": to_lists(lhs)}


def _a(ev):
    n = ev.n
    if not ev.fiber:
        ok = not any(ev.trace(s, t).any() for s, t in ((_X, _C), (_X, _X), (_C, _C)))
        return ok, {"trace maps vanish": ok}, {}
    T, T1, T2 = ev.trace(_X, _C), ev.trace(_X, _X), ev.trace(_C, _C)
    S = 2 * ev("S0") + n * T
    a1, ok1 = _match_scalar(matmul(S, T.T), T1)
    a2, ok2 = _match_scalar(matmul(T, S.T), T1)
    b1, ok3 = _match_scalar(matmul(T.T, S), T2)
    b2, ok4 = _match_scalar(matmul(S.T, T), T2)
    deg_s = _degree(S)
    deg_ts = int(sum(S[:, 0]))
    ok = ok1 and ok2 and ok3 and ok4 and a1 == a2 == deg_s and b1 == b2 == deg_ts
    return ok, {"a": a1, "b": b1, "deg S": deg_s, "deg tS": deg_ts}, {}


def _b(ev):
    n = ev.n
    lhs = ev.then(ev("S0"), ev("tS0"))
    ok = mat_equal(lhs, ev.one(_X) - ev("D") + (n - 1) * ev.trace(_X, _X))
    details = {"coefficient": n - 1} if ev.fiber else {"relation": "ts0 s0 = 1 - delta"}
    return ev.verdict(ok, details, lhs)


def _c(ev):
    q = 2 ** (ev.n - 2)
    lhs = ev.then(ev("tS0"), ev("S0"))
    ok = mat_equal(lhs, q * (ev.one(_C) - ev("iota")) + q * ev.trace(_C, _C))
    details = {"coefficient": q} if ev.fiber else {"relation": "s0 ts0 = 2^(n-2)(1 - iota)"}
    return ev.verdict(ok, details, lhs)


def _d(ev):
    lhs = ev.then(ev("D"), ev("sigma")) - ev.then(ev("sigma"), ev("D"))
    return ev.verdict(not lhs.any(), {}, lhs)


def _e(ev):
    n, one = ev.n, ev.one(_X)
    lhs = ev.then(one + ev("sigma"), ev("D") - one)
    ok = mat_equal(lhs, (n - 2) * ev.trace(_X, _X))
    details = {"coefficient": n - 2} if ev.fiber else {"trace term vanishes": True}
    return ev.verdict(ok, details, lhs)


def _f(ev):
    q, D, one = 2 ** (ev.n - 1), ev("D"), ev.one(_X)
    lhs = ev.then(D - one, D + (q - 1) * one)
    m, ok = _match_scalar(lhs, ev.trace(_X, _X))
    return ev.verdict(ok, {"exponent": q, "m": m} if ev.fiber else {"exponent": q}, lhs)


def _g(ev):
    n = ev.n
    m = sum(comb(n, k) * (k - 1) for k in range(0, n + 1, 2))
    lhs = ev.then(ev("D") - ev.one(_X), ev("P"))
    # P(1 + tau) is the trace from the subset orbit to the parity orbit
    ok = mat_equal(lhs, m * ev.then(ev("P"), ev.one(_Y) + ev("tau")))
    if ev.fiber:
        return ev.verdict(ok, {"M": m, "binomial sum": m}, lhs)
    return ev.verdict(ok, {"M": m, "parity cover rank": ev.cover(_Y).rank}, lhs)


def _h(ev):
    w = parity_indicator(ev.n, 0) - parity_indicator(ev.n, 1)
    lhs = matmul(ev("D") + 7 * ev.one(_X), w)
    return ev.verdict(mat_equal(lhs, 8 * w), {"eigenvalue": 8}, lhs)


def _i(ev):
    ok = all(
        mat_equal(matmul(ev("D"), v), 8 * _ones(1 << ev.n, 1) + v)
        for v in (parity_indicator(ev.n, 0), parity_indicator(ev.n, 1))
    )
    return ok, {"full fiber multiple": 8}, {}


def _j(ev):
    one, sig, d0, d1 = ev.one(_X), ev("sigma"), ev("D0"), ev("D1")
    lhs = ev.then(one + sig, d0 - 2 * one, d0 + 2 * one)
    ok = mat_equal(lhs, 4 * d1)
    # the shells also reassemble D = D1 + 2 D2 + 3 D3: with the identity they
    # sum to J, and D3 = sigma
    ok = ok and mat_equal(ev("D"), 2 * ev.trace(_X, _X) - 2 * one - 2 * d0 - d1 + sig)
    return ev.verdict(ok, {"shell sum equals D": True} if ev.fiber else {}, lhs)


def _k(ev):
    # structural form in the split case: same-parity trace - identity + 2*sigma
    ok = mat_equal(ev("D"), ev("same") - ev.one(_X) + 2 * ev("sigma"))
    # (1 + sigma)(D - 1) = J, so the diagonal-type divisors (degree zero on
    # one parity class) are annihilated
    ok = ok and _e(ev)[0]
    return ok, {} if ev.fiber else {"components": len(ev.cover(_X).parts)}, {}


def _x(ev):
    """Cross compositions of the scaled incidence S = 2 S0 + n T with
    itself: both roundtrips equal minus the exponent of one orbit times the
    other orbit's Gram plus a solved multiple of the trace, and the
    Gram-shifted compositions collapse onto the trace T.

    The Gram of an extended weight orbit pairs its weights by -2 times the
    standard product <,>, shifted to -1 on the diagonal: entry ``-2<v_a,
    v_b> + 2<v_a, v_a> - 1``, and its exponent is ``2 (orbit size) <v_a,
    v_a> / n``. A subset a is the spinor weight with coordinate -1/2 on its
    members and 1/2 elsewhere, so <v_a, v_b> = n/4 - |a ^ b|/2 and the
    entry is ``-2<v_a, v_b> + n/2 - 1 = |a ^ b| - 1``: the Gram is D - 1,
    with exponent ``2 * 2^n (n/4) / n = 2^(n-1)``. A signed index +-j is
    the vector weight +-e_j, so the entry is ``1 - 2<u, v>``: -1 on the
    diagonal, 3 at the negation and 1 elsewhere, that is 2(iota - 1) + J,
    with exponent ``2 * 2n / n = 4``."""
    T = ev.trace(_X, _C)
    S = 2 * ev("S0") + ev.n * T
    g_spin, q = ev("D") - ev.one(_X), 2 ** (ev.n - 1)
    g_vec, qprime = 2 * (ev("iota") - ev.one(_C)) + ev.trace(_C, _C), 4
    lhs1 = matmul(S, S.T) + qprime * g_spin
    d1, ok1 = _match_scalar(lhs1, ev.trace(_X, _X))
    d2, ok2 = _match_scalar(matmul(S.T, S) + q * g_vec, ev.trace(_C, _C))
    c1, ok3 = _match_scalar(matmul(S, g_vec + qprime * ev.one(_C)), T)
    c2, ok4 = _match_scalar(matmul(g_spin + q * ev.one(_X), S), T)
    ok = ok1 and ok2 and ok3 and ok4
    details = {"d1": d1, "d2": d2, "c1": c1, "c2": c2, "q": q, "q'": qprime}
    return ev.verdict(ok, details, lhs1)


def _every_rank(n):
    return 2 <= n <= FIBER_RANK_MAX


# name -> (letter, ranks it applies at, statement, whether it has homology
# content over the rational base)
_CATALOG = {
    "trace_products": ("a", _every_rank, _a, True),
    "s0_roundtrip_spinor": ("b", _every_rank, _b, True),
    "s0_roundtrip_vector": ("c", _every_rank, _c, True),
    "sigma_commutes_D": ("d", _every_rank, _d, True),
    "symmetrized_D_trace": ("e", _every_rank, _e, True),
    "quadratic_relation": ("f", _every_rank, _f, True),
    "parity_pushforward": ("g", lambda n: n in (3, 5), _g, True),
    "antidiagonal_eigenvalue": ("h", lambda n: n == 4, _h, False),
    "parity_pullback": ("i", lambda n: n == 4, _i, False),
    "cube_adjacency_square": ("j", lambda n: n == 4, _j, True),
    "split_diagonal_annihilation": ("k", lambda n: n == 3, _k, True),
    "cross_composition": ("x", _every_rank, _x, False),
}

_LETTER_ALIAS = {letter: name for name, (letter, *_) in _CATALOG.items()}


def identity_names() -> list:
    return list(_CATALOG)


def applicable_ranks(name: str) -> list:
    pred = _CATALOG[_canonical(name)][1]
    return [n for n in range(2, FIBER_RANK_MAX + 1) if pred(n)]


def _canonical(name: str) -> str:
    if name in _CATALOG:
        return name
    if name in _LETTER_ALIAS:
        return _LETTER_ALIAS[name]
    raise UnknownIdentityError(f"unknown identity {name!r}; known: {sorted(_CATALOG)}")


def check_identity(name: str, n: int, level: str = "fiber", datum=None) -> IdentityResult:
    """Verify one catalog identity exactly.

    ``level="fiber"`` checks the identity on the fiber matrices at the given
    rank, and takes no datum; ``level="homology"`` checks it on the maps they
    induce through a genus-0 datum (a seeded random simple one when none is
    given), where the trace J induces zero.
    """
    name = _canonical(name)
    letter, pred, statement, on_homology = _CATALOG[name]
    if not pred(n):
        raise RankError(f"identity {name} does not apply at rank {n}")
    if level == "fiber":
        if datum is not None:
            raise UnsupportedError(
                "fiber identities take no datum; a datum is read at homology level"
            )
    elif level != "homology":
        raise ValueError("level must be 'fiber' or 'homology'")
    elif not on_homology:
        raise UnsupportedError(f"identity {name} has no homology content over the rational base")
    else:
        if datum is None:
            if letter == "k":
                datum = _cover.random_simple(3, 0, 8, seed=11)
            else:
                # dl >= 2n - 2 keeps g(C') = dl/2 - n + 1 nonnegative
                ds, dl = 4, max(2 * min(n, 4), 2 * n - 2)
                datum = _cover.random_simple(n, ds, dl, seed=11)
        if datum.n != n:
            raise RankError(f"datum has rank {datum.n}, the identity was asked at rank {n}")
        if datum.base_genus != 0:
            raise UnsupportedError("homology checks run over the rational base only")
    passed, details, witness = statement(Evaluator(n, datum))
    return IdentityResult(name, letter, n, level, passed, details, witness)
