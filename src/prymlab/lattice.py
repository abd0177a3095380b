"""Exact integer matrix and lattice algebra.

Matrices are numpy arrays of dtype ``object`` holding Python ints, so all
arithmetic is arbitrary precision; ``A @ B`` multiplies exactly. Large
products go through ``matmul``, which runs in int64 whenever a bound on its
inputs proves that no partial sum can wrap, and on Python ints otherwise.
Sublattices of Z^m are represented by matrices whose columns generate them.

Smith normal form is the workhorse: it yields kernels, images, saturations,
integral solving and the divisor chains of singular or non-square matrices.
The divisor chain of a nonsingular square matrix (every nondegenerate
alternating form) comes determinant first: the Smith elimination then runs
modulo |det|, so its entries stay bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .errors import DegenerateFormError


def intmat(data) -> np.ndarray:
    """2-D object-dtype integer matrix from nested sequences or an array."""
    arr = np.array([[int(x) for x in row] for row in data], dtype=object)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    return arr


def zeros(r: int, c: int) -> np.ndarray:
    return np.full((r, c), 0, dtype=object)


def eye(n: int) -> np.ndarray:
    m = zeros(n, n)
    for i in range(n):
        m[i, i] = 1
    return m


def mat_equal(a, b) -> bool:
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    if a.shape != b.shape:
        return False
    if a.size == 0:
        return True
    return bool((a == b).all())


def is_alternating(g) -> bool:
    g = np.asarray(g, dtype=object)
    return mat_equal(g.T, -g)


def to_lists(m) -> list:
    """Row-major nested lists of Python ints (JSON-ready)."""
    return [[int(x) for x in row] for row in np.asarray(m, dtype=object)]


def _pyints(m) -> np.ndarray:
    """Copy of an integer array as an object array of Python ints."""
    arr = np.asarray(m, dtype=object)
    return np.frompyfunc(int, 1, 1)(arr) if arr.size else arr.copy()


def _maxabs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


_INT64_BOUND = 2 ** 63


def matmul(a, b) -> np.ndarray:
    """Exact integer product ``a @ b`` as an object array.

    Every partial sum of an entry is at most ``max|a| * max|b| * inner`` in
    absolute value, so when that and every entry are below 2^63 the product
    runs in int64 and cannot wrap; otherwise it runs on Python ints.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    ma, mb = _maxabs(a), _maxabs(b)
    if max(ma, mb, ma * mb * a.shape[-1]) < _INT64_BOUND:
        return (a.astype(np.int64) @ b.astype(np.int64)).astype(object)
    return _pyints(a) @ _pyints(b)


def det(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Each pivot updates the trailing block with one outer product, and every
    division is exact (each entry is a minor of the input). A step runs in
    int64 while ``max|block| * |pivot| + max|column| * max|row| < 2^63``
    bounds every value it forms, and on Python ints from the first step
    where that fails.
    """
    a = np.asarray(m)
    n = len(a)
    if n == 0:
        return 1
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError("determinant of a non-square matrix")
    a = a.astype(np.int64) if _maxabs(a) < _INT64_BOUND else _pyints(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k, k] == 0:
            below = np.flatnonzero(a[k + 1:, k])
            if not below.size:
                return 0
            i = k + 1 + below[0]
            a[[k, i]] = a[[i, k]]
            sign = -sign
        p = int(a[k, k])
        col, row, rest = a[k + 1:, k], a[k, k + 1:], a[k + 1:, k + 1:]
        if a.dtype != object and (
            _maxabs(rest) * abs(p) + _maxabs(col) * _maxabs(row) >= _INT64_BOUND
        ):
            a = a.astype(object)
            col, row, rest = a[k + 1:, k], a[k, k + 1:], a[k + 1:, k + 1:]
        rest[...] = (rest * p - np.outer(col, row)) // prev
        prev = p
    return sign * int(a[n - 1, n - 1])


# ---------------------------------------------------------------------------
# Smith normal form


class _SnfState:
    """Row/column elimination with unimodular transforms and their inverses."""

    def __init__(self, mat):
        arr = np.asarray(mat, dtype=object)
        if arr.ndim != 2:
            raise ValueError("expected a 2-D matrix")
        self.m, self.n = arr.shape
        self.a = [[int(arr[i, j]) for j in range(self.n)] for i in range(self.m)]
        self.u = [[int(i == j) for j in range(self.m)] for i in range(self.m)]
        self.uinv = [[int(i == j) for j in range(self.m)] for i in range(self.m)]
        self.v = [[int(i == j) for j in range(self.n)] for i in range(self.n)]
        self.vinv = [[int(i == j) for j in range(self.n)] for i in range(self.n)]

    # row i += q * row j  (A <- E A, U <- E U, Uinv <- Uinv E^-1)
    def row_add(self, i, j, q):
        ai, aj = self.a[i], self.a[j]
        for c in range(self.n):
            ai[c] += q * aj[c]
        ui, uj = self.u[i], self.u[j]
        for c in range(self.m):
            ui[c] += q * uj[c]
        for r in range(self.m):
            row = self.uinv[r]
            row[j] -= q * row[i]

    def row_swap(self, i, j):
        self.a[i], self.a[j] = self.a[j], self.a[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        for r in range(self.m):
            row = self.uinv[r]
            row[i], row[j] = row[j], row[i]

    def row_neg(self, i):
        self.a[i] = [-x for x in self.a[i]]
        self.u[i] = [-x for x in self.u[i]]
        for r in range(self.m):
            self.uinv[r][i] = -self.uinv[r][i]

    # col i += q * col j  (A <- A E, V <- V E, Vinv <- E^-1 V)
    def col_add(self, i, j, q):
        for r in range(self.m):
            row = self.a[r]
            row[i] += q * row[j]
        for r in range(self.n):
            row = self.v[r]
            row[i] += q * row[j]
        vi, vj = self.vinv[i], self.vinv[j]
        for c in range(self.n):
            vj[c] -= q * vi[c]

    def col_swap(self, i, j):
        for r in range(self.m):
            row = self.a[r]
            row[i], row[j] = row[j], row[i]
        for r in range(self.n):
            row = self.v[r]
            row[i], row[j] = row[j], row[i]
        self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]


def _snf_state(mat) -> _SnfState:
    st = _SnfState(mat)
    a, m, n = st.a, st.m, st.n
    t = 0
    while True:
        # smallest nonzero entry of the remaining block becomes the pivot
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            st.row_swap(i, t)
        if j != t:
            st.col_swap(j, t)
        while True:
            # clear column t
            for i in range(m):
                if i != t and a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    if q:
                        st.row_add(i, t, -q)
                    if a[i][t] != 0:
                        st.row_swap(i, t)
            if any(a[i][t] != 0 for i in range(m) if i != t):
                continue
            # clear row t
            for j in range(n):
                if j != t and a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    if q:
                        st.col_add(j, t, -q)
                    if a[t][j] != 0:
                        st.col_swap(j, t)
            if any(a[i][t] != 0 for i in range(m) if i != t):
                continue
            if any(a[t][j] != 0 for j in range(n) if j != t):
                continue
            # pivot must divide the remaining block
            d = a[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % d != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            st.row_add(t, offender, 1)
        if a[t][t] < 0:
            st.row_neg(t)
        t += 1
    return st


def _lists_to_mat(rows, nrows, ncols) -> np.ndarray:
    if nrows == 0 or ncols == 0:
        return zeros(nrows, ncols)
    return intmat(rows)


def snf(mat):
    """Smith normal form: returns ``(U, D, V)`` with ``U @ mat @ V == D``,
    ``U`` and ``V`` unimodular, ``D`` diagonal with a divisibility chain."""
    st = _snf_state(mat)
    U = _lists_to_mat(st.u, st.m, st.m)
    V = _lists_to_mat(st.v, st.n, st.n)
    D = _lists_to_mat(st.a, st.m, st.n)
    M = np.asarray(mat, dtype=object).reshape(st.m, st.n)
    if st.m and st.n and not mat_equal(U @ M @ V, D):
        raise AssertionError("smith normal form self-check failed")
    return U, D, V


def _chain_mod(rows, D: int) -> tuple:
    """Divisor chain of a nonsingular n x n integer matrix with ``|det| == D``,
    by Smith elimination modulo D (Cohen, Alg. 2.4.14; no transforms).

    The column span L contains D Z^n, and unimodular row operations keep it
    there, so adding D-multiples to entries leaves L unchanged: every entry
    stays in [0, D). Once column t is cleared, its pivot p spans, together
    with D e_t, the same as gcd(p, D); a block that is zero mod D gives D.
    """
    n = len(rows)
    a = [[int(x) % D for x in row] for row in rows]
    chain = []
    for t in range(n):
        nonzero = [(a[i][j], i, j) for i in range(t, n) for j in range(t, n) if a[i][j]]
        if not nonzero:
            chain += [D] * (n - t)
            break
        _, i, j = min(nonzero)
        a[t], a[i] = a[i], a[t]
        for row in a[t:]:  # rows above t are zero from column t on
            row[t], row[j] = row[j], row[t]
        while True:
            # clear column t by Euclid between row t and each row below; a
            # pivot dividing the entry stays the pivot
            for i in range(t + 1, n):
                while a[i][t]:
                    ri, rt = a[i], a[t]
                    q = ri[t] // rt[t]
                    for c in range(t, n):
                        ri[c] = (ri[c] - q * rt[c]) % D
                    if ri[t]:
                        a[i], a[t] = rt, ri
            d = a[t][t] = gcd(a[t][t], D)
            # column t is d e_t, so column operations reduce row t mod d; a
            # remainder, swapped in, is a smaller pivot
            j = next((j for j in range(t + 1, n) if a[t][j] % d), None)
            if j is not None:
                a[t][j] %= d
                for row in a[t:]:
                    row[t], row[j] = row[j], row[t]
                continue
            for j in range(t + 1, n):
                a[t][j] = 0
            # the pivot must divide the remaining block
            i = next(
                (i for i in range(t + 1, n) if any(x % d for x in a[i][t + 1:])), None
            )
            if i is None:
                break
            a[t][t + 1:] = a[i][t + 1:]  # row t += row i
        chain.append(d)
    if prod(chain) != D:
        raise AssertionError("modular divisor chain self-check failed")
    return tuple(chain)


def _nonsingular_chain(mat):
    """Divisor chain of a square matrix by the determinant-first path, or
    ``None`` when the matrix is singular."""
    D = abs(det(mat))
    return _chain_mod(mat, D) if D else None


def divisors(mat) -> tuple:
    """Nonzero diagonal chain d1 | d2 | ... of the Smith form."""
    arr = np.asarray(mat, dtype=object)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        chain = _nonsingular_chain(arr)
        if chain is not None:
            return chain
    _, d, _ = snf(mat)
    out = []
    for i in range(min(d.shape)):
        if d[i, i] != 0:
            out.append(int(d[i, i]))
    return tuple(out)


def rank(mat) -> int:
    return len(divisors(mat))


def _snf_rank(st: _SnfState) -> int:
    return sum(1 for i in range(min(st.m, st.n)) if st.a[i][i] != 0)


def kernel(mat) -> np.ndarray:
    """Columns generate the integer kernel (always saturated)."""
    st = _snf_state(mat)
    r = _snf_rank(st)
    V = _lists_to_mat(st.v, st.n, st.n)
    return V[:, r:]


def image(mat) -> np.ndarray:
    """Columns form a basis of the image lattice (not saturated)."""
    st = _snf_state(mat)
    r = _snf_rank(st)
    uinv = _lists_to_mat(st.uinv, st.m, st.m)
    cols = zeros(st.m, r)
    for i in range(r):
        d = st.a[i][i]
        for rrow in range(st.m):
            cols[rrow, i] = uinv[rrow, i] * d
    return cols


def saturate(mat) -> np.ndarray:
    """Basis of the smallest primitive sublattice containing the column span."""
    st = _snf_state(mat)
    r = _snf_rank(st)
    uinv = _lists_to_mat(st.uinv, st.m, st.m)
    return uinv[:, :r]


def solve_exact(a, b) -> np.ndarray:
    """Integer solution X of ``a @ X == b``; raises ValueError if none exists."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    vec = b.ndim == 1
    if vec:
        b = b.reshape(-1, 1)
    st = _snf_state(a)
    r = _snf_rank(st)
    U = _lists_to_mat(st.u, st.m, st.m)
    V = _lists_to_mat(st.v, st.n, st.n)
    ub = U @ b if st.m else zeros(0, b.shape[1])
    x = zeros(st.n, b.shape[1])
    for i in range(st.m):
        if i < r:
            d = st.a[i][i]
            for c in range(b.shape[1]):
                q, rem = divmod(int(ub[i, c]), d)
                if rem:
                    raise ValueError("no integral solution")
                x[i, c] = q
        else:
            for c in range(b.shape[1]):
                if ub[i, c] != 0:
                    raise ValueError("no integral solution")
    out = V @ x
    return out[:, 0] if vec else out


def contains(basis, vectors) -> bool:
    """Whether every column of ``vectors`` lies in the column span of ``basis``."""
    try:
        solve_exact(basis, vectors)
        return True
    except ValueError:
        return False


def lattices_equal(a, b) -> bool:
    return contains(a, b) and contains(b, a)


def intersect(a, b) -> np.ndarray:
    """Basis of the intersection of two column-span lattices."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    if a.shape[0] != b.shape[0]:
        raise ValueError("ambient rank mismatch")
    if a.shape[1] == 0 or b.shape[1] == 0:
        return zeros(a.shape[0], 0)
    stacked = np.concatenate([a, -b], axis=1)
    ker = kernel(stacked)
    cand = a @ ker[: a.shape[1], :]
    return image(cand)


def sum_lattices(a, b) -> np.ndarray:
    """Basis of the lattice generated by both column spans."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    if a.shape[0] != b.shape[0]:
        raise ValueError("ambient rank mismatch")
    return image(np.concatenate([a, b], axis=1))


def unimodular_inverse(u) -> np.ndarray:
    u = np.asarray(u, dtype=object)
    inv = solve_exact(u, eye(u.shape[0]))
    return inv


# ---------------------------------------------------------------------------
# polarized lattices


@dataclass(frozen=True)
class PolarizedLattice:
    """A sublattice of Z^m carrying the restriction of an alternating form.

    ``gram`` is the m x m alternating form on the ambient lattice; ``basis``
    holds the sublattice generators as columns (full column rank).
    """

    gram: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.gram, dtype=object)
        b = np.asarray(self.basis, dtype=object)
        if g.shape[0] != g.shape[1] or g.shape[0] != b.shape[0]:
            raise ValueError("gram/basis shape mismatch")
        if not is_alternating(g):
            raise ValueError("gram matrix must be alternating")

    @property
    def ambient_rank(self) -> int:
        return self.gram.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def restricted_gram(self) -> np.ndarray:
        return matmul(matmul(self.basis.T, self.gram), self.basis)

    def saturated(self) -> "PolarizedLattice":
        return PolarizedLattice(self.gram, saturate(self.basis))


def ptype(sub: PolarizedLattice) -> tuple:
    """Polarization type of the restricted form: the divisor chain with each
    value reported once (they occur in equal pairs on a nondegenerate
    alternating lattice)."""
    g = sub.restricted_gram()
    r = g.shape[0]
    if r == 0:
        return ()
    chain = _nonsingular_chain(g)
    if chain is None:
        ker = kernel(g)
        raise DegenerateFormError(
            f"restricted form is degenerate with radical of rank {ker.shape[1]}",
            radical=sub.basis @ ker,
        )
    if r % 2 != 0:
        raise DegenerateFormError("nondegenerate alternating form needs even rank")
    for i in range(0, r, 2):
        if chain[i] != chain[i + 1]:
            raise AssertionError(f"elementary divisors not paired: {chain}")
    return tuple(chain[i] for i in range(0, r, 2))


def dual_type(t) -> tuple:
    """Type carried by the dual polarization: (d1, d1*dp/d(p-1), ..., dp)."""
    t = tuple(int(x) for x in t)
    if not t:
        return ()
    if any(x < 1 for x in t) or any(t[i + 1] % t[i] for i in range(len(t) - 1)):
        raise ValueError(f"not a divisibility chain: {t}")
    p = len(t)
    top = t[0] * t[-1]
    out = tuple(top // t[p - 1 - i] for i in range(p))
    if any(out[i + 1] % out[i] for i in range(p - 1)):
        raise AssertionError("dual chain failed divisibility")
    return out
