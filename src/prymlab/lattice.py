"""Exact integer matrix and lattice algebra.

Matrices are numpy arrays of dtype ``object`` holding Python ints, so all
arithmetic is arbitrary precision, and every matrix a public function returns
is one, but for ``eye_minus``, whose int64 result is only handed back here.
``eye_minus`` takes ``surface._induced``'s int64 maps as they are, and a
``PolarizedLattice`` holds its basis at fixed width once for its products
(``_basis_fixed``) besides the Python ints of ``basis``; those are the
fixed-width arrays that pass between modules.
Inside, ``pfaffian``, ``_eliminate`` and ``_sparse_product`` run on
fixed-width arrays while a bound proves that nothing wraps, and ``matmul``
in int64.
They convert their input by one rule, ``_int64``:
``np.asarray(x, dtype=np.int64)``, where an ``OverflowError`` means the
entries need Python ints, and the bound then comes from the int64 max and
min (which also send the one int64 value -2^63 to Python ints); an array
already at a fixed width is taken as it is (``_fixed``).

Every product in the package goes through ``matmul``: in int64 when the
largest entries times the inner dimension stay below 2^63, so that no
partial sum can wrap, and on Python ints otherwise. Its core ``_product``
returns the int64 result as it is, and ``_sparse_product`` multiplies a
``SparseMatrix`` (nonzero entries only) under the same rule, with the most
nonzeros in a row for the inner dimension, at the width the bound needs.
These two serve ``surface``, which holds each cover's homology matrices at
fixed width. Sublattices of Z^m are represented by matrices whose columns
generate them.

There is one fraction-free engine, ``pfaffian`` (skew elimination with
2 x 2 pivots), and one Smith elimination, ``_eliminate``. ``pfaffian``
checks the unimodularity of every homology Gram and gives the modulus of
every type; ``det`` is the Pfaffian of the block [[0, m], [-m^T, 0]]
(``_skew_block``), which is (-1)^(n(n-1)/2) det m, and no path of the
package takes it. The divisor chain of a nondegenerate alternating form
comes Pfaffian first: the Smith elimination runs modulo |Pf|, a multiple
of the last divisor by Cayley's det = Pf^2, so its entries stay bounded,
in int64 while the modulus squared does; or modulo a lattice's known
exponent first, kept when the chain multiplies to |det|
(``PolarizedLattice.exponent``). ``divisors`` takes a nonsingular square
matrix the same path through its block, whose chain is its own with each
entry twice; each entry the skew elimination forms is +- a minor of m,
within the Hadamard bound.

``_eliminate(mat, want, rhs)`` yields kernels, images, saturations,
integral solving and the divisor chains of singular or non-square
matrices. It updates only the transforms its caller reads (none for
``divisors``; ``solve_exact`` and ``contains`` get U b for their
right-hand side b, with no U formed), and its pivot order and operations
are those of the list version in ``tests/_oracles.py``. ``surface`` runs
none: its relation matrix is an incidence matrix, whose elimination it
replays on two trees.

``pfaffian`` and ``_eliminate`` run on the width ladder: int16 while
every value a step forms stays below 2^15, then int32 below 2^31, then
int64 below 2^63, then Python ints. Each carries a bound from the few
entries a step scans, scans its arrays only where that bound reaches the
current width's limit, and widens only where the scanned bound fails too,
so its switch points are those of a scan at every step. Both skip the
passes a unit pivot makes needless. A spinor Gram (entries -1, 0, 1)
runs in int16 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _objects(m: np.ndarray) -> np.ndarray:
    """A fixed-width array as an object array of Python ints; an object
    array as it is."""
    return m if m.dtype == object else m.astype(object)


def _pyints(m) -> np.ndarray:
    """Copy of an integer array as an object array of Python ints."""
    arr = np.asarray(m, dtype=object)
    return np.frompyfunc(int, 1, 1)(arr) if arr.size else arr.copy()


def _maxabs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min())) if a.size else 0


_INT64_BOUND = 2 ** 63
# the width ladder: each width with the bound its values stay below
_LIMIT = {
    np.dtype(np.int16): 2 ** 15,
    np.dtype(np.int32): 2 ** 31,
    np.dtype(np.int64): _INT64_BOUND,
}


def _narrowest(bound: int) -> np.dtype:
    """The narrowest of int16, int32 and int64 that holds every value of at
    most ``bound`` in absolute value (``bound`` below 2^63)."""
    return next(width for width, limit in _LIMIT.items() if bound < limit)


def _int64(x):
    """``(x as an int64 array, max|x|)`` when every entry is below 2^63 in
    absolute value, else ``(None, None)``: the entries need Python ints.

    The conversion is the range check, as it raises ``OverflowError`` on an
    entry outside int64; the bound is then read from the int64 max and min,
    which also catch -2^63. An int64 input is returned without a copy.
    """
    try:
        a = np.asarray(x, dtype=np.int64)
    except OverflowError:
        return None, None
    m = _maxabs(a)
    return (a, m) if m < _INT64_BOUND else (None, None)


def _fixed(x):
    """``_int64(x)``, but an array already at a width of the ladder (int16,
    int32 or int64) is returned as it is, with its bound read the same
    way."""
    if isinstance(x, np.ndarray) and x.dtype in _LIMIT:
        m = _maxabs(x)
        return (x, m) if m < _INT64_BOUND else (None, None)
    return _int64(x)


def _product(a, b) -> np.ndarray:
    """Exact integer product ``a @ b``: int64 when every entry and
    ``max|a| * max|b| * inner`` are below 2^63, which bounds every partial
    sum, and an object array of Python ints otherwise."""
    a64, ma = _int64(a)
    b64, mb = _int64(b)
    if a64 is not None and b64 is not None and ma * mb * a64.shape[-1] < _INT64_BOUND:
        return a64 @ b64
    return _pyints(a) @ _pyints(b)


def matmul(a, b) -> np.ndarray:
    """Exact integer product ``a @ b`` as an object array.

    Every partial sum of an entry is at most ``max|a| * max|b| * inner`` in
    absolute value, so when that and every entry are below 2^63 the product
    runs in int64 and cannot wrap; otherwise it runs on Python ints.
    """
    return _objects(_product(a, b))


def eye_minus(phi) -> np.ndarray:
    """``1 - phi`` for a square integer matrix ``phi``. In int64 when every
    entry of ``phi`` is below 2^63 - 1 in absolute value, so that no entry
    of the difference wraps, for ``matmul``, ``image`` and ``saturate`` to
    take as it is instead of converting it on every call; an object array
    of Python ints otherwise. The one int64 matrix this module hands out:
    a caller passes it back to these routines and computes nothing on it
    itself."""
    phi = np.asarray(phi)
    if phi.ndim != 2 or phi.shape[0] != phi.shape[1]:
        raise ValueError("expected a square matrix")
    p64, m = _int64(phi)
    if p64 is None or m + 1 >= _INT64_BOUND:
        return eye(len(phi)) - _pyints(phi)
    x = -p64
    x[np.diag_indices(len(x))] += 1
    return x


def _fixed_width(x) -> np.ndarray:
    """``x`` in int64 when every entry fits (``_int64``), and as it is
    otherwise: for a matrix that ``matmul``, ``image`` and the other
    routines here read several times, which then take it as it is instead
    of converting it on every call. As with ``eye_minus``'s result, a
    caller hands it back to these routines and computes nothing on it
    itself."""
    x64, _ = _int64(x)
    return x if x64 is None else x64


@dataclass(frozen=True)
class SparseMatrix:
    """An integer matrix of ``shape`` held by its nonzero entries, row after
    row: entry k is ``vals[k]`` at ``(rows[k], cols[k])``, and ``rows`` is
    nondecreasing. ``vals`` is int64 when every entry is below 2^63 in
    absolute value and an object array of Python ints otherwise."""

    shape: tuple
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray


def sparse(m) -> SparseMatrix:
    """The nonzero entries of a 2-D integer matrix, row by row."""
    arr = np.asarray(m)
    if arr.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    rows, cols = np.nonzero(arr)
    vals = arr[rows, cols]
    v64, _ = _int64(vals)
    return SparseMatrix(arr.shape, rows, cols, _pyints(vals) if v64 is None else v64)


_GATHER = 2 ** 15  # entries gathered at once by _sparse_product


def _sparse_product(s: SparseMatrix, b) -> np.ndarray:
    """Exact integer product ``s @ b`` of a sparse and a dense matrix, under
    ``matmul``'s rule with the most nonzeros in a row of ``s`` as the inner
    dimension: every partial sum is at most ``max|s| * max|b| * w``. When
    that and every entry are below 2^63 the product is formed at the
    narrowest width of the width ladder that holds it, and a ``b`` already
    at a width of the ladder is read as it is; otherwise the product is an
    object array of Python ints.

    The rows of ``b`` the nonzeros pick are gathered a chunk of nonzeros at
    a time, at most as many as ``s`` has rows and at most ``_GATHER``
    entries in all (one row of ``b`` at the least), so the temporary stays
    below the size of the product. The product is laid out column by
    column, so its transpose is contiguous: ``surface`` reshapes that
    transpose into image chains without a copy.
    """
    m, inner = s.shape
    b = np.asarray(b)
    if b.ndim != 2 or b.shape[0] != inner:
        raise ValueError("sparse product shape mismatch")
    w = int(np.bincount(s.rows).max()) if s.rows.size else 0
    fixed, mb = _fixed(b)
    need = None if fixed is None or s.vals.dtype == object else _maxabs(s.vals) * mb * w
    if need is not None and need < _INT64_BOUND:
        vals, b = s.vals, fixed
        out = np.zeros((b.shape[1], m), dtype=_narrowest(need)).T
    else:
        vals, b = _pyints(s.vals), _pyints(b)
        out = zeros(b.shape[1], m).T
    step = max(1, min(m, _GATHER // max(b.shape[1], 1)))
    for lo in range(0, len(vals), step):
        rows = s.rows[lo:lo + step]
        # formed at the product's width, which holds every term and sum
        terms = np.multiply(
            b[s.cols[lo:lo + step]], vals[lo:lo + step, None], dtype=out.dtype
        )
        # a row's entries are contiguous, so each row occurs once per chunk
        starts = np.flatnonzero(np.diff(rows, prepend=-1))
        out[rows[starts]] += np.add.reduceat(terms, starts, axis=0, dtype=out.dtype)
    return out


def _skew_block(m) -> np.ndarray:
    """The alternating block ``[[0, m], [-m^T, 0]]`` of a square 2-D matrix
    (``ValueError`` otherwise), on Python ints, as ``-m^T`` of an int64
    -2^63 would wrap: its Pfaffian is (-1)^(n(n-1)/2) det m at order n, and
    its Smith chain is m's with each entry twice."""
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square 2-D matrix")
    a = _pyints(a)
    z = zeros(len(a), len(a))
    return np.block([[z, a], [-a.T, z]])


def det(m) -> int:
    """Exact determinant of a square 2-D matrix (``ValueError`` otherwise)
    from the Pfaffian of its ``_skew_block``. No path of the package takes
    it: an alternating form goes to ``pfaffian`` itself."""
    block = _skew_block(m)
    n = len(block) // 2
    return (-1) ** (n * (n - 1) // 2) * pfaffian(block)


def pfaffian(g) -> int:
    """Exact Pfaffian of an alternating matrix (which is not checked), so
    that ``det(g) == pfaffian(g) ** 2``; 0 at odd order, 1 at order 0,
    ``ValueError`` unless ``g`` is a square 2-D matrix.

    A fraction-free skew elimination with 2 x 2 pivots: each step takes the
    pivot p at (t, t + 1), the rows r0 and r1 of t and t + 1 past t + 1,
    and updates the trailing block S to ``(p S + r1 (x) r0 - r0 (x) r1) /
    prev`` for the previous pivot prev, which is the Schur complement of
    the pivot pair times Pf of the rows eliminated so far; every division
    is exact, as each entry is the Pfaffian of a principal submatrix
    (Knuth's overlapping-Pfaffian identity, Electron. J. Combin. 3(2),
    1996), and the last pivot is the Pfaffian. A zero pivot swaps in the
    first nonzero entry of its row, by a transposition of the indices
    after t, which changes the sign; a zero row gives 0.

    S is held as ``scale`` (+-1) times the stored block; as scale^2 = 1 the
    stored block, rows and pivot form the true numerator as they are. At
    |prev| > 1 the numerator is divided and the scale is 1 again; at
    |prev| == 1 the division is a sign, which goes into the next scale:
    prev for a larger p, whose step leaves the numerator as it is, and p *
    prev for a unit p, factored out so that the step is S plus p times
    the two rank-1 halves, each updating only the rows where its own left
    factor is nonzero (the union of both supports measured slower).

    A bound b >= max|S| is carried from step to step. By skew symmetry the
    columns of the pivot pair are the rows negated, so one scan of the two
    rows bounds every value a step forms by ``need = b * |p| + 2 * max|r0,
    r1|^2``, and the new block by that over |prev|; the input conversion
    gives the first b. The steps run on the width ladder, in the narrowest
    of int16, int32 and int64 whose range holds ``need``. Where the carried
    b fails the current width, the block is scanned for its true maximum,
    and it goes up the ladder only where the scanned bound fails too: to
    the narrowest width that holds ``need``, or to Python ints past 2^63,
    at the first step whose true ``need`` reaches it. Magnitudes are those
    of the true entries, so no switch point depends on the scale. Spinor
    Grams run in int16 throughout.
    """
    a = np.asarray(g)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("Pfaffian of a non-square matrix")
    n = len(a)
    if n % 2:
        return 0
    if n == 0:
        return 1
    fixed, bound = _fixed(a)
    a = _pyints(a) if fixed is None else fixed.astype(_narrowest(bound))
    sign = 1
    prev = 1
    scale = 1  # the trailing block is scale (+-1) times the stored one
    for t in range(0, n - 2, 2):
        if a[t, t + 1] == 0:
            right = np.flatnonzero(a[t, t + 2:])
            if not right.size:
                return 0
            j = t + 2 + right[0]
            a[[t + 1, j], t:] = a[[j, t + 1], t:]
            a[t:, [t + 1, j]] = a[t:, [j, t + 1]]
            sign = -sign
        p = int(a[t, t + 1])  # the pivot is scale * p
        if a.dtype != object:
            top = _maxabs(a[t:t + 2, t + 2:])
            outer = 2 * top * top
            if bound * abs(p) + outer >= _LIMIT[a.dtype]:
                bound = _maxabs(a[t + 2:, t + 2:])
            need = bound * abs(p) + outer
            if need >= _INT64_BOUND:
                a = a.astype(object)
            elif need >= _LIMIT[a.dtype]:
                a = a.astype(_narrowest(need))
            bound = need // abs(prev)
        r0, r1, rest = a[t, t + 2:], a[t + 1, t + 2:], a[t + 2:, t + 2:]
        # the true numerator is p rest + r1 (x) r0 - r0 (x) r1 (scale^2 = 1)
        if abs(prev) != 1:
            rest[...] = (rest * p + r1[:, None] * r0 - r0[:, None] * r1) // prev
            next_scale = 1
        elif abs(p) == 1:
            # p (rest + p (r1 (x) r0 - r0 (x) r1)); a half whose left factor
            # is 0 on a row leaves that row as it is
            rows = np.flatnonzero(r1)
            rest[rows] += (p * r1[rows])[:, None] * r0
            rows = np.flatnonzero(r0)
            rest[rows] -= (p * r0[rows])[:, None] * r1
            next_scale = p * prev
        else:
            rest *= p
            rest += r1[:, None] * r0
            rest -= r0[:, None] * r1
            next_scale = prev
        prev = scale * p
        scale = next_scale
    return sign * scale * int(a[n - 2, n - 1])


# ---------------------------------------------------------------------------
# Smith normal form


def _eliminate(mat, want=(), rhs=None):
    """Smith elimination of an integer matrix that updates only the
    transforms named in ``want``: ``"u"``, ``"uinv"`` and ``"v"``, with
    ``U @ mat @ V == D`` and ``uinv`` the inverse of ``U``.

    Returns ``(D, r, *transforms)``: D diagonal with its r nonzero entries a
    divisibility chain first, then the transforms in the order of ``want``,
    as the working arrays: at one fixed width where the elimination stayed
    within int64, object arrays of Python ints otherwise. The public
    wrappers convert only what they hand out. Given ``rhs``, a matrix with
    as many rows as ``mat``, the row operations are applied to it as well,
    and ``U @ rhs`` follows the transforms, without U being formed.

    Each step takes as pivot the smallest nonzero entry of the remaining
    block, first in row-major order, and moves it to (t, t). At fixed width
    one ``argmin`` finds it: ``|entry| - 1`` read as the unsigned type of
    the width makes 0 the largest key. It clears column t, then row t, by
    Euclid's algorithm against the pivot (a nonzero remainder is swapped in
    as the new pivot, and the old one, now off the pivot, sends the step
    back to column t) until both are clear, adds to row t the first row
    holding an entry the pivot does not divide and starts over, and finally
    makes the pivot positive. A clear takes the entries of its line in order: a run of
    entries the pivot divides leaves the pivot line unchanged, so the run
    is one outer-product update, and the result equals one row or column
    operation at a time.

    A pivot p of +-1 divides every entry, and its quotients are the entries
    times p. Its column is cleared by one row update, with no remainders
    taken; column t is then p e_t, so the column operations that clear row
    t change no other entry of the matrix, and row t is zeroed directly
    while only V takes them. The remaining block is not scanned for an
    entry the pivot does not divide.

    The arrays share one width of the width ladder, the narrowest whose
    limit is above ``b * growth`` before every update, for a bound b >=
    max|entry| over every array, which bounds every value the update forms.
    A line update adds to each line one multiple of the pivot line, so its
    growth is ``1 + max|q|`` for its quotients q; only the column update of
    U^-1 sums k columns times their quotients at once, so an update of k
    lines that U^-1 takes grows by ``1 + k * max|q|``. The bound is carried
    in two parts, b over every array but U^-1 and b_U over U^-1, and the
    rule reads ``max(b, b_U) * growth``: the input conversion gives the
    first b, and its width the first width; each update multiplies b by
    ``1 + max|q|`` where it forms values (not at the row of a unit step
    without V, which only zeroes that row), so only q is scanned, and b_U
    is raised to the maximum of the one column of U^-1 the update changed,
    a scan of m entries. So a step's growth still counts k (the row of a
    unit step too, so every rescan and switch falls where a full update
    would put it), but b_U is never multiplied by it and stays the true
    maximum of U^-1: 14 throughout the image of 1 - delta at rank 258,
    where one shared bound grew by up to 1 + 211 * 9 per update and the
    arrays were rescanned about every other one. Where the carried bound
    fails the width's limit, every array is scanned for its true maximum;
    where that fails too, every array goes over to the narrowest width that
    holds the scanned bound, or past 2^63 to Python ints for good.
    """
    a = np.asarray(mat)
    if a.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    m, n = a.shape
    size = {"u": m, "uinv": m, "v": n}
    x = {"a": a} if rhs is None else {"a": a, "rhs": rhs}
    inputs = {k: _fixed(y) for k, y in x.items()}
    # while the arrays are fixed-width, bound >= max|entry| over every
    # array but U^-1 and ubound >= max|U^-1|, carried apart: an update
    # changes one column of U^-1, which is scanned after it
    bound = 1
    ubound = 1
    if all(y is not None for y, _ in inputs.values()):
        bound = max(bound, *(top for _, top in inputs.values()))
        width = _narrowest(bound)
        x = {k: y.astype(width) for k, (y, _) in inputs.items()}
    else:
        width = object
        x = {k: _pyints(y) for k, y in x.items()}
    x.update({k: np.eye(size[k], dtype=width) for k in want})
    # the arrays whose rows (axis 0) or columns (axis 1) an operation combines
    direct = (x.keys() & {"a", "u", "rhs"}, x.keys() & {"a", "v"})

    def lines(k, axis):
        return x[k] if axis == 0 else x[k].T

    def widen(q, summed, formed=True):
        # an update adds to a line q_i times one other line, or, for U^-1,
        # ``summed`` lines times their q at once; on Python ints already,
        # nothing is scanned
        nonlocal bound, ubound
        width = x["a"].dtype
        if width == object:
            return
        growth = 1 + summed * int(np.abs(q).max())
        if max(bound, ubound) * growth >= _LIMIT[width]:
            bound = max(_maxabs(y) for y in x.values())
            ubound = min(ubound, bound)
        need = max(bound, ubound) * growth
        if need >= _INT64_BOUND:
            for k in x:
                x[k] = _pyints(x[k])
        elif need >= _LIMIT[width]:
            wider = _narrowest(need)
            for k in x:
                x[k] = x[k].astype(wider)
        # every line but U^-1's takes one multiple of another, where the
        # update forms values at all
        if formed:
            bound *= 1 + (growth - 1) // summed

    def update(axis, idx, q, t):
        # line i -= q_i * line t for i in idx; U^-1 column t += U^-1[:, idx] q
        nonlocal ubound
        widen(q, len(q) if axis == 0 and "uinv" in x else 1)
        for k in direct[axis]:
            y = lines(k, axis)
            y[idx] -= q[:, None] * y[t]
        if axis == 0 and "uinv" in x:
            column = x["uinv"][:, t]
            column += x["uinv"][:, idx] @ q
            if column.dtype != object:
                ubound = max(ubound, _maxabs(column))

    def swap(axis, i, t):
        ys = [lines(k, axis) for k in direct[axis]]
        if axis == 0 and "uinv" in x:
            ys.append(x["uinv"].T)
        for y in ys:
            line = y[t].copy()
            y[t] = y[i]
            y[i] = line

    def off_pivot(axis, t):
        idx = lines("a", axis)[:, t].nonzero()[0]
        return idx[idx != t]

    def clear(axis, t):
        # whether a remainder was swapped in: the old pivot is then off it
        idx = off_pivot(axis, t)
        swapped = False
        while idx.size:
            vals = lines("a", axis)[idx, t]
            p = x["a"][t, t]
            if abs(p) == 1:  # divides everything: q = vals / p = vals * p
                update(axis, idx, vals * p, t)
                break
            q = vals // p
            bad = np.flatnonzero(vals % p)
            k = int(bad[0]) + 1 if bad.size else len(idx)
            update(axis, idx[:k], q[:k], t)
            if not bad.size:
                break
            swap(axis, int(idx[k - 1]), t)
            swapped = True
            idx = idx[k:]
        return swapped

    def unit_step(t, p):
        # column t by one row update; it is then p e_t, so the column
        # operations that clear row t change row t of the matrix alone
        idx = off_pivot(0, t)
        if idx.size:
            update(0, idx, x["a"][idx, t] * p, t)
        idx = off_pivot(1, t)
        if idx.size:
            q = x["a"][t, idx] * p
            widen(q, 1, "v" in x)
            x["a"][t, idx] = 0
            if "v" in x:
                x["v"][:, idx] -= x["v"][:, t, None] * q

    t = 0
    while t < min(m, n):
        a = x["a"]
        if a.dtype == object:
            flat = a[t:, t:].ravel()
            nz = np.flatnonzero(flat)
            if not nz.size:
                break
            f = int(nz[np.argmin(np.abs(flat[nz]))])
        else:
            key = np.abs(a[t:, t:])
            key -= 1
            f = int(key.view(f"u{key.itemsize}").argmin())  # unsigned, same width
            if key.flat[f] < 0:  # every entry is 0
                break
        i, j = divmod(f, n - t)
        if i:
            swap(0, t + i, t)
        if j:
            swap(1, t + j, t)
        while True:
            p = x["a"][t, t]
            if abs(p) == 1:
                unit_step(t, p)
                break
            if clear(0, t) or clear(1, t):
                continue
            # the pivot must divide the remaining block
            a = x["a"]
            rest = a[t + 1:, t + 1:]
            bad = np.flatnonzero((rest % a[t, t] != 0).any(axis=1))
            if not bad.size:
                break
            update(0, [t], np.array([-1]), t + 1 + int(bad[0]))  # row t += that row
        if x["a"][t, t] < 0:
            for k in direct[0]:
                x[k][t] = -x[k][t]
            if "uinv" in x:
                x["uinv"][:, t] = -x["uinv"][:, t]
        t += 1
    out = (x["a"], t, *(x[k] for k in want))
    return out if rhs is None else (*out, x["rhs"])


def snf(mat):
    """Smith normal form: returns ``(U, D, V)`` with ``U @ mat @ V == D``,
    ``U`` and ``V`` unimodular, ``D`` diagonal with a divisibility chain."""
    D, _, U, V = _eliminate(mat, ("u", "v"))
    U, D, V = _objects(U), _objects(D), _objects(V)
    if D.size and not mat_equal(matmul(matmul(U, mat), V), D):
        raise AssertionError("smith normal form self-check failed")
    return U, D, V


def _chain_mod(rows, D: int) -> tuple:
    """Divisor chain of the lattice L + D Z^n for the column span L of an
    n x n integer matrix, by Smith elimination modulo D (Cohen, Alg. 2.4.14;
    no transforms): ``gcd(d_i, D)`` for the chain d_i of L. With
    ``|det| == D`` that is the chain of L itself.

    The span contains D Z^n, and unimodular row operations keep it there,
    so adding D-multiples to entries leaves it unchanged: every entry stays
    in [0, D). Once column t is cleared, its pivot p spans, together with
    D e_t, the same as gcd(p, D); a block that is zero mod D gives D.

    Each operation takes whole lines: the rows below the pivot are reduced
    by it at once, and the smallest remainder, swapped in, is the next
    pivot until the column is clear. The elimination only diagonalizes:
    the diagonal d_t of a lattice spans what its Smith chain does, which
    pairwise gcd and lcm then give, so no block is scanned for entries a
    pivot does not divide. A pivot prime to D leaves a 1, which clears its
    row, and its step ends there. An entry less q times a pivot row entry,
    q < D, lies above -D^2, so the arrays are int64 while ``D^2 + D <
    2^63``, where one ``argmin`` over the entries less 1, read as unsigned
    so that 0 comes last, finds a pivot, and Python ints otherwise. The
    list version in ``tests/_oracles.py`` is the reference.
    """
    a = _pyints(rows) % D
    if D * D + D < _INT64_BOUND:
        a = a.astype(np.int64)
    n = len(a)

    def smallest(block):
        # flat position of the smallest nonzero entry, first in row-major
        # order, or None when every entry is 0
        if not block.size:
            return None
        if a.dtype == object:
            flat = block.ravel()
            nz = np.flatnonzero(flat)
            return int(nz[np.argmin(flat[nz])]) if nz.size else None
        key = block - 1
        f = int(key.view(np.uint64).argmin())
        return None if key.flat[f] < 0 else f

    def swap(i, j, axis):
        if i != j:
            lines = a if axis == 0 else a.T
            lines[[i, j]] = lines[[j, i]]

    diagonal = []
    for t in range(n):
        f = smallest(a[t:, t:])
        if f is None:
            diagonal += [D] * (n - t)
            break
        i, j = divmod(f, n - t)
        swap(t, t + i, 0)
        swap(t, t + j, 1)  # rows above t are not read again
        while True:
            # clear column t: reduce every row below by the pivot row, and
            # swap in the smallest remainder as the pivot until none is left
            while True:
                below = t + 1 + np.flatnonzero(a[t + 1:, t])
                if not below.size:
                    break
                q = a[below, t] // a[t, t]
                a[below, t:] = (a[below, t:] - q[:, None] * a[t, t:]) % D
                if a[t, t] == 1:
                    break
                i = smallest(a[t + 1:, t])
                if i is None:
                    break
                swap(t, t + 1 + i, 0)
            d = gcd(int(a[t, t]), D)
            if d == 1:
                break  # row t is not read again
            # column t is d e_t, so column operations reduce row t mod d; a
            # remainder, swapped in, is a smaller pivot
            a[t, t] = d
            a[t, t + 1:] %= d
            j = smallest(a[t, t + 1:])
            if j is None:
                break
            swap(t, t + 1 + j, 1)
        diagonal.append(d)
    # the Smith chain of the diagonal: entry i ends as the gcd of what is
    # left, and the lcm moves on (products and the span stay as they are)
    for i in range(n):
        for j in range(i + 1, n):
            if diagonal[i] == 1:
                break
            g = gcd(diagonal[i], diagonal[j])
            diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
    return tuple(diagonal)


def _nonsingular_chain(mat, modulus=None):
    """Divisor chain of an alternating matrix, Pfaffian first, or ``None``
    when it is singular (odd order included); ``divisors`` hands in the
    ``_skew_block`` of any square matrix.

    The chain comes in pairs e_1, e_1, ..., e_k, e_k, so M = |Pf| = e_1
    ... e_k is a multiple of the last divisor, and the elimination modulo M
    gives every gcd(d_i, M) = d_i; |det| = Pf^2 (Cayley), and M^2 stays in
    int64 for determinants up to about 2^125. The chain multiplies to |det|
    exactly when every d_i divides M, which is checked.

    A caller that expects a smaller multiple of the last divisor passes it
    as ``modulus`` (the exponent q of a Prym-Tyurin lattice, whose type
    divides q): the chain modulo it is tried first and kept when it
    multiplies to |det|; otherwise it is taken modulo M, so the result is
    exact either way."""
    M = abs(pfaffian(mat))
    D = M * M
    if not D:
        return None
    if modulus:
        chain = _chain_mod(mat, modulus)
        if prod(chain) == D:
            return chain
    chain = _chain_mod(mat, M)
    if prod(chain) != D:
        raise AssertionError("modular divisor chain self-check failed")
    return chain


def divisors(mat) -> tuple:
    """Nonzero diagonal chain d1 | d2 | ... of the Smith form. A
    nonsingular square matrix takes the Pfaffian-first path through its
    ``_skew_block``, whose chain is the matrix's with each entry twice; a
    singular or non-square one the Smith elimination."""
    arr = np.asarray(mat, dtype=object)
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        chain = _nonsingular_chain(_skew_block(arr))
        if chain is not None:
            return chain[::2]
    d, r = _eliminate(arr)
    return tuple(int(x) for x in np.diagonal(d)[:r])


def kernel(mat) -> np.ndarray:
    """Columns generate the integer kernel (always saturated)."""
    _, r, V = _eliminate(mat, ("v",))
    return _objects(V[:, r:])


def image(mat) -> np.ndarray:
    """Columns form a basis of the image lattice (not saturated)."""
    d, r, uinv = _eliminate(mat, ("uinv",))
    return _objects(uinv[:, :r]) * _objects(np.diagonal(d)[:r])


def saturate(mat) -> np.ndarray:
    """Basis of the smallest primitive sublattice containing the column span.

    With ``U @ mat @ V == D``, the basis is the first r columns of U^-1.
    For a matrix with more rows than columns V is the smaller transform,
    and ``mat @ V == U^-1 @ D`` gives the same columns, each divided by its
    pivot, without U^-1."""
    rows, cols = np.shape(mat)
    if cols >= rows:
        _, r, uinv = _eliminate(mat, ("uinv",))
        return _objects(uinv[:, :r])
    d, r, V = _eliminate(mat, ("v",))
    return matmul(mat, V[:, :r]) // _objects(np.diagonal(d)[:r])


def _carried(a, b, want=()):
    """The Smith elimination of ``a`` with the columns of ``b`` carried:
    ``(pivots, r, U @ b, *transforms)``, after checking that ``a`` and ``b``
    have one ambient rank."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    if b.ndim == 1:
        b = b.reshape(-1, 1)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    if a.shape[0] != b.shape[0]:
        raise ValueError("ambient rank mismatch")
    d, r, *transforms, ub = _eliminate(a, want, b)
    return np.diagonal(d)[:r, None], r, ub, *transforms


def solve_exact(a, b) -> np.ndarray:
    """Integer solution X of ``a @ X == b``; raises ValueError if none exists.

    The row operations of the Smith elimination of ``a`` are applied to
    ``b`` as they run, so ``U b`` is formed without U: X = V (U b / D)."""
    pivots, r, ub, V = _carried(a, b, ("v",))
    if (ub[:r] % pivots).any() or ub[r:].any():
        raise ValueError("no integral solution")
    x = zeros(V.shape[0], ub.shape[1])
    x[:r] = ub[:r] // pivots
    out = matmul(V, x)
    return out[:, 0] if np.ndim(b) == 1 else out


def contains(basis, vectors) -> bool:
    """Whether every column of ``vectors`` lies in the column span of
    ``basis``: whether ``U vectors`` is divisible by the pivots and zero past
    the rank, with no transform formed."""
    pivots, r, ub = _carried(basis, vectors)
    return not ((ub[:r] % pivots).any() or ub[r:].any())


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
    cand = matmul(a, ker[: a.shape[1], :])
    return image(cand)


# ---------------------------------------------------------------------------
# polarized lattices


@dataclass(frozen=True)
class PolarizedLattice:
    """A sublattice of Z^m carrying the restriction of an alternating form.

    ``gram`` is the m x m alternating form on the ambient lattice; ``basis``
    holds the sublattice generators as columns (full column rank).
    ``exponent``, when known, is a multiple of the last entry of the type,
    such as the exponent q of a Prym-Tyurin lattice: ``ptype`` tries its
    divisor chain modulo it first. It does not enter equality. The Gram
    is read once, when the lattice is made: converted to int64 where its
    entries fit, checked to be alternating on that array, and kept so for
    every ``restricted_gram``. A Gram given in int64 is kept without a
    copy; ``over_checked_gram`` takes one whose maker has already checked
    it, as ``surface``'s homologies do, and does not read it again. The
    basis is converted once too, to int64 where its entries fit
    (``_fixed_width``), for the products of ``restricted_gram`` and of
    callers that hand it back to this module.
    """

    gram: np.ndarray
    basis: np.ndarray
    exponent: int = field(default=None, compare=False)
    _gram64: np.ndarray = field(init=False, repr=False, compare=False)
    _basis_fixed: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        g64, _ = _int64(np.asarray(self.gram))
        self._keep(g64)
        if not (is_alternating(self.gram) if g64 is None else (g64.T == -g64).all()):
            raise ValueError("gram matrix must be alternating")

    @classmethod
    def over_checked_gram(cls, gram64, basis, exponent=None) -> PolarizedLattice:
        """The lattice ``PolarizedLattice(gram64, basis, exponent)`` for an
        int64 Gram already checked to be alternating, such as a homology's,
        checked when it was built: the shapes are checked, the Gram is not
        scanned again."""
        lat = object.__new__(cls)
        for name, value in (("gram", gram64), ("basis", basis), ("exponent", exponent)):
            object.__setattr__(lat, name, value)
        lat._keep(gram64)
        return lat

    def _keep(self, g64):
        """Check the shapes, and keep the int64 Gram (None past int64) and
        the fixed-width basis."""
        g, b = np.asarray(self.gram), np.asarray(self.basis)
        if g.shape[0] != g.shape[1] or g.shape[0] != b.shape[0]:
            raise ValueError("gram/basis shape mismatch")
        object.__setattr__(self, "_gram64", g64)
        object.__setattr__(self, "_basis_fixed", _fixed_width(b))

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def restricted_gram(self) -> np.ndarray:
        g = self.gram if self._gram64 is None else self._gram64
        b = self._basis_fixed
        return matmul(b.T, _product(g, b))


def ptype(sub: PolarizedLattice) -> tuple:
    """Polarization type of the restricted form: the divisor chain with each
    value reported once (they occur in equal pairs on a nondegenerate
    alternating lattice)."""
    return gram_type(sub.restricted_gram(), sub.basis, sub.exponent)


def gram_type(g, basis, exponent=None) -> tuple:
    """Polarization type of ``g``, the restricted form of the sublattice
    spanned by the columns of ``basis``, as ``ptype`` reports it; for a
    caller that also needs the restricted Gram. ``basis`` places the radical
    of a degenerate form in ambient coordinates; ``exponent`` is the
    lattice's, when known, and the divisor chain is tried modulo it first.
    The chain is taken modulo the Pfaffian of ``g``, which is 0 exactly
    when the form is degenerate (odd rank included); no determinant is
    formed."""
    r = g.shape[0]
    if r == 0:
        return ()
    chain = _nonsingular_chain(g, modulus=exponent)
    if chain is None:
        ker = kernel(g)
        raise DegenerateFormError(
            f"restricted form is degenerate with radical of rank {ker.shape[1]}",
            radical=matmul(basis, ker),
        )
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
