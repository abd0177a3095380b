"""Independent oracles used by the tests.

These deliberately avoid the library's own algorithms: determinants by
cofactor expansion or fraction-free elimination written here, Pfaffians by
expansion along the first row, divisor chains
by gcds of minors, weight pairings by direct rational arithmetic, and
homology chains as dicts (edge -> coefficient), paired one vertex at a time
and pushed through a correspondence one edge at a time, and the Gram summed
one vertex at a time; the sheet vertices' part of the Gram as one product
per vertex is the reference for the library's row gathers. A generated
group is closed by multiplying signed permutations, the reference for the
library's closure on lookup tables;
classification by reading every element of that closure is the reference
for the library's, which reads only the generators and the group order.
Random generation as a rejection loop that multiplies signed permutations
and builds a vector cover per accepted draw is the reference for the
library's loop on lookup tables. The
Smith elimination on lists of Python ints, one row or column operation at a
time on all four transforms, is the reference for the library's vectorised
one at every width, a product summed one entry at a time on lists is the
reference for the dense and sparse products, and integral solving by U b
after that elimination is the reference for the library's solving with b
carried through it. The elimination
modulo the determinant on lists, one entry at a time, is the reference for
the library's whole-line one. The entry-by-entry equivariance check under
every reflection is the reference for the library's check on the simple
reflections.
The homology model built one sheet, edge and vertex at a time, with faces
as dicts, is the reference for the library's array-built cell complex.
Orbit actions pushed through label values one sign at a time, and fiber
matrices built from Python sets of those values, are the references for the
library's closed forms on label positions and masks. Three helpers at the
end only compose library calls for tests that use them; one of them is the
older mu check, which read surjectivity off the divisors of coordinates.
"""

from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod

import numpy as np

from prymlab import cover, weyl
from prymlab.cover import SplitMix64
from prymlab.errors import EquivarianceError, GenerationError
from prymlab.lattice import (
    SparseMatrix,
    _eliminate,
    divisors,
    image,
    mat_equal,
    matmul,
    solve_exact,
    sparse,
)
from prymlab.surface import HomologyModel


def det_cofactor(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += sign * rows[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def det_fraction_free(rows):
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def pfaffian_expansion(rows):
    """Pfaffian of an alternating matrix given as rows of Python ints, by
    expansion along the first row: Pf(A) = sum over j of (-1)^(j+1) a_0j
    Pf(A without rows and columns 0 and j). 1 at order 0, 0 at odd order.
    The reference for ``lattice.pfaffian``."""
    n = len(rows)
    if n == 0:
        return 1
    if n % 2:
        return 0
    total = 0
    for j in range(1, n):
        if rows[0][j]:
            keep = [k for k in range(1, n) if k != j]
            minor = [[rows[i][k] for k in keep] for i in keep]
            total += (-1) ** (j + 1) * rows[0][j] * pfaffian_expansion(minor)
    return total


def product_lists(a, b):
    """The product of two integer matrices given as rows of Python ints, one
    entry at a time as a sum over the inner index: the reference for
    ``lattice``'s dense and sparse products at every width."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return [[sum(row[t] * b[t][j] for t in range(inner)) for j in range(cols)] for row in a]


def minors_gcd_chain(rows):
    """Divisor chain d_1 | d_2 | ... from gcds of k x k minors.

    Early exit: the gcd of k-minors is always a multiple of the gcd of
    (k-1)-minors, so once it reaches that floor no smaller value can occur.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    chain = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        done = False
        for rsel in combinations(range(m), k):
            for csel in combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = gcd(g, det_fraction_free(sub))
                if g == prev:
                    done = True
                    break
            if done:
                break
        if g == 0:
            break
        chain.append(g // prev)
        prev = g
    return chain


def pairing(x, y, scale):
    return scale * sum(a * b for a, b in zip(x, y))


# -- homology chains as dicts, on a LoopHomologyModel ---------------------------
# (the helpers that read cyclic end orders or the dense basis B take the loop
# model, which keeps both; surface.HomologyModel keeps neither)


def _vertex_flows(model, chain):
    """Per vertex: inward flow indexed by position in the cyclic end order.
    Tail ends count edge coefficients negatively."""
    flows = {}
    for e, c in chain.items():
        for v, inward in ((model.edge_head[e], c), (model.edge_tail[e], -c)):
            _kind, ends = model.vertex_ends[v]
            flows.setdefault(v, [0] * len(ends))[ends.index(e)] += inward
    return flows


def intersection(model, z1, z2):
    """Algebraic intersection number of two 1-cycles.

    The second cycle is displaced to the right of every oriented edge, so its
    strand arrives just clockwise of a tail end and just counterclockwise of
    a head end; crossings with the first cycle's radial strands are then
    read off the cyclic order.
    """
    f1, f2 = _vertex_flows(model, z1), _vertex_flows(model, z2)
    total = 0
    for v, xs in f1.items():
        ys = f2.get(v)
        if ys is None:
            continue
        kind, _ends = model.vertex_ends[v]
        acc = 0
        run = 0
        if kind == "sheet":
            for x, y in zip(xs, ys):
                run += y
                acc += x * run
        else:
            for x, y in zip(xs, ys):
                acc += x * run
                run += y
        total -= acc
    return total


def boundary(model, chain):
    out = {}
    for e, c in chain.items():
        out[model.edge_head[e]] = out.get(model.edge_head[e], 0) + c
        out[model.edge_tail[e]] = out.get(model.edge_tail[e], 0) - c
    return {v: c for v, c in out.items() if c}


def substitute(chain, fiber, src_labels, dst_labels, arcs):
    """Image of an edge chain on one component under a fiber matrix indexed
    by the full label sets: edge (sheet, arc) goes to every (sheet', arc)."""
    img = {}
    for e, c in chain.items():
        s, arc = divmod(e, arcs)
        for t, t_label in enumerate(dst_labels):
            w = int(fiber[src_labels[s], t_label])
            if w:
                img[t * arcs + arc] = img.get(t * arcs + arc, 0) + c * w
    return {e: c for e, c in img.items() if c}


def class_of(model, chain):
    """Class of a 1-cycle in the model's basis: its edge coefficients times
    the model's class map, one stored entry (row, edge, value) at a time."""
    cm = model.class_map
    out = [0] * model.genus2
    for i, e, c in zip(cm.rows.tolist(), cm.cols.tolist(), cm.vals.tolist()):
        out[i] += c * chain.get(e, 0)
    return out


def sheet_crossings_by_products(B, degree, arcs):
    """The sheet vertices' part of the Gram, minus ``x^T cumsum(x)`` for
    each sheet vertex, x the rows of ``B`` at its ends and the columns
    that touch it, as one product on Python ints per vertex: the form
    ``surface`` summed it in before its row gathers, and their reference."""
    B = np.asarray(B).astype(object)
    g = B.shape[1]
    gram = np.full((g, g), 0, dtype=object)
    for s in range(degree):
        x = B[s * arcs:(s + 1) * arcs]
        cols = np.flatnonzero((x != 0).any(axis=0))
        x = x[:, cols]
        gram[np.ix_(cols, cols)] -= x.T @ np.cumsum(x, axis=0)
    return gram


def gram_by_vertices(model):
    """The Gram B^T Q B of a model summed one vertex at a time, each vertex
    by its own prefix-sum block over the basis columns that touch it, on
    Python ints: the per-vertex loop that ``surface`` batches its
    ramification vertices out of, one product per group of equal size.
    ``model`` is a ``LoopHomologyModel``."""
    B = np.asarray(model.B).astype(object)
    gram = np.full((model.genus2, model.genus2), 0, dtype=object)
    for kind, ends in model.vertex_ends:
        cols = np.flatnonzero((B[ends] != 0).any(axis=0))
        x = B[np.ix_(ends, cols)]
        run = np.cumsum(x, axis=0)
        if kind == "branch":
            run -= x
        gram[np.ix_(cols, cols)] -= x.T @ run
    return gram


# -- groups ---------------------------------------------------------------------


def generated_group_bfs(gens) -> set:
    """Closure of the generating set by breadth-first multiplication of
    ``weyl.SignedPerm``s, each product built and checked as one."""
    gens = list(dict.fromkeys(gens))
    seen = {weyl.SignedPerm.identity(gens[0].n)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for h in frontier:
            for g in gens:
                p = g * h
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return seen


def _transitive_with_inverses(gens, n) -> bool:
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                for y in (g(x), g.inverse()(x)):
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    return len(seen) == 2 * n


def _sign_block_of_group(group, n, allow_swap) -> bool:
    for bits in range(1 << (n - 1)):
        signs = [1] + [1 if (bits >> i) & 1 == 0 else -1 for i in range(n - 1)]
        block = frozenset(signs[j - 1] * j for j in range(1, n + 1))
        neg_block = frozenset(-x for x in block)
        ok = True
        for g in group:
            img = frozenset(g(x) for x in block)
            if img == block or (allow_swap and img == neg_block):
                continue
            ok = False
            break
        if ok:
            return True
    return False


def classify_by_enumeration(gens) -> "weyl.GroupClass":
    """``weyl.classify_subgroup`` read off the whole group: the even-parity
    and sign-block tests run on every element of ``generated_group_bfs``,
    and transitivity follows the generators and their inverses."""
    gens = list(gens)
    n = gens[0].n
    group = generated_group_bfs(gens)
    order = len(group)
    fact = factorial(n)
    if order == (1 << n) * fact:
        return weyl.GroupClass.FULL_B
    if order == (1 << (n - 1)) * fact and all(g.neg_count() % 2 == 0 for g in group):
        return weyl.GroupClass.FULL_D
    transitive = _transitive_with_inverses(gens, n)
    if order == 2 * fact and transitive and _sign_block_of_group(group, n, True):
        return weyl.GroupClass.NORMALIZER_G1
    if order == fact and _sign_block_of_group(group, n, False):
        return weyl.GroupClass.G1_CONJUGATE
    if not transitive:
        return weyl.GroupClass.INTRANSITIVE
    return weyl.GroupClass.OTHER


# -- random generation, one cover per draw ---------------------------------------


def random_simple_loop(n, count_s, count_l, seed):
    """``cover.random_simple`` as a rejection loop on ``SignedPerm``s: each
    draw multiplies its factors with ``*``, inverts the product, classifies
    it with ``reflection_kind``, and induces the vector cover of the datum
    to count its components. The reference for the library's loop on lookup
    tables; same stream, same datum or the same refusal."""
    if not 0 <= seed <= SplitMix64.MASK:
        raise GenerationError(f"seed must lie in [0, 2^64), got {seed}")
    if count_s < 0 or count_l < 0:
        raise GenerationError("reflection counts must be nonnegative")
    if count_s + count_l < 2:
        raise GenerationError("need at least two branch points")
    if count_s % 2 or count_l % 2:
        raise GenerationError(
            f"parity obstruction: counts ({count_s},{count_l}) cannot have identity product"
        )
    genera = cover.predict(n, count_s, count_l, 0).genera
    for curve in ("C'", "C"):
        if genera[curve] < 0:
            raise GenerationError(
                f"no datum for ({n}, {count_s}, {count_l}): Riemann-Hurwitz gives "
                f"g({curve}) = {genera[curve]} < 0; ruled out before any draw"
            )
    shorts = [weyl.reflection(r, n) for r in weyl.all_roots(n, kinds=("short",))]
    longs = [weyl.reflection(r, n) for r in weyl.all_roots(n, kinds=("long",))]
    if count_l and not longs:
        raise GenerationError(f"rank {n} has no long roots")
    rng = SplitMix64(seed)
    want_kind = "long" if count_l else "short"
    free_l = count_l - 1 if want_kind == "long" else count_l
    free_s = count_s if want_kind == "long" else count_s - 1
    for _ in range(cover.REJECTION_BOUND):
        gens = [shorts[rng.below(len(shorts))] for _ in range(free_s)]
        gens += [longs[rng.below(len(longs))] for _ in range(free_l)]
        prod = weyl.SignedPerm.identity(n)
        for g in gens:
            prod = prod * g
        last = prod.inverse()
        rk = weyl.reflection_kind(last)
        if rk is None or rk[0] != want_kind:
            continue
        gens.append(last)
        datum = cover.MonodromyDatum(n, 0, tuple(gens))
        model = cover.induce(datum, weyl.OrbitKind.VECTOR)
        if len(cover.components(model)) == 1:
            return datum
    raise GenerationError(
        f"no datum found for ({n}, {count_s}, {count_l}) after {cover.REJECTION_BOUND} draws"
    )


# -- Smith elimination on lists, one operation at a time -----------------------


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


def check_equivariance_all_roots(n, src_orbit, dst_orbit, matrix):
    """Equivariance of a fiber matrix under every reflection of the group,
    compared entry by entry: the reference for the library's check on the
    simple reflections alone."""
    m = np.asarray(matrix, dtype=object)
    src = weyl.orbit_labels(src_orbit, n)
    dst = weyl.orbit_labels(dst_orbit, n)
    if m.shape != (len(src), len(dst)):
        raise ValueError("matrix shape does not match the orbit sizes")
    for root in weyl.all_roots(n):
        w = weyl.reflection(root, n)
        ps = perm_on_orbit_by_values(w, src_orbit)
        pd = perm_on_orbit_by_values(w, dst_orbit)
        for i in range(len(src)):
            for j in range(len(dst)):
                if m[ps[i], pd[j]] != m[i, j]:
                    raise EquivarianceError(
                        f"matrix not equivariant under reflection {root}"
                    )


# -- orbit actions and fiber matrices on label values ----------------------------


def act_on_value(w, label):
    """Action on an orbit label through its value: a signed index, a subset
    pushed through ``w`` one sign at a time, or a quotient of those. The
    reference for the library's action on label positions."""
    kind, value = label.kind, label.value
    if kind is weyl.OrbitKind.VECTOR:
        return weyl.vector_label(w(value))
    if kind is weyl.OrbitKind.SPINOR:
        return weyl.spinor_label(_act_subset(w, value))
    if kind is weyl.OrbitKind.PAIR_CLASS:
        return weyl.pair_label(abs(w(value)))
    if kind is weyl.OrbitKind.PARITY:
        return weyl.parity_label(value + w.neg_count())
    return weyl.spinor_class_label(_act_subset(w, value[0]), w.n)


def _act_subset(w, subset):
    # sign pattern: -1 on members, +1 off members; push through w
    inside = set(subset)
    out = []
    for j in range(1, w.n + 1):
        v = w(j)
        sign = -1 if j in inside else 1
        if v < 0:
            sign = -sign
        if sign < 0:
            out.append(abs(v))
    return tuple(sorted(out))


def perm_on_orbit_by_values(w, kind):
    labels = weyl.orbit_labels(kind, w.n)
    index = {lab: i for i, lab in enumerate(labels)}
    return tuple(index[act_on_value(w, lab)] for lab in labels)


def _subsets(n):
    return [set(lab.value) for lab in weyl.orbit_labels(weyl.OrbitKind.SPINOR, n)]


def _signed(n):
    return [lab.value for lab in weyl.orbit_labels(weyl.OrbitKind.VECTOR, n)]


def _matrix(rows, cols, entry):
    m = np.full((len(rows), len(cols)), 0, dtype=object)
    for a, x in enumerate(rows):
        for b, y in enumerate(cols):
            m[a, b] = entry(x, y)
    return m


def fiber_D(n):
    subs = _subsets(n)
    return _matrix(subs, subs, lambda A, B: len(A ^ B) - 1 if A != B else 0)


def fiber_S0(n):
    return _matrix(
        _subsets(n), _signed(n), lambda A, v: int((v > 0 and v in A) or (v < 0 and -v not in A))
    )


def fiber_Di(n, i):
    subs = _subsets(n)
    return _matrix(subs, subs, lambda A, B: int(len(A ^ B) == i + 1))


def fiber_sigma(n):
    subs = _subsets(n)
    full = set(range(1, n + 1))
    return _matrix(subs, subs, lambda A, B: int(B == full - A))


def fiber_negation(n):
    signed = _signed(n)
    return _matrix(signed, signed, lambda v, u: int(u == -v))


def fiber_parity_incidence(n):
    return _matrix(_subsets(n), (0, 1), lambda A, p: int(len(A) % 2 == p))


def fiber_parity_indicator(n, parity):
    return _matrix(_subsets(n), (0,), lambda A, _: int(len(A) % 2 == parity % 2))


def weight_vectors_by_values(n, weight):
    """Orbit weight vectors read off the label values."""
    if weight == "vector":
        return [
            tuple(Fraction(v // j) if abs(v) == j else Fraction(0) for j in range(1, n + 1))
            for v in _signed(n)
        ]
    return [
        tuple(Fraction(-1, 2) if j in A else Fraction(1, 2) for j in range(1, n + 1))
        for A in _subsets(n)
    ]


# -- the divisor chain modulo the determinant ---------------------------------


def chain_mod_lists(rows, D: int) -> tuple:
    """Divisor chain of a nonsingular n x n integer matrix with ``|det| == D``,
    by Smith elimination modulo D (Cohen, Alg. 2.4.14; no transforms), on
    lists of Python ints one entry at a time: the reference for the
    library's whole-line ``lattice._chain_mod``.

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


# -- integral solving through the full transforms ------------------------------


def solve_exact_via_u(a, b):
    """Integer solution X of ``a X = b`` from the list elimination's U and
    V: U b divided by the pivots, then V times that, with U b formed after
    the elimination as a product. The reference for the library's solving,
    which carries b through the row operations instead. Raises ValueError
    when no integral solution exists; ``a`` and ``b`` have one row count."""
    st = _snf_state(a)
    b = [[int(x) for x in row] for row in np.asarray(b, dtype=object)]
    k = len(b[0]) if b else 0
    ub = [[sum(st.u[i][l] * b[l][j] for l in range(st.m)) for j in range(k)]
          for i in range(st.m)]
    pivots = [st.a[i][i] for i in range(min(st.m, st.n)) if st.a[i][i]]
    r = len(pivots)
    if any(x % p for p, row in zip(pivots, ub) for x in row) or any(
        x for row in ub[r:] for x in row
    ):
        raise ValueError("no integral solution")
    y = [[ub[i][j] // pivots[i] if i < r else 0 for j in range(k)] for i in range(st.n)]
    return [[sum(st.v[i][l] * y[l][j] for l in range(st.n)) for j in range(k)]
            for i in range(st.n)]


def contains_via_u(basis, vectors) -> bool:
    """Whether ``solve_exact_via_u`` finds a solution."""
    try:
        solve_exact_via_u(basis, vectors)
        return True
    except ValueError:
        return False


# -- helpers only the tests call ------------------------------------------------


def sum_lattices(a, b):
    """Basis of the lattice generated by both column spans."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    if a.shape[0] != b.shape[0]:
        raise ValueError("ambient rank mismatch")
    return image(np.concatenate([a, b], axis=1))


def build(cover_model):
    """Homology basis with intersection Gram for a connected cover of the
    rational base; deterministic for a fixed cover."""
    return HomologyModel(cover_model)


class LoopHomologyModel(HomologyModel):
    """The homology model built one sheet, arc, edge and vertex at a time:
    cycles of the local monodromies walked sheet by sheet, faces as dicts
    (edge -> coefficient), the boundary map from a list of ends, the tree
    closed one vertex at a time from the leaves, and the Gram summed one
    vertex at a time. The reference for ``surface.HomologyModel``'s array
    passes; the relation elimination is the library's. It keeps what the
    array model drops after its build: the dense cycle basis ``B`` (edge by
    basis cycle), every vertex's ends in cyclic order (``vertex_ends``, a
    list of ``(kind, ends)``) and the boundary map."""

    def _build_complex(self):
        cov = self.cover
        d = cov.degree
        k = len(cov.perms)
        self.degree = d
        self.arc_count = k
        inv_perms = []
        for p in cov.perms:
            inv = [0] * d
            for i, v in enumerate(p):
                inv[v] = i
            inv_perms.append(inv)
        # vertices: sheets first, then one per monodromy cycle of each arc
        self.vertex_count = d
        branch_vertex = {}  # (arc, sheet) -> vertex id
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
                    t = inv_perms[i][t]
                for t in cyc:
                    branch_vertex[(i, t)] = vid
                cycle_members[vid] = (i, cyc)
        self.edge_count = d * k
        self.edge_tail = [e // k for e in range(self.edge_count)]
        self.edge_head = [branch_vertex[(e % k, e // k)] for e in range(self.edge_count)]
        self.vertex_ends = [("sheet", [s * k + i for i in range(k)]) for s in range(d)]
        for vid in range(d, self.vertex_count):
            i, cyc = cycle_members[vid]
            self.vertex_ends.append(("branch", [t * k + i for t in cyc]))
        self.most_ends = max(len(ends) for _kind, ends in self.vertex_ends)
        ends = [(v, e, 1 if kind == "branch" else -1)
                for v, (kind, es) in enumerate(self.vertex_ends) for e in es]
        rows, cols, vals = (np.array(col, dtype=np.int64) for col in zip(*ends))
        self.boundary_map = SparseMatrix((self.vertex_count, self.edge_count), rows, cols, vals)
        # face boundaries: one per sheet, arcs in ascending order
        self.faces = []
        for t in range(d):
            chain = {}
            s = t
            for i in range(k):
                chain[s * k + i] = chain.get(s * k + i, 0) + 1
                s2 = inv_perms[i][s]
                chain[s2 * k + i] = chain.get(s2 * k + i, 0) - 1
                s = s2
            if s != t:
                raise AssertionError("face walk failed to close")
            self.faces.append(chain)

    def _build_cycles(self):
        V, E = self.vertex_count, self.edge_count
        adj = [[] for _ in range(V)]
        for e in range(E):
            adj[self.edge_tail[e]].append((e, self.edge_head[e]))
            adj[self.edge_head[e]].append((e, self.edge_tail[e]))
        for lst in adj:
            lst.sort()
        parent = [None] * V
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
        m = len(self.nontree)
        pos = {e: i for i, e in enumerate(self.nontree)}
        rel = np.zeros((m, len(self.faces)), dtype=np.int64)
        for t, chain in enumerate(self.faces):
            for e, c in chain.items():
                if not in_tree[e]:
                    rel[pos[e], t] = c
        d, r, U, Uinv = _eliminate(rel, ("u", "uinv"))
        if (np.diagonal(d)[:r] != 1).any():
            raise AssertionError("homology acquired torsion")
        self.genus2 = m - r
        self.genus = self.genus2 // 2
        C = np.asarray(U[r:], dtype=np.int64)
        nonzero = sparse(C)
        self.class_map = replace(
            nonzero, shape=(self.genus2, E), cols=np.array(self.nontree)[nonzero.cols]
        )
        B = np.zeros((E, self.genus2), dtype=np.int64)
        B[self.nontree] = np.asarray(Uinv[:, r:], dtype=np.int64)
        inflow = np.zeros((V, self.genus2), dtype=np.int64)
        for e in self.nontree:
            inflow[self.edge_head[e]] += B[e]
            inflow[self.edge_tail[e]] -= B[e]
        for v in reversed(order[1:]):
            e, w = parent[v]
            B[e] = inflow[v] if self.edge_tail[e] == v else -inflow[v]
            inflow[w] += inflow[v]
        self.B = B
        self.sheet_chains = sparse(B.reshape(self.degree, -1).T)
        return B

    def _build_gram(self, B):
        self._gram64 = gram_by_vertices(self).astype(np.int64)


def mu_check_via_divisors(HX, pprime, incidence):
    """``(surjective, scaling)`` as the mu check read them before it
    decided surjectivity by containment: the coordinates of the incidence
    map B in the basis of ``pprime`` by ``solve_exact``, surjective when
    their ``divisors`` are rank-many ones. The reference for ``mu_check``."""
    A, B = incidence
    prym_basis = pprime.basis
    try:
        coords = solve_exact(prym_basis, B)
    except ValueError:
        # image escapes the Prym lattice: certainly not onto it
        return False, False
    chain = divisors(coords)
    surjective = len(chain) == prym_basis.shape[1] and all(d == 1 for d in chain)
    lifted = HX.sublattice(matmul(A, prym_basis))
    scaling = mat_equal(
        lifted.restricted_gram(),
        2 ** (HX.cover.datum.n - 1) * pprime.restricted_gram(),
    )
    return surjective, scaling
