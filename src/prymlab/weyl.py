"""Signed permutations and the reflection groups they generate.

An element acts on the signed indices {-n, ..., -1, 1, ..., n} and commutes
with negation, so it is stored by the images of the positive indices alone.
Composition follows function application: ``(w * v)(j) == w(v(j))``.
``SignedPerm.__mul__`` composes pointwise and checks the product; the loops
that compose many elements (the group order, random generation) run on one
lookup-table form instead, ``table[v + n] == w(v)`` for v in -n..n, and
compose a list of tables by one lookup per index and factor.

The weight orbits that drive the covering constructions are realised as
concrete label sets, and each label has one position in its orbit, given in
closed form:

* vector labels -- the signed indices (orbit size ``2n``); ``+j`` sits at
  ``2(j-1)`` and ``-j`` at ``2(j-1) + 1``;
* spinor labels -- subsets of ``{1..n}``, one per sign pattern of the
  half-sum weight (orbit size ``2**n``); a subset sits at its bitmask, bit
  ``j-1`` set iff ``j`` is a member;
* pair labels -- the unordered pairs ``{j, -j}`` (orbit size ``n``); ``j``
  sits at ``j-1``;
* parity labels -- even/odd subset size, a two-element quotient; parity
  ``p`` sits at ``p``;
* spinor-class labels -- unordered pairs ``{A, complement(A)}`` (orbit size
  ``2**(n-1)``); a class sits at the smaller of its two masks.

The position is the one encoding of an orbit action: ``perm_on_orbit``
reads the permutation of positions off the images of ``1..n``, and fiber
matrices are indexed by positions. Label objects are for input and output.

Text form used by the CLI: a signed permutation is the list of images of
``1..n``, e.g. ``[-1, 2, 3]`` for the sign flip of the first index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from .errors import RankError

RANK_MAX = 8


@dataclass(frozen=True)
class SignedPerm:
    """A bijection of {+-1..+-n} commuting with negation."""

    n: int
    image: tuple

    def __post_init__(self):
        # a list image would make the value unequal to its tuple twin and
        # unhashable
        object.__setattr__(self, "image", tuple(self.image))
        if not 1 <= self.n <= RANK_MAX:
            raise RankError(f"rank must be in 1..{RANK_MAX}, got {self.n}")
        if len(self.image) != self.n:
            raise ValueError("image must list the images of 1..n")
        if sorted(abs(v) for v in self.image) != list(range(1, self.n + 1)):
            raise ValueError(f"not a signed permutation: {self.image!r}")

    @classmethod
    def identity(cls, n: int) -> "SignedPerm":
        return cls(n, tuple(range(1, n + 1)))

    def to_list(self) -> list:
        return list(self.image)

    def __call__(self, j: int) -> int:
        if 0 < abs(j) <= self.n:
            return self.image[j - 1] if j > 0 else -self.image[-j - 1]
        raise ValueError(f"signed index must lie in +-1..+-{self.n}, got {j}")

    def __mul__(self, other: "SignedPerm") -> "SignedPerm":
        if self.n != other.n:
            raise ValueError("rank mismatch in composition")
        return SignedPerm(self.n, tuple(self(v) for v in other.image))

    def inverse(self) -> "SignedPerm":
        img = [0] * self.n
        for j in range(1, self.n + 1):
            v = self.image[j - 1]
            if v > 0:
                img[v - 1] = j
            else:
                img[-v - 1] = -j
        return SignedPerm(self.n, tuple(img))

    def is_identity(self) -> bool:
        return self.image == tuple(range(1, self.n + 1))

    def neg_count(self) -> int:
        """Number of positive indices sent to negative ones."""
        return sum(1 for v in self.image if v < 0)

    def __repr__(self):
        return f"SignedPerm({list(self.image)})"


def commutator(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    return a * b * a.inverse() * b.inverse()


@dataclass(frozen=True)
class Root:
    """A short root (one index) or long root (two indices, relative sign).

    ``Root("short", j)`` is the sign flip of index ``j``;
    ``Root("long", j, k, sign)`` is ``e_j + sign*e_k`` with ``j < k``.
    """

    kind: str
    j: int
    k: int = 0
    sign: int = 1

    def __post_init__(self):
        if self.kind not in ("short", "long"):
            raise ValueError(f"unknown root kind {self.kind!r}")
        if self.j < 1:
            raise ValueError("indices are 1-based")
        if self.kind == "short":
            if self.k != 0:
                raise ValueError("short roots carry a single index")
        else:
            if self.k < 1 or self.k == self.j:
                raise ValueError("long roots need two distinct indices")
            if self.sign not in (1, -1):
                raise ValueError("long root sign must be +-1")


def short_root(j: int) -> Root:
    return Root("short", j)


def long_root(j: int, k: int, sign: int) -> Root:
    if j > k:
        j, k = k, j
    return Root("long", j, k, sign)


def all_roots(n: int, kinds=("short", "long")) -> list:
    roots = []
    if "short" in kinds:
        roots.extend(short_root(j) for j in range(1, n + 1))
    if "long" in kinds:
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                roots.append(long_root(j, k, -1))
                roots.append(long_root(j, k, +1))
    return roots


def simple_roots(n: int) -> list:
    """``e_j - e_(j+1)`` for ``j < n`` and ``e_n``: their reflections generate
    the whole signed-permutation group."""
    return [long_root(j, j + 1, -1) for j in range(1, n)] + [short_root(n)]


def reflection(root: Root, n: int) -> SignedPerm:
    """The reflection attached to a root, as a signed permutation.

    A short root flips its index; ``e_j - e_k`` swaps ``j`` and ``k``;
    ``e_j + e_k`` swaps them with a sign flip.
    """
    if root.j > n or (root.kind == "long" and root.k > n):
        raise RankError(f"root {root} does not fit in rank {n}")
    img = list(range(1, n + 1))
    if root.kind == "short":
        img[root.j - 1] = -root.j
    elif root.sign == -1:
        img[root.j - 1] = root.k
        img[root.k - 1] = root.j
    else:
        img[root.j - 1] = -root.k
        img[root.k - 1] = -root.j
    return SignedPerm(n, tuple(img))


def reflection_kind(w: SignedPerm):
    """Classify ``w`` as a reflection: returns ("short", root), ("long", root)
    or None."""
    moved = [j for j in range(1, w.n + 1) if w(j) != j]
    if len(moved) == 1:
        j = moved[0]
        if w(j) == -j:
            return ("short", short_root(j))
        return None
    if len(moved) == 2:
        j, k = moved
        if w(j) == k and w(k) == j:
            return ("long", long_root(j, k, -1))
        if w(j) == -k and w(k) == -j:
            return ("long", long_root(j, k, +1))
    return None


# ---------------------------------------------------------------------------
# orbit labels


class OrbitKind(str, Enum):
    VECTOR = "vector"
    SPINOR = "spinor"
    PAIR_CLASS = "pairclass"
    PARITY = "parity"
    SPINOR_CLASS = "spinorclass"


@dataclass(frozen=True)
class OrbitLabel:
    kind: OrbitKind
    value: object

    def __repr__(self):
        return f"OrbitLabel({self.kind.value}, {self.value!r})"


def vector_label(j: int) -> OrbitLabel:
    if j == 0:
        raise ValueError("vector labels are nonzero signed indices")
    return OrbitLabel(OrbitKind.VECTOR, j)


def spinor_label(subset) -> OrbitLabel:
    return OrbitLabel(OrbitKind.SPINOR, tuple(sorted(set(subset))))


def pair_label(j: int) -> OrbitLabel:
    if j < 1:
        raise ValueError("pair labels are positive indices")
    return OrbitLabel(OrbitKind.PAIR_CLASS, j)


def parity_label(parity: int) -> OrbitLabel:
    # 0 = even subset size, 1 = odd
    return OrbitLabel(OrbitKind.PARITY, parity % 2)


def _mask(subset) -> int:
    m = 0
    for j in subset:
        m |= 1 << (j - 1)
    return m


def _unmask(mask: int) -> tuple:
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def spinor_class_label(subset, n: int) -> OrbitLabel:
    a = _mask(subset)
    b = ((1 << n) - 1) ^ a
    return OrbitLabel(OrbitKind.SPINOR_CLASS, (_unmask(min(a, b)), _unmask(max(a, b))))


@lru_cache(maxsize=None)
def orbit_labels(kind: OrbitKind, n: int) -> tuple:
    """Canonical ordered labels of a weight orbit: the label at position i
    is the one whose closed-form position (module docstring) is i. These
    orders fix every matrix in the package bit-for-bit."""
    kind = OrbitKind(kind)
    if kind is OrbitKind.VECTOR:
        out = []
        for j in range(1, n + 1):
            out.extend((vector_label(j), vector_label(-j)))
        return tuple(out)
    if kind is OrbitKind.SPINOR:
        return tuple(spinor_label(_unmask(m)) for m in range(1 << n))
    if kind is OrbitKind.PAIR_CLASS:
        return tuple(pair_label(j) for j in range(1, n + 1))
    if kind is OrbitKind.PARITY:
        return (parity_label(0), parity_label(1))
    return tuple(spinor_class_label(_unmask(m), n) for m in range(1 << (n - 1)))


@lru_cache(maxsize=None)
def _label_index(kind: OrbitKind, n: int):
    return {lab: i for i, lab in enumerate(orbit_labels(kind, n))}


def act(w: SignedPerm, label: OrbitLabel) -> OrbitLabel:
    """Action of a signed permutation on an orbit label: the label at the
    image of its position under ``perm_on_orbit``. A label that is not one
    of the rank-n orbit's canonical labels raises ``RankError``."""
    i = _label_index(OrbitKind(label.kind), w.n).get(label)
    if i is None:
        raise RankError(f"label {label!r} is not a canonical label in rank {w.n}")
    return orbit_labels(label.kind, w.n)[perm_on_orbit(w, label.kind)[i]]


def perm_on_orbit(w: SignedPerm, kind: OrbitKind) -> tuple:
    """Index permutation induced on the label positions: position i maps to
    ``perm[i]``. Each kind reads it off ``w.image`` in closed form."""
    kind = OrbitKind(kind)
    if kind is OrbitKind.VECTOR:
        perm = []
        for v in w.image:
            p = 2 * (abs(v) - 1)
            perm.extend((p, p + 1) if v > 0 else (p + 1, p))
        return tuple(perm)
    if kind is OrbitKind.PAIR_CLASS:
        return tuple(abs(v) - 1 for v in w.image)
    if kind is OrbitKind.PARITY:
        return (1, 0) if w.neg_count() % 2 else (0, 1)
    # subset A is the sign pattern -1 on A, and w sends e_j to
    # sign(w(j)) e_|w(j)|: the image of mask 0 is the mask of the negated
    # targets, and member j of A toggles bit |w(j)| - 1 of the image
    spin = [_mask(-v for v in w.image if v < 0)]
    for v in w.image:
        spin += [m ^ (1 << (abs(v) - 1)) for m in spin]
    if kind is OrbitKind.SPINOR:
        return tuple(spin)
    full = (1 << w.n) - 1
    return tuple(min(m, full ^ m) for m in spin[: 1 << (w.n - 1)])


# ---------------------------------------------------------------------------
# subgroup classification


class GroupClass(str, Enum):
    FULL_B = "FullB"
    FULL_D = "FullD"
    NORMALIZER_G1 = "NormalizerG1"
    G1_CONJUGATE = "G1Conjugate"
    INTRANSITIVE = "Intransitive"
    OTHER = "Other"


def _table(w: SignedPerm) -> list:
    """``w`` as a lookup table on the signed indices: ``table[v + n] == w(v)``."""
    return [-v for v in reversed(w.image)] + [0] + list(w.image)


def _compose(tables, n: int) -> tuple:
    """Images of 1..n under the product of a nonempty list of tables, first
    factor outermost."""
    img = tables[-1][n + 1 :]
    for table in tables[-2::-1]:
        img = [table[v + n] for v in img]
    return tuple(img)


def _order(gens, n: int) -> int:
    """Order of the group generated by rank-n signed permutations, by a
    stabiliser chain down the base 1..n (Sims 1970; Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, ch. 4).

    At base point b the level's generators fix 1..b-1. The orbit of b,
    with a transversal u (u[x] sends b to x), is one factor of the order,
    and the Schreier generators u[g(x)]^-1 g u[x] generate the stabiliser
    of b, the next level. Sims' filter keeps at most one of them per (first
    moved index, its image): a generator whose pair is taken is reduced by
    the kept element's inverse, which then fixes that index, until its
    pair is free or it is the identity. Elements are lookup tables
    (``_table``), and ``[a[v + n] for v in b]`` is the table of ``a * b``."""

    def inverse(t):
        inv = [0] * (2 * n + 1)
        for i, v in enumerate(t):
            inv[v + n] = i - n
        return inv

    one = list(range(-n, n + 1))
    level = [_table(g) for g in gens]
    order = 1
    for b in range(1, n + 1):
        orbit, u = [b], {b: one}
        for x in orbit:
            for t in level:
                y = t[x + n]
                if y not in u:
                    orbit.append(y)
                    u[y] = [t[v + n] for v in u[x]]
        order *= len(orbit)
        u_inv = {x: inverse(ux) for x, ux in u.items()}
        kept = {}
        for x, ux in u.items():
            for t in level:
                s = [u_inv[t[x + n]][t[v + n] + n] for v in ux]
                for j in range(b + 1, n + 1):
                    if (j, s[j + n]) in kept:
                        s = [kept[j, s[j + n]][1][v + n] for v in s]
                    elif s[j + n] != j:
                        kept[j, s[j + n]] = (s, inverse(s))
                        break
        level = [k for k, _ in kept.values()]
    return order


def _is_transitive_signed(gens, n: int) -> bool:
    # orbit of +1 on the 2n signed indices under the generators; in a finite
    # group every inverse is a power, so the orbit needs no inverses
    orbit = {1}
    frontier = {1}
    while frontier:
        frontier = {g(x) for x in frontier for g in gens} - orbit
        orbit |= frontier
    return len(orbit) == 2 * n


def _sign_block(gens, n: int, allow_swap: bool):
    """Search for a sign choice S = {t_j * j} that every generator keeps (or,
    with ``allow_swap``, keeps or swaps with -S). Returns the sign vector or
    None."""
    for bits in range(1 << (n - 1)):  # t_1 fixed +1; -S gives the same block pair
        signs = [1] + [1 if (bits >> i) & 1 == 0 else -1 for i in range(n - 1)]
        block = frozenset(signs[j - 1] * j for j in range(1, n + 1))
        kept = (block, frozenset(-x for x in block)) if allow_swap else (block,)
        if all(frozenset(g(x) for x in block) in kept for g in gens):
            return signs
    return None


def classify_subgroup(gens) -> GroupClass:
    """Identify the group generated inside the rank-n signed permutations.

    Exact at every rank up to RANK_MAX. The group order comes from a
    stabiliser chain (``_order``); every other test reads the generators:

    * the parity of the negation count is a homomorphism, so the group lies
      in the even subgroup when every generator does;
    * a sign block that every generator keeps, or swaps with its negative,
      is kept or swapped by every product;
    * a finite group is transitive on the signed indices when the orbit of
      +1 under the generators alone is.

    Repeated generators (data often repeat a reflection) are taken once.
    """
    gens = list(dict.fromkeys(gens))
    if not gens:
        raise ValueError("need at least one generator")
    n = gens[0].n
    if any(g.n != n for g in gens):
        raise ValueError("generators of mixed rank")
    order = _order(gens, n)
    fact = math.factorial(n)
    if order == (1 << n) * fact:
        return GroupClass.FULL_B
    if order == (1 << (n - 1)) * fact and all(g.neg_count() % 2 == 0 for g in gens):
        return GroupClass.FULL_D
    transitive = _is_transitive_signed(gens, n)
    if order == 2 * fact and transitive and _sign_block(gens, n, allow_swap=True):
        return GroupClass.NORMALIZER_G1
    if order == fact and _sign_block(gens, n, allow_swap=False):
        return GroupClass.G1_CONJUGATE
    if not transitive:
        return GroupClass.INTRANSITIVE
    return GroupClass.OTHER
