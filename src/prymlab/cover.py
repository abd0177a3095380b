"""Monodromy data and the covers they induce on weight orbits.

A datum lists the images of the loops around branch points (and of the
handle loops for positive base genus) as signed permutations, subject to the
surface-group product relation. Inducing along an orbit kind turns it into a
finite cover of the base with one sheet per orbit label; branch points are
abstract indices, no coordinates are ever stored, so every derived matrix is
reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import weyl
from .errors import DisconnectedError, GenerationError, MonodromyError, RankError
from .weyl import OrbitKind, SignedPerm


@dataclass(frozen=True)
class MonodromyDatum:
    n: int
    base_genus: int
    gens: tuple
    handles: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "gens", tuple(self.gens))
        object.__setattr__(
            self, "handles", tuple(_handle_pair(k, pair) for k, pair in enumerate(self.handles))
        )
        if self.base_genus < 0:
            raise MonodromyError("base genus must be nonnegative")
        if any(g.n != self.n for g in self.gens):
            raise MonodromyError("generator rank mismatch")
        for a, b in self.handles:
            if a.n != self.n or b.n != self.n:
                raise MonodromyError("handle rank mismatch")
        if len(self.handles) != self.base_genus:
            raise MonodromyError("need one handle pair per unit of base genus")
        if not self.gens and self.base_genus == 0:
            raise MonodromyError("a genus-0 datum needs at least one branch point")


def _handle_pair(k: int, pair) -> tuple:
    """Handle ``k`` of a datum as a tuple ``(a, b)`` of signed permutations."""
    try:
        pair = tuple(pair)
    except TypeError:
        pair = None
    if pair is None or len(pair) != 2 or not all(isinstance(w, SignedPerm) for w in pair):
        raise MonodromyError(f"handle {k} is not a pair (a, b) of signed permutations")
    return pair


@dataclass(frozen=True)
class ViolationReport:
    message: str
    offending_product: SignedPerm


def validate(datum: MonodromyDatum):
    """Check the product relation exactly. Returns None when the datum is
    consistent, else a report carrying the offending product."""
    prod = SignedPerm.identity(datum.n)
    for g in datum.gens:
        prod = prod * g
    rhs = SignedPerm.identity(datum.n)
    for a, b in datum.handles:
        rhs = rhs * weyl.commutator(a, b)
    if prod.image != rhs.image:
        return ViolationReport(
            "product of branch generators does not match the handle commutators",
            prod * rhs.inverse(),
        )
    return None


def require_valid(datum: MonodromyDatum):
    report = validate(datum)
    if report is not None:
        raise MonodromyError(
            f"{report.message}; offending product {report.offending_product.to_list()}"
        )


@dataclass(frozen=True)
class CoverModel:
    """A cover of the base induced on a weight orbit.

    ``perms[i]`` is the index permutation of the canonical labels under
    branch generator i (position p maps to ``perms[i][p]``); handle loops
    contribute ``handle_perms``. ``sublabels`` is set when the model is the
    restriction of a larger one to a connected component.
    """

    datum: MonodromyDatum
    orbit: OrbitKind
    labels: tuple
    perms: tuple
    handle_perms: tuple = ()
    sublabels: tuple = None

    @property
    def degree(self) -> int:
        return len(self.labels)

    def all_perms(self) -> list:
        out = list(self.perms)
        for a, b in self.handle_perms:
            out.extend((a, b))
        return out


def induce(datum: MonodromyDatum, orbit: OrbitKind) -> CoverModel:
    """Cover on the chosen orbit, labels in canonical order."""
    require_valid(datum)
    orbit = OrbitKind(orbit)
    labels = weyl.orbit_labels(orbit, datum.n)
    perms = tuple(weyl.perm_on_orbit(g, orbit) for g in datum.gens)
    handle_perms = tuple(
        (weyl.perm_on_orbit(a, orbit), weyl.perm_on_orbit(b, orbit))
        for a, b in datum.handles
    )
    return CoverModel(datum, orbit, labels, perms, handle_perms)


def components(cover: CoverModel) -> list:
    """Orbits of the monodromy group on the sheet labels, as sorted index
    tuples (handle images included); one part means the cover is connected."""
    d = cover.degree
    parent = list(range(d))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in cover.all_perms():
        for i in range(d):
            ri, rj = find(i), find(p[i])
            if ri != rj:
                parent[ri] = rj
    groups = {}
    for i in range(d):
        groups.setdefault(find(i), []).append(i)
    return sorted((tuple(sorted(g)) for g in groups.values()), key=lambda t: t[0])


def component_cover(cover: CoverModel, component) -> CoverModel:
    """Restriction of a cover to one connected component of its sheets."""
    comp = tuple(component)
    pos = {s: i for i, s in enumerate(comp)}

    def restrict(p):
        return tuple(pos[p[s]] for s in comp)

    return CoverModel(
        cover.datum,
        cover.orbit,
        tuple(cover.labels[s] for s in comp),
        tuple(restrict(p) for p in cover.perms),
        tuple((restrict(a), restrict(b)) for a, b in cover.handle_perms),
        sublabels=comp,
    )


def cycle_type(perm) -> tuple:
    """Cycle lengths, descending."""
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        out.append(length)
    return tuple(sorted(out, reverse=True))


@dataclass(frozen=True)
class RamificationReport:
    cycle_types: tuple          # per branch point, descending cycle lengths
    reflection_kinds: tuple     # per generator: "short" | "long" | None
    short_points: tuple         # indices with short-type local monodromy
    long_points: tuple          # indices with long-type local monodromy
    simple: bool                # all local monodromies are reflections


def ramification(cover: CoverModel) -> RamificationReport:
    """Cycle types per branch point plus the short/long split of the branch
    locus when all local monodromies are reflections."""
    kinds = []
    for g in cover.datum.gens:
        rk = weyl.reflection_kind(g)
        kinds.append(rk[0] if rk else None)
    types = tuple(cycle_type(p) for p in cover.perms)
    if cover.orbit is OrbitKind.SPINOR and cover.sublabels is None:
        _check_spinor_transposition_counts(cover, kinds, types)
    short_pts = tuple(i for i, k in enumerate(kinds) if k == "short")
    long_pts = tuple(i for i, k in enumerate(kinds) if k == "long")
    return RamificationReport(
        cycle_types=types,
        reflection_kinds=tuple(kinds),
        short_points=short_pts,
        long_points=long_pts,
        simple=all(k is not None for k in kinds),
    )


def _check_spinor_transposition_counts(cover, kinds, types):
    # a short reflection moves every sheet, a long one moves half of them
    n = cover.datum.n
    for k, t in zip(kinds, types):
        if k is None:
            continue
        transpositions = sum(1 for c in t if c == 2)
        expected = 2 ** (n - 1) if k == "short" else 2 ** (n - 2)
        if transpositions != expected or any(c > 2 for c in t):
            raise AssertionError(
                f"spinor ramification count broke: {k} generator gave {t}"
            )


def total_ramification(cover: CoverModel) -> int:
    return sum(cover.degree - len(cycle_type(p)) for p in cover.perms)


def genus(cover: CoverModel) -> int:
    """Genus of the (connected) cover by the Riemann-Hurwitz count."""
    comps = components(cover)
    if len(comps) != 1:
        raise DisconnectedError(
            f"cover splits into {len(comps)} components; ask per component",
            components=comps,
        )
    return _riemann_hurwitz(cover)


def _riemann_hurwitz(cover: CoverModel) -> int:
    """The Riemann-Hurwitz count of ``genus`` for a cover already known to
    be connected."""
    d = cover.degree
    gy = cover.datum.base_genus
    ram = total_ramification(cover)
    if ram % 2 != 0:
        raise MonodromyError("odd total ramification; datum cannot close up")
    return 1 - d * (1 - gy) + ram // 2


# ---------------------------------------------------------------------------
# closed-form predictions


@dataclass(frozen=True)
class Prediction:
    n: int
    branch_short: int
    branch_long: int
    base_genus: int
    genera: dict
    dims: dict
    types: dict
    out_of_regime: tuple
    notes: tuple


def _type_chain(*groups) -> tuple:
    out = []
    for value, count in groups:
        out.extend([value] * count)
    return tuple(out)


def predict(n: int, branch_short: int, branch_long: int, base_genus: int) -> Prediction:
    """Closed-form genera, Prym dimensions and predicted polarization types.

    Types follow the rank-2 and rank-3 theorems (any base genus) and the
    general-rank conjecture over the rational base. Groups with negative
    predicted multiplicities are flagged out of regime instead of clamped.
    """
    ds, dl, gy = branch_short, branch_long, base_genus
    if not 1 <= n <= weyl.RANK_MAX:
        raise RankError(f"rank must be at least 1 and at most {weyl.RANK_MAX}, got {n}")
    if ds < 0 or dl < 0 or ds % 2 or dl % 2:
        raise ValueError("branch counts must be even and nonnegative")
    if gy < 0:
        raise ValueError(f"base genus must be nonnegative, got {gy}")
    # on the degree-n pair-class cover C' only long reflections act, as transpositions
    g_cprime = dl // 2 + n * gy - n + 1
    g_c = ds // 2 + dl + 2 * n * gy - 2 * n + 1
    if n >= 3:
        g_x = 2 ** (n - 2) * ds + 2 ** (n - 3) * dl + 2**n * gy - 2**n + 1
    elif n == 2:
        g_x = ds + dl // 2 + 4 * gy - 3
    else:
        g_x = ds // 2 + 2 * gy - 1
    g_ytilde = ds // 2 + 2 * gy - 1
    dims = {
        "P(C,C')": g_cprime + ds // 2 - 1,
        "P(Ytilde,Y)": ds // 2 + gy - 1,
    }
    if n >= 3:
        # the sheet involution is fixed-point free: g(X) = 2 g(X') - 1
        dims["P(X,X')"] = (g_x - 1) // 2
        dims["P(X,delta)"] = dims["P(C,C')"]
    elif n == 2:
        g_xprime = ds // 2 + 2 * gy - 1
        dims["P(X,X')"] = g_x - g_xprime
        dims["P(X,delta)"] = dims["P(X,X')"]
    genera = {"C'": g_cprime, "C": g_c, "X": g_x, "Ytilde": g_ytilde}

    types = {}
    out_of_regime = []
    notes = []

    def put(name, groups):
        if any(count < 0 for _, count in groups):
            out_of_regime.append(name)
        else:
            types[name] = _type_chain(*groups)

    if n == 2:
        put("P(C,C')", [(1, ds // 2 - 1), (2, dl // 2 - 1), (2, 2 * gy)])
        put("P(X,X')", [(1, dl // 2 - 1), (2, ds // 2 - 1), (2, 2 * gy)])
    if n == 3:
        put("P(C,C')", [(1, ds // 2 - 1), (2, dl // 2 + 2 * gy - 2), (2, gy)])
        put("P(X,delta)", [(2, dl // 2 + 2 * gy - 2), (4, ds // 2 - 1), (8, gy)])
    if gy == 0:
        if n >= 3:
            put(
                "P(C,C') [rational base]",
                [(2, dims["P(C,C')"])] if ds in (0, 2)
                else [(1, ds // 2 - 1), (2, dl // 2 + 1 - n)],
            )
        if n >= 2:
            put(
                "P(X,delta) conjectured",
                [(2 ** (n - 2), dims["P(X,delta)"])] if ds in (0, 2)
                else [(2 ** (n - 2), dl // 2 + 1 - n), (2 ** (n - 1), ds // 2 - 1)],
            )
    else:
        notes.append(
            "base genus >= 1: closed-form predictions only; the homology engine "
            "verifies lattices over the rational base alone"
        )
    return Prediction(
        n=n,
        branch_short=ds,
        branch_long=dl,
        base_genus=gy,
        genera=genera,
        dims=dims,
        types=types,
        out_of_regime=tuple(out_of_regime),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# random generation


class SplitMix64:
    """Deterministic 64-bit PRNG; same seed gives the same stream anywhere."""

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        # multiply-shift; the bias is immaterial and the result is portable
        return (self.next_u64() * bound) >> 64


REJECTION_BOUND = 10**6


def random_simple(n: int, count_s: int, count_l: int, seed: int) -> MonodromyDatum:
    """Random genus-0 datum whose local monodromies are ``count_s`` short and
    ``count_l`` long reflections with identity product and connected vector
    cover. The seed must lie in [0, 2^64), the state space of ``SplitMix64``,
    so that no two seeds give the same stream.

    Each draw picks all factors but the last uniformly from the stream, the
    short ones first, and composes their lookup tables (``weyl._compose``).
    The forced last factor is the inverse of that product; a reflection is
    its own inverse, so the draw is accepted when the product itself is a
    reflection of the required kind, one dict lookup. An accepted draw is
    kept when its generators act transitively on the signed indices, which
    is when the vector cover is connected. A draw builds no cover and no
    ``SignedPerm``; the returned datum is checked once by ``require_valid``.
    """
    if not 0 <= seed <= SplitMix64.MASK:
        raise GenerationError(f"seed must lie in [0, 2^64), got {seed}")
    if count_s < 0 or count_l < 0:
        raise GenerationError("reflection counts must be nonnegative")
    if count_s + count_l < 2:
        raise GenerationError("need at least two branch points")
    if count_s % 2 or count_l % 2:
        # short reflections flip the sign character, long ones the symmetric
        # one; an odd count can never multiply to the identity
        raise GenerationError(
            f"parity obstruction: counts ({count_s},{count_l}) cannot have identity product"
        )
    genera = predict(n, count_s, count_l, 0).genera
    # a connected vector cover C, and so its quotient C', has genus >= 0
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
    pool = shorts + longs
    tables = [weyl._table(w) for w in pool]
    wanted = {w.image: w for w in (longs if count_l else shorts)}
    free_s, free_l = (count_s, count_l - 1) if count_l else (count_s - 1, 0)
    rng = SplitMix64(seed)
    for _ in range(REJECTION_BOUND):
        picks = [rng.below(len(shorts)) for _ in range(free_s)]
        picks += [len(shorts) + rng.below(len(longs)) for _ in range(free_l)]
        last = wanted.get(weyl._compose([tables[i] for i in picks], n))
        if last is None:
            continue
        gens = [pool[i] for i in picks] + [last]
        if weyl._is_transitive_signed(gens, n):
            datum = MonodromyDatum(n, 0, tuple(gens))
            require_valid(datum)
            return datum
    raise GenerationError(
        f"no datum found for ({n}, {count_s}, {count_l}) after {REJECTION_BOUND} draws"
    )
