"""Prym and Prym-Tyurin lattices over the rational base, with named
theorem-verification scenarios.

Every statement about an abelian subvariety is evaluated as its lattice
shadow: the saturated sublattice of first homology it spans, carrying the
restricted intersection form. Over the rational base the norm kernel is all
of homology, so a Prym-Tyurin lattice of exponent q is the saturation of
the image of an endomorphism x with x (x - q) = 0, x = 1 - phi for phi with
(phi - 1)(phi + q - 1) = 0. One routine, ``_prym_tyurin``, computes it from
x given as a product of induced maps, never formed: the Prym lattice of an
involution is the case q = 2 (x = 1 - iota, one map), and P(X,delta) of
the subset-orbit correspondence the case q = 2**(n-1).

Scenarios bundle the checks of the individual rank-2, rank-3 and rank-4
statements: computed polarization types against predicted ones, lattice
equalities, and explicit correspondence-induced isometries. ``verify_scenario``
checks the standing hypotheses (rational base, connected signed-index cover)
and each scenario's own conditions in one place and reaches the verdict; a
scenario body only computes. The conjecture probe gathers evidence for the
open general-rank duality statement without asserting it, through the same
routine (``_duality``) as the three duality theorems it extends.

``_duality`` reaches P(X,delta) through the signed-index homology H(C), by
identity b: over the rational base the trace J induces 0, so tS0 S0 = 1 -
delta on homology. ``incidence_maps`` induces the incidence S0 once as
B: H(X) -> H(C) and tS0 once as A back, and the routine takes x = A B as
the two maps (A, B): delta is not induced, and the one elimination is
B's (rank H(C) rows, not the square of rank H(X)). ``mu_check`` reads its
flags off the same A and B, and on the duality path by two identities, so
that it runs no elimination: P(C,C') = ker(x - 2) for x = 1 - iota, which
makes membership in it a product, and ``image(B)`` is P(C,C') exactly when
it has that rank and its Smith divisors are 1. A caller with no H(C), as
``ptype``, or one that needs delta itself induces delta and passes
1 - delta as a single map.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from . import corr, cover as _cover, lattice, surface, weyl
from .cover import MonodromyDatum, induce, random_simple
from .errors import DisconnectedError, GenerationError, RankError, ScenarioError
from .lattice import (
    PolarizedLattice,
    dual_type,
    eye,
    image,
    intersect,
    lattices_equal,
    mat_equal,
    matmul,
    ptype,
    saturate,
    zeros,
)
from .weyl import OrbitKind


def exponent(n: int) -> int:
    return 2 ** (n - 1)


def _homology(datum: MonodromyDatum, orbit: OrbitKind) -> surface.CoverHomology:
    return surface.build_all(induce(datum, orbit))


def _acts_as_q(xY, Y, q: int):
    """Check that x acts on ``Y`` as ``q``, given ``xY`` = x Y."""
    if not mat_equal(xY, q * Y):
        raise AssertionError(
            "quadratic relation failed on homology; the model is inconsistent"
        )


def _through(maps, v):
    """``maps[0] ... maps[-1] v``: the maps applied to ``v`` in turn, the
    last one first."""
    for m in reversed(maps):
        v = matmul(m, v)
    return v


def _prym_tyurin(H: surface.CoverHomology, maps, q: int, image_last=None) -> PolarizedLattice:
    """Saturated image of x = maps[0] ... maps[-1], with the restricted form,
    for an endomorphism x of homology with x (x - q) = 0 (for x = 1 - phi,
    (phi - 1)(phi + q - 1) = 0): x acts as q on its image. x is never
    formed; x v is the maps applied to v in turn, the last one first. The
    relation is checked on x 1 before any elimination, then as
    ``x Y == q Y`` on Y = maps[0] ... image(maps[-1]), which generates
    image(x): the one elimination is the last map's, and none when the
    caller has formed ``image(maps[-1])`` and passes it as ``image_last``.
    Y may have more columns than the lattice has rank; saturating it gives
    the lattice, tagged with its exponent q, which its type divides. The
    lattice is then ker(x - q) as well: x is diagonalizable over Q with
    eigenvalues 0 and q, so image(x) spans the q-eigenspace, whose integer
    points are the saturation. Y is held at a fixed width where it fits
    (``lattice._fixed_width``), converted once for the product and the
    saturation that read it."""
    x1 = _through(maps, zeros(maps[-1].shape[1], 1) + 1)
    _acts_as_q(_through(maps, x1), x1, q)
    Y = _through(maps[:-1], image(maps[-1]) if image_last is None else image_last)
    held = lattice._fixed_width(Y)
    _acts_as_q(_through(maps, held), Y, q)
    return H.sublattice(saturate(held), q)


def prym_lattice(H: surface.CoverHomology, fiber_involution) -> PolarizedLattice:
    """Prym lattice of an involution, the exponent-2 Prym-Tyurin lattice: the
    saturated image of 1 - iota (the anti-invariant part) with the restricted
    form. Needs a connected cover of the rational base and a fiber matrix that
    induces an involution (else AssertionError)."""
    if len(H.parts) != 1:
        raise DisconnectedError(
            "ordinary Prym lattice needs a connected cover", components=list(H.part_labels)
        )
    iota = surface._induced(H, H, fiber_involution)
    return _prym_tyurin(H, [lattice.eye_minus(iota)], 2)


def prym_tyurin_lattice(H: surface.CoverHomology, incidence=None, image_b=None):
    """Prym-Tyurin lattice in the homology of a subset-orbit cover, with a
    certificate that the induced endomorphism satisfies its quadratic
    relation exactly: the exponent-``2**(n-1)`` case of the routine behind
    ``prym_lattice``.

    Disconnected covers (index-2 monodromy) are handled per component, the
    correspondence acting across the two halves.

    ``incidence``, the pair ``(A, B)`` that ``incidence_maps(H, HC)``
    returns, takes x = 1 - delta as A B by identity b (the base is then
    rational): delta is not induced, and the one elimination is B's. The
    lattice is the same, in another basis. ``image_b``, ``image(B)`` when
    the caller has formed it, saves that elimination too.
    """
    n = H.cover.datum.n
    q = exponent(n)
    maps = incidence
    if maps is None:
        maps = [lattice.eye_minus(surface._induced(H, H, corr.make_D(n).matrix))]
    lat = _prym_tyurin(H, maps, q, image_b)
    cert = {
        "exponent": q,
        "quadratic_relation": f"(delta - 1)(delta + {q - 1}) = 0 on homology",
        "homology_rank": H.rank,
        "lattice_rank": lat.rank,
        "components": len(H.parts),
    }
    return lat, cert


class MuCheck(NamedTuple):
    surjective: bool
    scaling: bool


def incidence_maps(HX: surface.CoverHomology, HC: surface.CoverHomology):
    """``(A, B)``: the incidence S0 induced as B from the spinor homology
    ``HX`` to the signed-index homology ``HC``, and its transpose tS0 as A
    back, after the standing checks of the duality statement: one datum,
    the rational base (where identity b, A B = 1 - delta, holds) and a
    connected ``HC``."""
    datum = HX.cover.datum
    if HC.cover.datum != datum:
        raise ValueError("covers come from different data")
    if datum.base_genus != 0:
        raise ValueError("checks run over the rational base only")
    if len(HC.parts) != 1:
        raise ValueError("signed-index cover must be connected")
    s0 = corr.make_S0(datum.n).matrix
    return surface.induced_map_all(HC, HX, s0.T), surface.induced_map_all(HX, HC, s0)


def mu_check(HX: surface.CoverHomology, pprime: PolarizedLattice, incidence,
             image_b=None, x=None) -> MuCheck:
    """Whether the incidence correspondence from the spinor cover (homology
    ``HX``) to the signed-index cover realises the duality isogeny as an
    isomorphism. ``incidence`` is the pair ``(A, B)`` that
    ``incidence_maps(HX, HC)`` returns after the standing checks, and
    ``pprime`` is P(C,C') as ``prym_lattice(HC, corr.negation_matrix(n))``
    returns it, or any primitive sublattice of H(C).

    Surjective: the homology map B of the incidence maps onto P', image(B)
    = P'. Two lattices are equal when each contains the other, so that is
    image(B) in P' and P' in image(B). If B escapes P', neither flag holds;
    given ``x`` = 1 - iota, the map whose Prym lattice ``pprime`` is
    (``_prym_tyurin`` has checked x (x - 2) = 0), P' = ker(x - 2) and B
    lies in it when x B == 2 B, one product; otherwise by
    ``lattice.contains``. Then image(B), which ``image_b`` holds when the
    caller has formed it as ``lattice.image(B)`` returns it and which is
    formed here otherwise, lies in the primitive P', and contains it when
    it has its rank and is primitive itself. That is read off its basis
    U^-1[:, :r] D: the columns of U^-1 are primitive, so column i of the
    basis has content d_i, and the lattice is primitive when every column
    has content 1 (D = I). Scaling: the transpose A scales the form by
    ``2**(n-1)``, the restricted Gram of A P' in ``HX`` being ``2**(n-1)``
    times that of P'.
    """
    A, B = incidence
    prym_basis = pprime.basis
    inside = (
        lattice.contains(prym_basis, B)
        if x is None
        else mat_equal(matmul(x, B), 2 * lattice._objects(B))
    )
    if not inside:
        return MuCheck(False, False)
    if image_b is None:
        image_b = image(B)
    surjective = image_b.shape[1] == pprime.rank and all(
        gcd(*column) == 1 for column in image_b.T
    )
    lifted = HX.sublattice(lattice._product(A, pprime._basis_fixed))
    scaling = mat_equal(
        lifted.restricted_gram(),
        exponent(HX.cover.datum.n) * pprime.restricted_gram(),
    )
    return MuCheck(surjective, scaling)


# ---------------------------------------------------------------------------
# predicted types


def conjectured_type(n: int, ds: int, dl: int):
    """Type the duality conjecture predicts for the Prym-Tyurin lattice over
    the rational base (``cover.predict``'s "P(X,delta) conjectured"); None
    when a predicted multiplicity is negative."""
    return _cover.predict(n, ds, dl, 0).types.get("P(X,delta) conjectured")


def duality_scaling_consistent(type_p, type_pprime, n: int) -> bool:
    """Entrywise match of the computed type with the scaled dual chain."""
    if not type_pprime:
        return not type_p
    d1, dp = type_pprime[0], type_pprime[-1]
    factor = Fraction(exponent(n), d1 * dp)
    scaled = [factor * x for x in dual_type(type_pprime)]
    if any(x.denominator != 1 for x in scaled):
        return False
    return tuple(int(x) for x in scaled) == tuple(type_p)


# ---------------------------------------------------------------------------
# scenarios


@dataclass
class PrymResult:
    scenario: str
    n: int
    branch_short: int
    branch_long: int
    computed: dict
    predicted: dict
    checks: dict
    mu_surjective: bool = None
    scaling_verified: bool = None
    verdict: bool = False
    notes: list = field(default_factory=list)

    def finalize(self):
        ok = all(bool(v) for v in self.checks.values())
        for key, want in self.predicted.items():
            got = self.computed.get(key)
            ok = ok and got == want
        if self.mu_surjective is not None:
            ok = ok and self.mu_surjective
        if self.scaling_verified is not None:
            ok = ok and self.scaling_verified
        self.verdict = ok
        return self

    def as_dict(self) -> dict:
        def clean(x):
            if isinstance(x, (list, tuple)):
                return [clean(v) for v in x]
            if isinstance(x, dict):
                return {str(k): clean(v) for k, v in x.items()}
            if isinstance(x, (bool, int, str)) or x is None:
                return x
            return str(x)

        return clean(asdict(self))


def _require(conds):
    bad = [msg for ok, msg in conds if not ok]
    if bad:
        raise ScenarioError("; ".join(bad), violations=bad)


def _full_d(datum: MonodromyDatum) -> bool:
    return weyl.classify_subgroup(list(datum.gens)) is weyl.GroupClass.FULL_D


def _duality(datum: MonodromyDatum):
    """The duality statement on one datum, each cover built once: the spinor
    homology HX, P(X,delta) in it, P(C,C') in the signed-index homology and
    ``mu_check``'s flags for the incidence between the two.

    P(X,delta) comes through H(C), by identity b: over the rational base J
    induces 0, so tS0 S0 = 1 - delta on homology. ``incidence_maps``
    induces S0 once as B: H(X) -> H(C) and tS0 as A back, and
    ``prym_tyurin_lattice`` runs the one Prym-Tyurin routine on the maps
    (A, B), x = A B: delta is not induced, the relation x (x - q) = 0 is
    checked on x 1 and on Y = A image(B), and the elimination is B's, rank
    H(C) by rank H(X), not the square 1 - delta of rank H(X). The basis
    may differ from that of ``prym_tyurin_lattice(HX)``; the lattice, and
    so its type, is the same.

    The same A and B give the flags, with no elimination of their own:
    P(C,C') is computed before P(X,delta), keeping its map x = 1 - iota,
    by which ``mu_check`` decides B in P(C,C') as a product, and
    ``image(B)`` is formed once, here, for both ``prym_tyurin_lattice``
    and ``mu_check``. ``incidence_maps`` has checked that H(C) is
    connected, as ``prym_lattice`` would. A and B are converted once to a
    fixed width where they fit (``lattice._fixed_width``), and every
    product and the elimination take them as they are.
    A trial runs four Smith eliminations, image and saturation for each
    lattice; the builds run none."""
    HX = _homology(datum, OrbitKind.SPINOR)
    HC = _homology(datum, OrbitKind.VECTOR)
    incidence = tuple(lattice._fixed_width(m) for m in incidence_maps(HX, HC))
    x = lattice.eye_minus(surface._induced(HC, HC, corr.negation_matrix(datum.n)))
    pprime = _prym_tyurin(HC, [x], 2)
    image_b = image(incidence[1])
    pt, _ = prym_tyurin_lattice(HX, incidence, image_b)
    return HX, pt, pprime, mu_check(HX, pprime, incidence, image_b, x)


def _scenario_pantazis_b2(res: PrymResult, datum, ds, dl):
    HX, pt, pprime, mu = _duality(datum)
    pxxp = prym_lattice(HX, corr.sigma_matrix(2))
    tp, tpp = ptype(pxxp), ptype(pprime)
    res.computed["type P(C,C')"] = tpp
    res.computed["type P(X,X')"] = tp
    pred = _cover.predict(datum.n, ds, dl, 0).types
    res.predicted["type P(C,C')"] = pred["P(C,C')"]
    res.predicted["type P(X,X')"] = pred["P(X,X')"]
    res.checks["P(X,delta) equals P(X,X')"] = lattices_equal(pt.basis, pxxp.basis)
    res.checks["duality scaling of types"] = duality_scaling_consistent(tp, tpp, 2)
    res.computed["exponent"] = exponent(2)
    res.mu_surjective, res.scaling_verified = mu


def _scenario_theorem2_b3(res: PrymResult, datum, ds, dl):
    _, pt, pprime, mu = _duality(datum)
    tpp, tp = ptype(pprime), ptype(pt)
    res.computed["type P(C,C')"] = tpp
    res.computed["type P(X,delta)"] = tp
    pred = _cover.predict(datum.n, ds, dl, 0).types
    res.predicted["type P(C,C')"] = pred["P(C,C')"]
    res.predicted["type P(X,delta)"] = pred["P(X,delta)"]
    res.checks["duality scaling of types"] = duality_scaling_consistent(tp, tpp, 3)
    res.checks["lattice ranks agree"] = pt.rank == pprime.rank
    res.computed["exponent"] = exponent(3)
    res.mu_surjective, res.scaling_verified = mu


def _scenario_hyperelliptic_4xi(res: PrymResult, datum, ds, dl):
    HX = _homology(datum, OrbitKind.SPINOR)
    HC = _homology(datum, OrbitKind.VECTOR)
    lift, B = incidence_maps(HX, HC)
    pt, _ = prym_tyurin_lattice(HX, (lift, B))
    pred = _cover.predict(datum.n, ds, dl, 0)
    res.computed["type P(X,delta)"] = ptype(pt)
    res.predicted["type P(X,delta)"] = pred.types["P(X,delta)"]
    res.computed["g(C)"] = HC.genus_total
    res.predicted["g(C)"] = pred.genera["C"]
    # transpose incidence carries the whole Jacobian onto the lattice,
    # scaling the form by the exponent 4
    lands = lattice.contains(pt.basis, lift)
    res.checks["lift lands in P(X,delta)"] = lands
    res.checks["lift is a lattice bijection"] = (
        lands and lift.shape[1] == pt.rank and lattice.contains(lift, pt.basis)
    )
    res.checks["form scales by 4"] = mat_equal(
        matmul(matmul(lift.T, HX.gram), lift), 4 * HC.gram
    )
    res.computed["exponent"] = exponent(3)


def _scenario_recillas_a3(res: PrymResult, datum, ds, dl):
    HX = _homology(datum, OrbitKind.SPINOR)   # splits: two degree-4 halves
    _require([(len(HX.parts) == 2, "subset cover must split into two halves")])
    HC = _homology(datum, OrbitKind.VECTOR)   # the degree-6 cover
    g_c = dl // 2 - 3
    res.computed["g(C)"] = HX.parts[0].genus
    res.predicted["g(C)"] = g_c
    res.computed["g(X)"] = HC.genus_total
    # the pairs cover factors through an etale double of a trisection
    res.predicted["g(X)"] = 2 * (dl // 2 - 2) - 1
    res.computed["type JC"] = ptype(
        PolarizedLattice(HX.parts[0].gram, eye(HX.parts[0].genus2))
    )
    res.predicted["type JC"] = (1,) * g_c
    pxxp = prym_lattice(HC, corr.negation_matrix(3))
    res.computed["type P(X,X')"] = ptype(pxxp)
    res.predicted["type P(X,X')"] = (2,) * g_c
    # explicit isometry: membership incidence restricted to the even half
    s0 = corr.make_S0(3).matrix
    full_map = surface.induced_map_all(HX, HC, s0)
    even_rank = HX.parts[0].genus2
    r = full_map[:, :even_rank]
    lands = lattice.contains(pxxp.basis, r)
    res.checks["image lands in P(X,X')"] = lands
    res.checks["lattice bijection"] = (
        lands and even_rank == pxxp.rank and lattice.contains(r, pxxp.basis)
    )
    res.checks["form scales by 2"] = mat_equal(
        matmul(matmul(r.T, HC.gram), r), 2 * HX.parts[0].gram
    )


def _scenario_d3_antidiagonal(res: PrymResult, datum, ds, dl):
    HX = _homology(datum, OrbitKind.SPINOR)
    _require([(len(HX.parts) == 2, "subset cover must split into two halves")])
    pt, _ = prym_tyurin_lattice(HX)
    res.computed["type P(X,delta)"] = ptype(pt)
    # ds = 0: the conjectured type is the proven etale case
    res.predicted["type P(X,delta)"] = conjectured_type(datum.n, ds, dl)
    sig = surface.induced_map_all(HX, HX, corr.sigma_matrix(3))
    g0 = HX.parts[0].genus2
    anti = (eye(HX.rank) - sig)[:, :g0]
    res.checks["equals antidiagonal of B x B"] = lattices_equal(pt.basis, anti)
    res.checks["sheet involution swaps the halves"] = not sig[:g0, :g0].any()
    res.computed["exponent"] = exponent(3)


def _scenario_etale_dn(res: PrymResult, datum, ds, dl):
    n = datum.n
    HX, pt, _, mu = _duality(datum)
    res.computed["spinor components"] = len(HX.parts)
    res.predicted["spinor components"] = 2
    res.computed["type P(X,delta)"] = ptype(pt)
    # ds = 0: the conjectured type is the proven etale case
    res.predicted["type P(X,delta)"] = conjectured_type(n, ds, dl)
    res.mu_surjective, res.scaling_verified = mu
    res.computed["exponent"] = exponent(n)


def _scenario_b3_complement(res: PrymResult, datum, ds, dl):
    HX = _homology(datum, OrbitKind.SPINOR)
    HY = _homology(datum, OrbitKind.PARITY)
    delta = surface.induced_map_all(HX, HX, corr.make_D(3).matrix)
    pt = _prym_tyurin(HX, [lattice.eye_minus(delta)], exponent(3))
    sigma = surface.induced_map_all(HX, HX, corr.sigma_matrix(3))
    pxxp = _prym_tyurin(HX, [lattice.eye_minus(sigma)], 2)
    push = surface.induced_map_all(HX, HY, corr.parity_incidence(3))
    pull = surface.induced_map_all(HY, HX, corr.parity_incidence(3).T)
    ker_in_pxx = intersect(pxxp.basis, lattice.kernel(push))
    res.checks["P(X,delta) = ker(Nm) in P(X,X')"] = lattices_equal(pt.basis, ker_in_pxx)
    lhs = saturate(matmul(delta + 3 * eye(HX.rank), pxxp.basis))
    ptilde = prym_lattice(HY, lattice.intmat([[0, 1], [1, 0]]))
    rhs = saturate(matmul(pull, ptilde.basis))
    res.checks["(delta+3)P(X,X') = pullback of P(Ytilde,Y)"] = lattices_equal(lhs, rhs)
    res.computed["dim P(X,delta)"] = pt.rank // 2
    res.predicted["dim P(X,delta)"] = pxxp.rank // 2 - ptilde.rank // 2
    res.computed["exponent"] = exponent(3)


def _scenario_b4_structure(res: PrymResult, datum, ds, dl):
    HX = _homology(datum, OrbitKind.SPINOR)
    delta = surface.induced_map_all(HX, HX, corr.make_D(4).matrix)
    pt = _prym_tyurin(HX, [lattice.eye_minus(delta)], exponent(4))
    sigma = surface.induced_map_all(HX, HX, corr.sigma_matrix(4))
    pxxp = _prym_tyurin(HX, [lattice.eye_minus(sigma)], 2)
    I = eye(HX.rank)
    d0 = surface.induced_map_all(HX, HX, corr.make_Di(4, 0).matrix)
    res.checks["P(X,delta) = (delta0+2)P(X,X')"] = lattices_equal(
        pt.basis, saturate(matmul(d0 + 2 * I, pxxp.basis))
    )
    comp = saturate(matmul(delta + 7 * I, pxxp.basis))
    res.checks["(delta+7)P(X,X') = (delta0-2)P(X,X')"] = lattices_equal(
        comp, saturate(matmul(d0 - 2 * I, pxxp.basis))
    )
    res.checks["P(X,delta) inside P(X,X')"] = lattice.contains(pxxp.basis, pt.basis)
    res.checks["complementary ranks fill P(X,X')"] = (
        pt.rank + comp.shape[1] == pxxp.rank
    )
    res.computed["dim P(X,delta)"] = pt.rank // 2
    res.predicted["dim P(X,delta)"] = _cover.predict(datum.n, ds, dl, 0).dims["P(X,delta)"]
    res.computed["exponent"] = exponent(4)


# name -> (scenario, its ranks with the default first, default branch counts,
# its own conditions on (datum, ds, dl) as (holds, message) pairs)
_SCENARIOS = {
    "pantazis_b2": (_scenario_pantazis_b2, (2,), (4, 4), lambda datum, ds, dl: [
        (ds >= 4, "need at least four short branch points"),
        (dl >= 4, "need at least four long branch points"),
    ]),
    "recillas_a3": (_scenario_recillas_a3, (3,), (0, 8), lambda datum, ds, dl: [
        (ds == 0, "all local monodromies must be long reflections"),
        (dl >= 4, "need simple branching"),
        (_full_d(datum),
         "monodromy must be the full even subgroup (symmetric group on 4 sheets)"),
    ]),
    "theorem2_b3": (_scenario_theorem2_b3, (3,), (4, 6), lambda datum, ds, dl: [
        (ds >= 2, "the index-2 stage must ramify"),
        (dl >= 4, "the degree-3 stage must ramify"),
    ]),
    "hyperelliptic_4xi": (_scenario_hyperelliptic_4xi, (3,), (6, 4), lambda datum, ds, dl: [
        (dl == 4, "the middle curve must be rational: exactly four long points"),
        (ds >= 4, "need short ramification for a nontrivial Jacobian"),
    ]),
    "d3_antidiagonal": (_scenario_d3_antidiagonal, (3,), (0, 10), lambda datum, ds, dl: [
        (ds == 0, "the index-2 stage must be unramified"),
        (_full_d(datum), "monodromy must be the full even subgroup"),
    ]),
    "etale_dn": (_scenario_etale_dn, (3, 4), (0, 10), lambda datum, ds, dl: [
        (ds == 0, "the index-2 stage must be unramified (etale case)"),
        (_full_d(datum), "monodromy must be the full even subgroup"),
    ]),
    "b3_complement": (_scenario_b3_complement, (3,), (4, 6), lambda datum, ds, dl: [
        (ds >= 2 and dl >= 4, "need a simple datum with both kinds of points"),
    ]),
    "b4_structure": (_scenario_b4_structure, (4,), (4, 8), lambda datum, ds, dl: [
        (ds >= 2 and dl >= 2, "need a simple datum with both kinds of points"),
    ]),
}


def scenario_names() -> list:
    return list(_SCENARIOS)


def verify_scenario(name: str, datum: MonodromyDatum = None, n: int = None,
                    counts=None, seed: int = 0) -> PrymResult:
    """Run one named scenario on a given datum, or on a seeded random simple
    datum with the scenario's default (or given) rank and branch counts.

    The rank is checked first, before any datum is drawn or covered. Then the
    signed-index cover C is induced once: its branch points give the short
    and long counts, and one ``ScenarioError`` lists every hypothesis that
    fails, the standing ones (rational base, connected C) and the scenario's
    own. The scenario body only computes; the verdict is reached here."""
    if name not in _SCENARIOS:
        raise ScenarioError(f"unknown scenario {name!r}; known: {scenario_names()}")
    fn, ranks, default_counts, conditions = _SCENARIOS[name]
    if datum is not None:
        n = datum.n
    elif n is None:
        n = ranks[0]
    if n not in ranks:
        raise ScenarioError(
            f"rank must be {ranks[0]}" if len(ranks) == 1
            else f"supported ranks are {' and '.join(map(str, ranks))}"
        )
    if datum is None:
        ds, dl = counts if counts is not None else default_counts
        datum = random_simple(n, ds, dl, seed)
    C = induce(datum, OrbitKind.VECTOR)
    ram = _cover.ramification(C)
    if not ram.simple:
        raise ScenarioError("datum is not simple: some local monodromy is not a reflection")
    ds, dl = len(ram.short_points), len(ram.long_points)
    _require(
        [
            (datum.base_genus == 0, "base genus must be 0"),
            *conditions(datum, ds, dl),
            (len(_cover.components(C)) == 1, "the signed-index cover C must be connected"),
        ]
    )
    res = PrymResult(name, n, ds, dl, {}, {}, {})
    fn(res, datum, ds, dl)
    return res.finalize()


# ---------------------------------------------------------------------------
# conjecture probe


@dataclass
class ProbeReport:
    n: int
    branch_short: int
    branch_long: int
    trials: int
    seed: int
    rows: list
    agreement: str
    asserted: bool
    note: str

    def as_dict(self) -> dict:
        return asdict(self)


def probe_trial(n: int, count_s: int, count_l: int, seed: int) -> dict:
    """One probe draw: computed Prym-Tyurin type against the conjectured one,
    plus the duality-isogeny flags."""
    _, pt, _, mu = _duality(random_simple(n, count_s, count_l, seed))
    got = ptype(pt)
    want = conjectured_type(n, count_s, count_l)
    return {
        "seed": seed,
        "computed_type": list(got),
        "conjectured_type": list(want) if want is not None else None,
        "agree": want is not None and tuple(want) == got,
        "mu_surjective": mu.surjective,
        "scaling": mu.scaling,
    }


def probe_stream(n: int, count_s: int, count_l: int, trials: int, seed: int):
    """The probe's items, one at a time: a row per trial ``t`` on data seed
    ``seed + t``, then the summary, or an ``error`` item when a trial disagrees
    in the proven unramified regime. The parameters are checked at the call,
    before any trial runs: ranks below 4 are theorems, ranks above
    ``corr.FIBER_RANK_MAX`` have no fiber matrices, a probe needs at least
    one trial, and every data seed must lie in [0, 2^64), where
    ``random_simple`` takes them."""
    if n < 4:
        raise ScenarioError("the probe targets rank >= 4; lower ranks are theorems")
    if n > corr.FIBER_RANK_MAX:
        raise RankError(f"fiber matrices supported for rank 2..{corr.FIBER_RANK_MAX}")
    if trials < 1:
        raise ScenarioError(f"the probe needs at least one trial, got {trials}")
    if seed < 0 or seed + trials - 1 > _cover.SplitMix64.MASK:
        raise GenerationError(
            f"data seeds {seed}..{seed + trials - 1} must lie in [0, 2^64)"
        )
    return _probe_items(n, count_s, count_l, trials, seed)


def _probe_items(n, count_s, count_l, trials, seed):
    agree = 0
    for t in range(trials):
        row = probe_trial(n, count_s, count_l, seed + t)
        row["trial"] = t
        agree += row["agree"]
        yield row
    asserted = count_s == 0
    if asserted and agree != trials:
        yield {"error": "mismatch in the proven unramified regime"}
        return
    yield {
        "agreement": f"{agree}/{trials}",
        "asserted": asserted,
        "note": "unramified regime: agreement asserted"
        if asserted
        else "agreement reported, not asserted",
    }


def conjecture_probe(n: int, count_s: int, count_l: int, trials: int, seed: int) -> ProbeReport:
    """Evidence gathering for the open duality statement: agreement between
    computed and conjectured types is reported, never asserted, except in the
    proven unramified regime where a mismatch is a hard error."""
    *rows, summary = probe_stream(n, count_s, count_l, trials, seed)
    if "error" in summary:
        raise AssertionError(summary["error"])
    return ProbeReport(n, count_s, count_l, trials, seed, rows, **summary)
