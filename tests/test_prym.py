import json
import os
import random
import time
from types import SimpleNamespace

import numpy as np
import pytest

from _oracles import mu_check_via_divisors
from prymlab import cli, corr, cover, lattice, prym, surface
from prymlab.cover import MonodromyDatum, induce, random_simple
from prymlab.errors import (
    DisconnectedError,
    EquivarianceError,
    RankError,
    ScenarioError,
    UnsupportedError,
)
from prymlab.lattice import eye, image, lattices_equal, mat_equal, matmul, ptype, zeros
from prymlab.prym import (
    conjecture_probe,
    conjectured_type,
    mu_check,
    prym_lattice,
    prym_tyurin_lattice,
    duality_scaling_consistent,
    verify_scenario,
)
from prymlab.weyl import OrbitKind, SignedPerm, reflection, short_root


def _build(datum, orbit):
    return surface.build_all(induce(datum, orbit))


def test_prym_of_rational_quotient_is_whole_jacobian():
    # double cover of the line with six branch points: quotient is rational,
    # so the anti-invariant lattice is everything, principally polarized
    s = reflection(short_root(1), 1)
    datum = MonodromyDatum(1, 0, tuple([s] * 6))
    L = prym_lattice(_build(datum, OrbitKind.VECTOR), corr.negation_matrix(1))
    assert L.rank == 4
    assert ptype(L) == (1, 1)


def test_prym_of_unramified_double_cover_of_genus_two():
    # tower realisation: index-2 stage unramified over a genus-2 middle curve
    datum = random_simple(2, 0, 6, seed=19)
    assert cover.genus(induce(datum, OrbitKind.PAIR_CLASS)) == 2
    L = prym_lattice(_build(datum, OrbitKind.VECTOR), corr.negation_matrix(2))
    assert L.rank == 2
    assert ptype(L) == (2,)


def test_prym_b2_types():
    datum = random_simple(2, 4, 4, seed=3)
    L = prym_lattice(_build(datum, OrbitKind.VECTOR), corr.negation_matrix(2))
    assert ptype(L) == (1, 2)


def test_saturation_index_on_genus_two_double_cover():
    # anti-invariant image vs its saturation: the index shows up as the
    # square ratio of the restricted gram determinants
    from prymlab.lattice import det, eye as _eye, image as _image, saturate as _sat

    s = reflection(short_root(1), 1)
    datum = MonodromyDatum(1, 0, tuple([s] * 6))
    H = surface.build_all(induce(datum, OrbitKind.VECTOR))
    iota = surface.induced_map_all(H, H, corr.negation_matrix(1))
    raw = _image(_eye(H.rank) - iota)
    sat = _sat(raw)
    det_raw = det(raw.T @ H.gram @ raw)
    det_sat = det(sat.T @ H.gram @ sat)
    assert det_raw % det_sat == 0
    index_sq = det_raw // det_sat
    assert index_sq == 16 * 16  # (1 - iota) doubles each of the four directions
    assert sat.shape[1] == raw.shape[1]


def test_prym_lattice_requires_connected():
    datum = random_simple(3, 0, 10, seed=2)
    sp = induce(datum, OrbitKind.SPINOR)
    with pytest.raises(DisconnectedError) as err:
        prym_lattice(surface.build_all(sp), corr.sigma_matrix(3))
    assert err.value.components == cover.components(sp)
    assert len(err.value.components) == 2


def test_prym_tyurin_b3():
    datum = random_simple(3, 4, 6, seed=1)
    L, cert = prym_tyurin_lattice(_build(datum, OrbitKind.SPINOR))
    assert ptype(L) == (2, 4)
    assert cert["exponent"] == 4
    assert cert["components"] == 1
    assert L.rank == 4


def test_prym_tyurin_hyperelliptic_case():
    datum = random_simple(3, 6, 4, seed=2)
    L, _ = prym_tyurin_lattice(_build(datum, OrbitKind.SPINOR))
    assert ptype(L) == (4, 4)


def test_prym_tyurin_split_etale_case():
    datum = random_simple(3, 0, 10, seed=2)
    L, cert = prym_tyurin_lattice(_build(datum, OrbitKind.SPINOR))
    assert ptype(L) == (2, 2)
    assert cert["components"] == 2


def _patch_D(monkeypatch, a, b, c):
    """Replace ``corr.make_D`` by D + a I + b sigma + c J; each term
    commutes with the group, so only the quadratic relation can tell."""
    make_D = corr.make_D

    def perturbed(n):
        sigma = corr.sigma_matrix(n)
        m = make_D(n).matrix + a * eye(len(sigma)) + b * sigma + c * (sigma * 0 + 1)
        return corr.FiberMatrix(n, OrbitKind.SPINOR, OrbitKind.SPINOR, m)

    monkeypatch.setattr(corr, "make_D", perturbed)


def test_prym_tyurin_rejects_D_plus_sigma(monkeypatch):
    H = _build(random_simple(3, 4, 6, seed=1), OrbitKind.SPINOR)
    _patch_D(monkeypatch, 0, 1, 0)
    with pytest.raises(AssertionError, match="quadratic relation failed"):
        prym_tyurin_lattice(H)


def test_prym_tyurin_rejects_a_broken_relation_before_any_elimination(monkeypatch):
    # D + 2I + sigma - J: on this datum, eliminating 1 - delta alone runs
    # for over a minute
    H = _build(random_simple(4, 4, 8, seed=5), OrbitKind.SPINOR)
    _patch_D(monkeypatch, 2, 1, -1)
    start = time.perf_counter()
    with pytest.raises(AssertionError, match="quadratic relation failed"):
        prym_tyurin_lattice(H)
    assert time.perf_counter() - start < 1.0


def test_prym_lattice_rejects_an_equivariant_non_involution():
    # twice the negation commutes with the group, but squares to 4
    H = _build(random_simple(3, 4, 6, seed=1), OrbitKind.VECTOR)
    with pytest.raises(AssertionError, match="quadratic relation failed"):
        prym_lattice(H, 2 * corr.negation_matrix(3))


def test_no_product_is_rank_cubed(monkeypatch):
    datum = random_simple(4, 12, 16, seed=1)
    H = _build(datum, OrbitKind.SPINOR)
    assert H.rank >= 100
    shapes = []

    def recording(a, b):
        shapes.append((a.shape[0], a.shape[1], b.shape[1]))
        return matmul(a, b)

    monkeypatch.setattr(prym, "matmul", recording)
    P = prym_lattice(H, corr.sigma_matrix(4))
    L, _ = prym_tyurin_lattice(H)
    assert 0 < L.rank < P.rank < H.rank
    # per lattice: x 1, x (x 1) and x Y
    assert len(shapes) == 6
    assert (H.rank,) * 3 not in shapes


def _full_quadratic_product_vanishes(H):
    n = H.cover.datum.n
    delta = surface.induced_map_all(H, H, corr.make_D(n).matrix)
    q, I = 2 ** (n - 1), eye(H.rank)
    return mat_equal(matmul(delta - I, delta + (q - 1) * I), zeros(H.rank, H.rank))


def _image_basis_check_passes(H):
    try:
        prym_tyurin_lattice(H)
    except AssertionError as err:
        assert "quadratic relation failed" in str(err)
        return False
    return True


def test_image_basis_check_agrees_with_the_full_quadratic_product(monkeypatch):
    # J induces zero on homology, so D + J keeps the relation; I and sigma
    # break it
    data = [(3, 4, 6, 1), (3, 6, 4, 2), (3, 0, 10, 2), (4, 4, 8, 5), (4, 2, 8, 9)]
    homologies = [_build(random_simple(n, ds, dl, seed=s), OrbitKind.SPINOR)
                  for n, ds, dl, s in data]
    seen = set()
    for a, b, c in [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, -1, 0), (1, 0, 0), (0, 1, 1)]:
        _patch_D(monkeypatch, a, b, c)
        for H in homologies:
            full = _full_quadratic_product_vanishes(H)
            assert _image_basis_check_passes(H) == full
            seen.add(full)
        monkeypatch.undo()
    assert seen == {True, False}


def test_mu_check_small_ranks():
    for n, ds, dl in [(2, 4, 4), (3, 4, 6)]:
        datum = random_simple(n, ds, dl, seed=5)
        HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
        mu = mu_check(
            HX, prym_lattice(HC, corr.negation_matrix(n)), prym.incidence_maps(HX, HC)
        )
        assert mu.surjective and mu.scaling


def test_mu_scaling_at_rank_four():
    datum = random_simple(4, 4, 8, seed=5)
    HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
    mu = mu_check(HX, prym_lattice(HC, corr.negation_matrix(4)), prym.incidence_maps(HX, HC))
    assert mu.scaling  # the form identity holds regardless of surjectivity


def test_mu_check_rejects_homologies_of_different_data():
    HX = _build(random_simple(3, 4, 6, seed=5), OrbitKind.SPINOR)
    HC = _build(random_simple(3, 4, 6, seed=6), OrbitKind.VECTOR)
    with pytest.raises(ValueError, match="different data"):
        prym.incidence_maps(HX, HC)


def test_mu_check_rejects_disconnected_signed_index_cover():
    # unsigned transpositions never move a sign: the signed indices split
    w = SignedPerm(2, (2, 1))
    datum = MonodromyDatum(2, 0, (w,) * 4)
    assert cover.validate(datum) is None
    HC = _build(datum, OrbitKind.VECTOR)
    assert len(HC.parts) == 2
    with pytest.raises(ValueError, match="must be connected"):
        prym.incidence_maps(_build(datum, OrbitKind.SPINOR), HC)


def test_transpose_composition_is_multiplication_by_exponent():
    # on the Prym-Tyurin lattice the incidence roundtrip is the exponent
    datum = random_simple(3, 4, 6, seed=8)
    HX = _build(datum, OrbitKind.SPINOR)
    HC = _build(datum, OrbitKind.VECTOR)
    s0_mat = corr.make_S0(3).matrix
    s0 = surface.induced_map_all(HX, HC, s0_mat)
    ts0 = surface.induced_map_all(HC, HX, s0_mat.T)
    L, _ = prym_tyurin_lattice(HX)
    assert mat_equal(ts0 @ s0 @ L.basis, 4 * L.basis)


def test_isogenous_lattices_share_rank():
    rng = random.Random(17)
    for _ in range(4):
        n = rng.choice([2, 3])
        ds = 2 * rng.randint(1, 3)
        dl = 2 * rng.randint(2, 3)
        datum = random_simple(n, ds, dl, seed=rng.randint(0, 10**6))
        L, _ = prym_tyurin_lattice(_build(datum, OrbitKind.SPINOR))
        P = prym_lattice(_build(datum, OrbitKind.VECTOR), corr.negation_matrix(n))
        assert L.rank == P.rank


def test_duality_scaling_consistency_whenever_mu_passes():
    rng = random.Random(23)
    for _ in range(3):
        ds, dl = 2 * rng.randint(1, 3), 2 * rng.randint(2, 3)
        datum = random_simple(3, ds, dl, seed=rng.randint(0, 10**6))
        HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
        P = prym_lattice(HC, corr.negation_matrix(3))
        mu = mu_check(HX, P, prym.incidence_maps(HX, HC))
        if not (mu.surjective and mu.scaling):
            continue
        L, _ = prym_tyurin_lattice(HX)
        assert duality_scaling_consistent(ptype(L), ptype(P), 3)


def test_types_invariant_under_braid_moves():
    # sliding one branch point past the next conjugates its monodromy but
    # leaves the covering surface unchanged, so every type must survive
    datum = random_simple(3, 4, 6, seed=14)
    gens = list(datum.gens)
    base_pt = ptype(prym_tyurin_lattice(_build(datum, OrbitKind.SPINOR))[0])
    base_pp = ptype(prym_lattice(_build(datum, OrbitKind.VECTOR), corr.negation_matrix(3)))
    rng = random.Random(7)
    for _ in range(4):
        i = rng.randrange(len(gens) - 1)
        a, b = gens[i], gens[i + 1]
        gens[i], gens[i + 1] = b, b.inverse() * a * b
        moved = MonodromyDatum(3, 0, tuple(gens))
        assert cover.validate(moved) is None
        assert ptype(prym_tyurin_lattice(_build(moved, OrbitKind.SPINOR))[0]) == base_pt
        assert (
            ptype(prym_lattice(_build(moved, OrbitKind.VECTOR), corr.negation_matrix(3)))
            == base_pp
        )


def test_types_invariant_under_global_conjugation():
    datum = random_simple(3, 4, 6, seed=15)
    w = cover.random_simple(3, 2, 4, seed=1).gens[0] * datum.gens[0]
    conj = MonodromyDatum(3, 0, tuple(w * g * w.inverse() for g in datum.gens))
    assert cover.validate(conj) is None
    a = ptype(prym_tyurin_lattice(_build(datum, OrbitKind.SPINOR))[0])
    b = ptype(prym_tyurin_lattice(_build(conj, OrbitKind.SPINOR))[0])
    assert a == b


def test_conjectured_type_counting():
    assert conjectured_type(4, 4, 8) == (4, 8)
    assert conjectured_type(4, 0, 12) == (4, 4)
    assert conjectured_type(4, 2, 8) == (4,)
    assert conjectured_type(3, 4, 6) == (2, 4)
    assert conjectured_type(4, 4, 4) is None  # negative multiplicity


@pytest.mark.parametrize(
    "name,kwargs",
    [
        ("pantazis_b2", {}),
        ("recillas_a3", {}),
        ("theorem2_b3", {}),
        ("theorem2_b3", {"counts": (6, 6)}),
        ("theorem2_b3", {"counts": (4, 8)}),
        ("hyperelliptic_4xi", {}),
        ("d3_antidiagonal", {}),
        ("etale_dn", {}),
        ("etale_dn", {"n": 4, "counts": (0, 12)}),
        ("b3_complement", {}),
        ("b4_structure", {}),
    ],
)
def test_scenarios_pass(name, kwargs):
    result = verify_scenario(name, seed=3, **kwargs)
    assert result.verdict, (result.computed, result.predicted, result.checks)


def test_scenario_serialization_round_trip():
    import json

    result = verify_scenario("theorem2_b3", seed=3)
    blob = json.dumps(result.as_dict(), sort_keys=True)
    assert "theorem2_b3" in blob


def test_scenario_unknown_name():
    with pytest.raises(ScenarioError):
        verify_scenario("no_such_scenario")


def test_scenario_constraint_violations_are_listed():
    datum = random_simple(2, 4, 4, seed=1)
    with pytest.raises(ScenarioError) as err:
        verify_scenario("theorem2_b3", datum=datum)
    assert any("rank" in v for v in err.value.violations)


def test_scenario_rejects_non_simple_datum():
    w = reflection(short_root(1), 2) * reflection(short_root(2), 2)
    datum = MonodromyDatum(2, 0, (w, w.inverse()))
    with pytest.raises(ScenarioError):
        verify_scenario("pantazis_b2", datum=datum)


# monodromy data whose signed-index cover C is disconnected: no generator moves
# index 3 (rank 3) or indices 3 and 4 (rank 4)
DISCONNECTED_C = {
    3: [[-1, 2, 3]] * 4 + [[2, 1, 3]] * 4,
    4: [[-1, 2, 3, 4]] * 2 + [[2, 1, 3, 4]] * 2,
}
CONNECTED_C = "the signed-index cover C must be connected"


@pytest.mark.parametrize("n", sorted(DISCONNECTED_C))
def test_scenarios_require_a_connected_signed_index_cover(tmp_path, capsys, n):
    p = tmp_path / f"disconnected{n}.json"
    p.write_text(json.dumps({"n": n, "generators": DISCONNECTED_C[n]}))
    datum = cli.load_datum(str(p))
    assert len(cover.components(induce(datum, OrbitKind.VECTOR))) > 1
    names = [name for name in prym.scenario_names() if n in prym._SCENARIOS[name][1]]
    assert names
    for name in names:
        with pytest.raises(ScenarioError) as err:
            verify_scenario(name, datum=datum)
        assert err.value.violations[-1] == CONNECTED_C
        assert cli.main(["verify", "--scenario", name, "--file", str(p)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and CONNECTED_C in out.err


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_probe_agrees_with_the_etale_theorem_on_one_datum(seed):
    # both draw random_simple(4, 0, 12, seed); the probe and the theorem must
    # report the same P(X,delta) type and the same duality-isogeny flags
    row = prym.probe_trial(4, 0, 12, seed)
    result = verify_scenario("etale_dn", n=4, counts=(0, 12), seed=seed)
    assert result.verdict
    assert row["computed_type"] == list(result.computed["type P(X,delta)"])
    assert (row["mu_surjective"], row["scaling"]) == (
        result.mu_surjective, result.scaling_verified
    )


def test_probe_reports_rows_and_agreement():
    rep = conjecture_probe(4, 4, 8, trials=2, seed=7)
    assert rep.trials == 2
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row["conjectured_type"] == [4, 8]
        assert isinstance(row["agree"], bool)
    assert not rep.asserted
    assert rep.as_dict() == dict(
        n=4, branch_short=4, branch_long=8, trials=2, seed=7, rows=rep.rows,
        agreement=rep.agreement, asserted=False, note=rep.note,
    )


def test_probe_asserts_in_unramified_regime():
    rep = conjecture_probe(4, 0, 12, trials=2, seed=9)
    assert rep.asserted
    assert rep.agreement == "2/2"


def test_probe_rejects_low_rank():
    with pytest.raises(ScenarioError):
        conjecture_probe(3, 4, 6, trials=1, seed=0)


def test_probe_stream_checks_arguments_at_the_call():
    # no iteration: the error comes before any trial is drawn
    with pytest.raises(ScenarioError):
        prym.probe_stream(3, 4, 6, 1, 0)
    with pytest.raises(ScenarioError):
        prym.probe_stream(4, 4, 8, 0, 0)
    for n in (7, 8):
        with pytest.raises(RankError, match=f"supported for rank 2..{corr.FIBER_RANK_MAX}$"):
            prym.probe_stream(n, 4, 16, 1, 0)


def test_probe_rows_are_numbered_trials_on_consecutive_seeds():
    rep = conjecture_probe(4, 4, 8, trials=2, seed=7)
    assert [(r["trial"], r["seed"]) for r in rep.rows] == [(0, 7), (1, 8)]
    assert rep.rows[1] == dict(prym.probe_trial(4, 4, 8, 8), trial=1)


def test_probe_mismatch_in_unramified_regime_is_an_error(monkeypatch):
    real = prym.probe_trial

    def disagreeing(n, count_s, count_l, seed):
        return dict(real(n, count_s, count_l, seed), agree=seed != 10)

    monkeypatch.setattr(prym, "probe_trial", disagreeing)
    items = list(prym.probe_stream(4, 0, 12, 2, 9))
    assert [r["agree"] for r in items[:2]] == [True, False]
    assert items[2] == {"error": "mismatch in the proven unramified regime"}
    with pytest.raises(AssertionError, match="unramified"):
        conjecture_probe(4, 0, 12, trials=2, seed=9)
    # outside the proven regime the same disagreement is only reported
    assert list(prym.probe_stream(4, 4, 8, 2, 9))[-1]["agreement"] == "1/2"


# -- each cover is built once -------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The (datum, orbit) of every ``surface.build_all`` call."""
    seen = []
    real = surface.build_all

    def counting(cover_model):
        seen.append((cover_model.datum, cover_model.orbit))
        return real(cover_model)

    monkeypatch.setattr(surface, "build_all", counting)
    return seen


@pytest.mark.parametrize("name", prym.scenario_names())
def test_scenario_builds_each_cover_once(builds, name):
    assert verify_scenario(name, seed=3).verdict
    assert builds and len(set(builds)) == len(builds)


@pytest.mark.parametrize("name", ["b3_complement", "b4_structure"])
def test_scenario_induces_delta_once(monkeypatch, name):
    fibers = []
    real = surface.induced_map_all

    def recording(src, dst, fiber):
        fibers.append(fiber)
        return real(src, dst, fiber)

    monkeypatch.setattr(surface, "induced_map_all", recording)
    result = verify_scenario(name, seed=3)
    assert result.verdict
    D = corr.make_D(result.n).matrix
    assert sum(mat_equal(f, D) for f in fibers) == 1


def test_probe_trial_builds_each_cover_once(builds):
    prym.probe_trial(4, 4, 8, 7)
    assert sorted(orbit.value for _, orbit in builds) == ["spinor", "vector"]


@pytest.mark.parametrize("orbit", [k.value for k in OrbitKind])
def test_cli_ptype_builds_its_cover_once(builds, orbit, capsys):
    path = os.path.join(os.path.dirname(__file__), "..", "data", "theorem2_b3.json")
    assert cli.main(["ptype", path, "--orbit", orbit]) == 0
    assert [o.value for _, o in builds] == [orbit]


# -- P(X,delta) through H(C) on the duality path (identity b) -----------------

# seeded data at ranks 2..5; (4,2,6) and (5,2,8) have P(C,C') = 0, and
# (3,0,10) a split spinor cover
DUALITY_DATA = [
    (2, 4, 4, 0), (3, 4, 6, 1), (3, 0, 10, 2), (3, 6, 4, 2), (4, 4, 8, 5),
    (4, 2, 6, 0), (4, 0, 12, 0), (5, 2, 8, 0), (5, 0, 12, 0),
]


@pytest.mark.parametrize("n,ds,dl,seed", DUALITY_DATA)
def test_duality_lattice_equals_prym_tyurin_lattice(n, ds, dl, seed):
    datum = random_simple(n, ds, dl, seed)
    HX, pt, pprime, mu = prym._duality(datum)
    L, _ = prym_tyurin_lattice(HX)
    assert lattices_equal(pt.basis, L.basis)
    assert pt.rank == L.rank and ptype(pt) == ptype(L)
    incidence = prym.incidence_maps(HX, _build(datum, OrbitKind.VECTOR))
    assert tuple(mu) == mu_check_via_divisors(HX, pprime, incidence)
    if (n, ds, dl) in ((4, 2, 6), (5, 2, 8)):
        assert pprime.rank == 0 and pt.rank == 0


@pytest.mark.parametrize("n,ds,dl,seed", [(3, 4, 6, 1), (4, 4, 8, 5), (4, 0, 12, 0)])
def test_incidence_maps_compose_to_one_minus_delta(n, ds, dl, seed):
    # identity b at homology level, on the maps _duality uses: tS0 S0 = 1 - delta
    datum = random_simple(n, ds, dl, seed)
    HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
    A, B = prym.incidence_maps(HX, HC)
    delta = surface.induced_map_all(HX, HX, corr.make_D(n).matrix)
    assert mat_equal(matmul(A, B), eye(HX.rank) - delta)


def test_duality_runs_its_standing_checks_before_identity_b():
    # off the rational base A B = 1 - delta fails: no homology is built
    # there, and the incidence maps are refused on their own as well
    w = SignedPerm(2, (2, 1))
    datum = MonodromyDatum(2, 1, (), ((w, w),))
    with pytest.raises(UnsupportedError, match="genus-0 bases only"):
        prym._duality(datum)
    H = SimpleNamespace(cover=SimpleNamespace(datum=datum), parts=(None,))
    with pytest.raises(ValueError, match="rational base only"):
        prym.incidence_maps(H, H)


def test_duality_runs_the_traced_lattice_and_flag_routines(monkeypatch):
    # P(X,delta) and the flags come from the public names a tracer wraps
    calls = []
    for name in ("prym_tyurin_lattice", "mu_check", "incidence_maps"):
        real = getattr(prym, name)
        monkeypatch.setattr(
            prym, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    prym._duality(random_simple(3, 4, 6, seed=1))
    assert calls == ["incidence_maps", "prym_tyurin_lattice", "mu_check"]


def test_duality_induces_no_delta_and_eliminates_no_square_of_rank_hx(monkeypatch):
    datum = random_simple(4, 12, 16, seed=1)
    rank_hx = _build(datum, OrbitKind.SPINOR).rank
    assert rank_hx >= 100
    rank_hx_4xi = _build(random_simple(3, 6, 4, seed=2), OrbitKind.SPINOR).rank

    def no_delta(n):
        raise AssertionError("the duality path induced delta")

    shapes, differences = [], []
    engine, eye_minus = lattice._eliminate, lattice.eye_minus

    def recording(mat, want=(), rhs=None):
        shapes.append(np.shape(mat))
        return engine(mat, want, rhs)

    def recording_difference(phi):
        differences.append(np.shape(phi))
        return eye_minus(phi)

    monkeypatch.setattr(corr, "make_D", no_delta)
    monkeypatch.setattr(lattice, "_eliminate", recording)
    monkeypatch.setattr(lattice, "eye_minus", recording_difference)
    prym.probe_trial(4, 12, 16, 1)
    assert shapes and (rank_hx, rank_hx) not in shapes
    # 1 - iota on H(C) alone
    assert differences and all(rows < rank_hx for rows, _ in differences)
    # hyperelliptic_4xi takes P(X,delta) and its lift from one incidence
    # pair, and forms no 1 - x at all
    shapes.clear()
    differences.clear()
    assert verify_scenario("hyperelliptic_4xi", seed=2).verdict
    assert shapes and (rank_hx_4xi, rank_hx_4xi) not in shapes
    assert not differences


def _patch_S0(monkeypatch, change):
    """Replace ``corr.make_S0`` by the fiber matrix ``change(S0)``."""
    make_S0 = corr.make_S0

    def changed(n):
        return corr.FiberMatrix(n, OrbitKind.SPINOR, OrbitKind.VECTOR,
                                change(make_S0(n).matrix.copy()))

    monkeypatch.setattr(corr, "make_S0", changed)


def _bump_first_entry(m):
    m[0, 0] += 1
    return m


def test_duality_rejects_a_mutated_incidence_fiber(monkeypatch):
    datum = random_simple(4, 4, 8, seed=5)
    # one entry changed: the matrix no longer commutes with the group
    _patch_S0(monkeypatch, _bump_first_entry)
    with pytest.raises(EquivarianceError):
        prym._duality(datum)
    monkeypatch.undo()
    # twice S0 commutes with the group, but A B is then 4 (1 - delta)
    _patch_S0(monkeypatch, lambda m: 2 * m)
    with pytest.raises(AssertionError, match="quadratic relation failed"):
        prym._duality(datum)


def test_duality_rejects_a_mutated_entry_of_the_induced_incidence(monkeypatch):
    datum = random_simple(4, 4, 8, seed=5)
    real = surface.induced_map_all
    for i, j in [(0, 0), (1, 7), (3, 20), (5, 33), (7, 11), (9, 2)]:
        def mutated(src, dst, fiber, i=i, j=j):
            out = real(src, dst, fiber)
            if (src.cover.orbit, dst.cover.orbit) == (OrbitKind.SPINOR, OrbitKind.VECTOR):
                out = out.copy()
                out[i % out.shape[0], j % out.shape[1]] += 1
            return out

        monkeypatch.setattr(surface, "induced_map_all", mutated)
        with pytest.raises(AssertionError, match="quadratic relation failed"):
            prym._duality(datum)


def test_duality_checks_the_relation_on_the_image_past_x1():
    # B + e_0 w^T, for w orthogonal to 1 and to x 1, leaves x 1 and x (x 1)
    # as they were, so only the check on A image(B) can catch it
    datum = random_simple(4, 4, 8, seed=5)
    HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
    A, B = prym.incidence_maps(HX, HC)
    q = prym.exponent(4)
    ones = np.full((HX.rank, 1), 1, dtype=object)
    x1 = matmul(A, matmul(B, ones))
    w = lattice.kernel(np.concatenate([ones, x1], axis=1).T)[:, :1]
    e0 = zeros(B.shape[0], 1)
    e0[0, 0] = 1
    bad = B + matmul(e0, w.T)
    assert mat_equal(matmul(A, matmul(bad, ones)), x1)
    assert mat_equal(matmul(A, matmul(bad, x1)), q * x1)
    assert prym_tyurin_lattice(HX, (A, B))[0].rank == 4
    with pytest.raises(AssertionError, match="quadratic relation failed"):
        prym_tyurin_lattice(HX, (A, bad))


def test_duality_runs_four_eliminations_and_eliminates_b_once(monkeypatch):
    # image and saturation for P(C,C') and for P(X,delta); the builds and
    # the flags run none of their own
    datum = random_simple(4, 12, 16, seed=1)
    HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
    b_shape = (HC.rank, HX.rank)
    shapes = []
    engine = lattice._eliminate

    def recording(mat, want=(), rhs=None):
        shapes.append(np.shape(mat))
        return engine(mat, want, rhs)

    monkeypatch.setattr(lattice, "_eliminate", recording)
    prym._duality(datum)
    assert len(shapes) == 4
    assert shapes.count(b_shape) == 1


def test_duality_converts_each_incidence_map_once(monkeypatch):
    # A and B are converted to a fixed width once each, as they come from
    # incidence_maps, and go to every product and to the elimination as
    # they are: no later conversion meets them as object arrays. So is the
    # P(C,C') basis, once, when its lattice is made, and its image in H(X)
    # comes at that width from the product: no object array of either
    # shape is converted twice, and the image never meets a conversion
    datum = random_simple(4, 12, 16, seed=1)
    HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
    seen = []
    convert = lattice._int64

    def recording(x):
        if isinstance(x, np.ndarray) and x.dtype == object:
            seen.append(x)  # held, so that no id is reused
        return convert(x)

    monkeypatch.setattr(lattice, "_int64", recording)
    _, pt, pprime, _ = prym._duality(datum)
    monkeypatch.undo()
    shapes = [x.shape for x in seen]
    assert shapes.count((HX.rank, HC.rank)) == shapes.count((HC.rank, HX.rank)) == 1
    r = pprime.rank
    assert (HX.rank, HC.rank, r) == (130, 30, 20)
    for shape in ((HC.rank, r), (HX.rank, r)):
        ids = [id(x) for x in seen if x.shape == shape]
        assert ids and len(ids) == len(set(ids)), shape
    assert sum(x is pprime.basis for x in seen) == 1
    assert sum(x is pt.basis for x in seen) == 1
    A, _ = prym.incidence_maps(HX, HC)
    image = matmul(A, pprime.basis)
    assert not any(x.shape == image.shape and mat_equal(x, image) for x in seen)


def test_prym_tyurin_lattice_converts_no_rank_square_object_array(monkeypatch):
    # delta leaves surface in int64 and goes to eye_minus as it is: no
    # (rank, rank) object array is converted on the way
    H = _build(random_simple(5, 12, 16, seed=0), OrbitKind.SPINOR)
    assert H.rank == 258
    shapes = []
    convert = lattice._int64

    def recording(x):
        if isinstance(x, np.ndarray) and x.dtype == object:
            shapes.append(x.shape)
        return convert(x)

    monkeypatch.setattr(lattice, "_int64", recording)
    lat, _ = prym_tyurin_lattice(H)
    assert lat.rank == 18
    assert (H.rank, H.rank) not in shapes


def _merged(datum):
    """The datum with its first two and its fifth and sixth local
    monodromies merged into one each: the product is still one, and the
    merged points are no reflections."""
    g = datum.gens
    return MonodromyDatum(
        datum.n, 0, (g[0] * g[1],) + g[2:4] + (g[4] * g[5],) + g[6:]
    )


@pytest.mark.parametrize("n,ds,dl,seed", [(3, 4, 6, 1), (4, 4, 8, 5), (4, 2, 10, 3),
                                         (3, 6, 8, 4), (5, 2, 8, 2)])
def test_duality_flags_equal_the_divisor_oracle_on_non_simple_data(n, ds, dl, seed):
    # seeded simple data are DUALITY_DATA above; with merged points some
    # data give (True, True) and some (False, True), image(B) then falling
    # short of P(C,C')
    datum = _merged(random_simple(n, ds, dl, seed))
    assert cover.validate(datum) is None
    assert not cover.ramification(induce(datum, OrbitKind.VECTOR)).simple
    HX, _, pprime, mu = prym._duality(datum)
    incidence = prym.incidence_maps(HX, _build(datum, OrbitKind.VECTOR))
    assert tuple(mu) == mu_check_via_divisors(HX, pprime, incidence)
    assert tuple(mu_check(HX, pprime, incidence)) == tuple(mu)


def _prym_and_map(HC, n):
    """P(C,C') and x = 1 - iota, the map whose Prym lattice it is."""
    x = lattice.eye_minus(surface.induced_map_all(HC, HC, corr.negation_matrix(n)))
    return prym._prym_tyurin(HC, [x], 2), x


def test_mu_check_product_identity_rejects_a_changed_entry_of_b():
    # B with one entry changed escapes P(C,C') = ker(x - 2): x B' != 2 B'
    # gives (False, False), as containment does
    datum = random_simple(4, 4, 8, seed=5)
    HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
    A, B = prym.incidence_maps(HX, HC)
    pprime, x = _prym_and_map(HC, 4)
    assert tuple(mu_check(HX, pprime, (A, B), image(B), x)) == (True, True)
    for i, j in [(0, 0), (1, 7), (3, 20), (5, 33)]:
        bad = B.copy()
        bad[i % B.shape[0], j % B.shape[1]] += 1
        assert not lattice.contains(pprime.basis, bad)
        assert tuple(mu_check(HX, pprime, (A, bad), image(bad), x)) == (False, False)
        assert tuple(mu_check(HX, pprime, (A, bad))) == (False, False)


def test_mu_check_reads_surjectivity_off_the_contents_of_image_b():
    # 2 B lies in P(C,C') with its rank, but its image is 2 P(C,C'): every
    # column of image(2 B) has content 2, so it is not onto
    datum = random_simple(4, 4, 8, seed=5)
    HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
    A, B = prym.incidence_maps(HX, HC)
    pprime, x = _prym_and_map(HC, 4)
    doubled = (A, 2 * B)
    assert image(2 * B).shape[1] == pprime.rank
    want = mu_check_via_divisors(HX, pprime, doubled)
    assert want == (False, True)
    assert tuple(mu_check(HX, pprime, doubled, image(2 * B), x)) == want
    assert tuple(mu_check(HX, pprime, doubled)) == want


# -- mu_check against the older divisor test ------------------------------------


def test_mu_check_equals_the_divisor_oracle_where_the_flags_fail():
    # the seeded data all give (True, True); two constructed P' reach the
    # other branches: twice P', which B escapes, and all of H(C), on which
    # B lands but not onto, as g(C') = 1 here
    datum = random_simple(3, 4, 6, seed=1)
    HX, HC = _build(datum, OrbitKind.SPINOR), _build(datum, OrbitKind.VECTOR)
    incidence = prym.incidence_maps(HX, HC)
    pprime = prym_lattice(HC, corr.negation_matrix(3))
    assert 0 < pprime.rank < HC.rank
    doubled = HC.sublattice(2 * pprime.basis)
    assert tuple(mu_check(HX, doubled, incidence)) == (False, False)
    assert mu_check_via_divisors(HX, doubled, incidence) == (False, False)
    whole = HC.sublattice(eye(HC.rank))
    mu = mu_check(HX, whole, incidence)
    assert not mu.surjective
    assert tuple(mu) == mu_check_via_divisors(HX, whole, incidence)


@pytest.mark.parametrize("n,ds,dl,seed", [(3, 4, 6, 1), (4, 2, 8, 5), (5, 2, 10, 1)])
def test_prym_tyurin_lattices_carry_their_exponent(n, ds, dl, seed):
    # the exponent tag only lets the type try its chain modulo q first
    from dataclasses import replace

    datum = random_simple(n, ds, dl, seed=seed)
    HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
    HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
    lat, cert = prym_tyurin_lattice(HX)
    through, _ = prym_tyurin_lattice(HX, prym.incidence_maps(HX, HC))
    pprime = prym_lattice(HC, corr.negation_matrix(n))
    assert lat.exponent == through.exponent == cert["exponent"] == 2 ** (n - 1)
    assert pprime.exponent == 2
    for tagged in (lat, through, pprime):
        assert ptype(replace(tagged, exponent=None)) == ptype(tagged)
    assert all(2 ** (n - 1) % d == 0 for d in ptype(lat))
