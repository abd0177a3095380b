import random
import time

import pytest

from _oracles import random_simple_loop
from prymlab import cover, weyl
from prymlab.cover import (
    MonodromyDatum,
    SplitMix64,
    component_cover,
    components,
    cycle_type,
    genus,
    induce,
    predict,
    ramification,
    random_simple,
    validate,
)
from prymlab.errors import DisconnectedError, GenerationError, MonodromyError, RankError
from prymlab.weyl import GroupClass, OrbitKind, SignedPerm, reflection, short_root


def _s(j, n):
    return reflection(short_root(j), n)


def _l(j, k, sign, n):
    return reflection(weyl.long_root(j, k, sign), n)


def test_validate_involution_pair():
    d = MonodromyDatum(2, 0, (_s(1, 2), _s(1, 2)))
    assert validate(d) is None


def test_validate_flags_nonidentity_product():
    d = MonodromyDatum(2, 0, (_s(1, 2),))
    report = validate(d)
    assert report is not None
    assert report.offending_product.to_list() == [-1, 2]


def test_validate_genus_one_commuting_handles():
    w = _s(1, 2)
    ok = MonodromyDatum(2, 1, (), ((w, w),))
    assert validate(ok) is None
    v = _l(1, 2, -1, 2)
    bad = MonodromyDatum(2, 1, (), ((w, v),))
    assert validate(bad) is not None


def test_datum_holds_tuples_of_generators_and_handles():
    w, v = _s(1, 2), _l(1, 2, -1, 2)
    listed = MonodromyDatum(2, 1, [w, w], [[w, v]])
    assert listed == MonodromyDatum(2, 1, (w, w), ((w, v),))
    assert hash(listed) == hash(MonodromyDatum(2, 1, (w, w), ((w, v),)))
    assert isinstance(listed.gens, tuple) and isinstance(listed.handles[0], tuple)


def test_datum_requires_matching_handles():
    with pytest.raises(MonodromyError):
        MonodromyDatum(2, 1, (_s(1, 2), _s(1, 2)))


@pytest.mark.parametrize("handles", [
    lambda w: ((w,),),
    lambda w: (w,),
    lambda w: ((w, w, w),),
    lambda w: ((w, [2, 1]),),
    lambda w: (3,),
])
def test_datum_rejects_a_handle_that_is_not_a_pair(handles):
    w = _s(1, 2)
    with pytest.raises(MonodromyError, match="handle 0 is not a pair"):
        MonodromyDatum(2, 1, (), handles(w))


def test_datum_names_the_bad_handle():
    w = _s(1, 2)
    with pytest.raises(MonodromyError, match="handle 1 "):
        MonodromyDatum(2, 2, (), ((w, w), (w,)))


def test_induce_degrees():
    d2 = random_simple(2, 4, 4, seed=0)
    assert induce(d2, OrbitKind.SPINOR).degree == 4
    d3 = random_simple(3, 4, 6, seed=0)
    assert induce(d3, OrbitKind.SPINOR).degree == 8
    assert induce(d3, OrbitKind.PARITY).degree == 2
    assert induce(d3, OrbitKind.VECTOR).degree == 6


def _compose(p, q):
    # index version of function composition: (p after q)[i] = p[q[i]]
    return tuple(p[q[i]] for i in range(len(p)))


def _invert(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def test_induced_perms_satisfy_product_relation():
    data = [
        random_simple(2, 4, 4, seed=1),
        random_simple(3, 4, 6, seed=1),
        MonodromyDatum(2, 1, (_s(1, 2), _s(1, 2)), ((_s(2, 2), _s(2, 2)),)),
    ]
    for datum in data:
        for kind in OrbitKind:
            cm = induce(datum, kind)
            deg = cm.degree
            ident = tuple(range(deg))
            prod = ident
            for p in cm.perms:
                prod = _compose(prod, p)
            rhs = ident
            for a, b in cm.handle_perms:
                comm = _compose(_compose(a, b), _compose(_invert(a), _invert(b)))
                rhs = _compose(rhs, comm)
            assert prod == rhs


def test_components_full_b_spinor_connected():
    d = random_simple(3, 4, 6, seed=2)
    assert len(components(induce(d, OrbitKind.SPINOR))) == 1


def test_components_full_d_spinor_splits():
    d = random_simple(3, 0, 10, seed=2)
    comps = components(induce(d, OrbitKind.SPINOR))
    assert [len(c) for c in comps] == [4, 4]


def test_components_trivial_genus_one_datum():
    e = SignedPerm.identity(2)
    d = MonodromyDatum(2, 1, (e,), ((e, e),))
    comps = components(induce(d, OrbitKind.VECTOR))
    assert len(comps) == 4  # 2n singletons


def test_ramification_spinor_counts():
    d = random_simple(3, 4, 6, seed=3)
    rep = ramification(induce(d, OrbitKind.SPINOR))
    assert rep.simple
    for kind, ct in zip(rep.reflection_kinds, rep.cycle_types):
        twos = sum(1 for c in ct if c == 2)
        assert twos == (4 if kind == "short" else 2)
    assert len(rep.short_points) == 4
    assert len(rep.long_points) == 6


def test_ramification_identity_generator():
    e = SignedPerm.identity(2)
    d = MonodromyDatum(2, 1, (e, e), ((e, e),))
    rep = ramification(induce(d, OrbitKind.VECTOR))
    assert rep.cycle_types[0] == (1, 1, 1, 1)
    assert not rep.simple


def test_genus_b3_tower():
    d = random_simple(3, 4, 6, seed=1)
    assert genus(induce(d, OrbitKind.VECTOR)) == 3
    assert genus(induce(d, OrbitKind.PAIR_CLASS)) == 1
    assert genus(induce(d, OrbitKind.SPINOR)) == 7


def test_genus_refuses_disconnected_with_component_list():
    d = random_simple(3, 0, 10, seed=2)
    with pytest.raises(DisconnectedError) as err:
        genus(induce(d, OrbitKind.SPINOR))
    assert len(err.value.components) == 2


def test_genus_closed_form_on_random_simple_data():
    rng = random.Random(9)
    for _ in range(10):
        n = rng.choice([2, 3, 4])
        ds = 2 * rng.randint(1, 3)
        # the long transpositions must be able to connect all pair classes
        dl = 2 * rng.randint(2, 4) if n <= 3 else 2 * rng.randint(3, 4)
        datum = random_simple(n, ds, dl, seed=rng.randint(0, 10**6))
        got = genus(induce(datum, OrbitKind.SPINOR))
        if n >= 3:
            want = 2 ** (n - 2) * ds + 2 ** (n - 3) * dl - 2**n + 1
        else:
            want = ds + dl // 2 - 3
        assert got == want


def test_component_cover_restricts_consistently():
    d = random_simple(3, 0, 10, seed=2)
    cm = induce(d, OrbitKind.SPINOR)
    comps = components(cm)
    sub = component_cover(cm, comps[0])
    assert sub.degree == 4
    assert len(components(sub)) == 1
    assert genus(sub) == genus(component_cover(cm, comps[1]))


def test_cycle_type():
    assert cycle_type((1, 0, 2)) == (2, 1)
    assert cycle_type((0, 1, 2)) == (1, 1, 1)


def test_predict_theorem_lists():
    p = predict(3, 4, 6, 0)
    assert p.genera == {"C'": 1, "C": 3, "X": 7, "Ytilde": 1}
    assert p.types["P(C,C')"] == (1, 2)
    assert p.types["P(X,delta)"] == (2, 4)
    p2 = predict(2, 4, 4, 0)
    assert p2.types["P(C,C')"] == (1, 2)
    assert p2.types["P(X,X')"] == (1, 2)
    p4 = predict(4, 4, 8, 0)
    assert p4.types["P(X,delta) conjectured"] == (4, 8)


def test_predict_dimension_identity_rank3():
    # the Prym-Tyurin dimension splits off the degree-2 quotient contribution
    for ds, dl in [(4, 6), (6, 6), (4, 8), (2, 10)]:
        p = predict(3, ds, dl, 0)
        assert p.dims["P(X,delta)"] == p.dims["P(X,X')"] - p.dims["P(Ytilde,Y)"]


def test_predict_out_of_regime_flagged():
    p = predict(3, 2, 2, 0)
    assert "P(C,C')" in p.out_of_regime or p.types.get("P(C,C')") is None


def test_predict_positive_genus_notes_limitation():
    p = predict(3, 4, 6, 1)
    assert p.notes
    assert p.types["P(X,delta)"] == (2,) * 3 + (4,) + (8,)


def test_predict_rejects_odd_counts():
    with pytest.raises(ValueError):
        predict(3, 3, 6, 0)


def test_predict_rejects_negative_base_genus():
    with pytest.raises(ValueError, match="base genus"):
        predict(3, 4, 6, -1)


def test_predict_rank_one_and_below():
    # rank 1 has only the double cover C: genera, no Prym-Tyurin type
    p = predict(1, 4, 0, 0)
    assert p.genera["C"] == 1
    assert "P(X,delta) conjectured" not in p.types
    with pytest.raises(RankError, match="rank must be at least 1"):
        predict(0, 2, 2, 0)


def test_predict_refuses_ranks_above_the_signed_permutation_cap():
    from prymlab.weyl import RANK_MAX

    assert predict(RANK_MAX, 4, 16, 0).genera["X"] > 0
    for n in (RANK_MAX + 1, 20000):
        with pytest.raises(RankError, match=f"at most {RANK_MAX}, got {n}"):
            predict(n, 2, 2, 0)


def test_random_simple_deterministic_and_valid():
    a = random_simple(3, 4, 6, seed=42)
    b = random_simple(3, 4, 6, seed=42)
    assert a == b
    assert validate(a) is None
    rep = ramification(induce(a, OrbitKind.VECTOR))
    assert rep.simple
    assert len(rep.short_points) == 4 and len(rep.long_points) == 6


def test_random_simple_classification_matches_theory():
    # short points force the full group; none force the even subgroup
    assert weyl.classify_subgroup(list(random_simple(2, 4, 4, 5).gens)) is GroupClass.FULL_B
    assert weyl.classify_subgroup(list(random_simple(3, 0, 10, 5).gens)) in (
        GroupClass.FULL_D,
        GroupClass.NORMALIZER_G1,
    )


def test_random_simple_parity_obstruction():
    with pytest.raises(GenerationError):
        random_simple(2, 1, 4, seed=0)
    with pytest.raises(GenerationError):
        random_simple(3, 2, 3, seed=0)


@pytest.mark.parametrize("n,ds,dl", [(4, 2, 2), (3, 0, 4), (4, 0, 6), (2, 0, 2)])
def test_random_simple_riemann_hurwitz_fails_fast(n, ds, dl):
    # g(C') = dl/2 - n + 1 < 0 at (4, 2, 2); g(C) = ds/2 + dl - 2n + 1 = -1 at
    # the others: no connected vector cover exists
    genera = predict(n, ds, dl, 0).genera
    assert min(genera["C'"], genera["C"]) < 0
    start = time.perf_counter()
    with pytest.raises(GenerationError, match="before any draw"):
        random_simple(n, ds, dl, seed=0)
    assert time.perf_counter() - start < 1.0


def test_splitmix_stream_is_pinned():
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]
    rng2 = SplitMix64(0)
    assert rng2.below(10) == (first[0] * 10) >> 64


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**64), 2**70])
def test_random_simple_refuses_seeds_outside_the_stream(seed):
    # the stream takes its seed mod 2^64, so these would alias seeds in range
    with pytest.raises(GenerationError, match=r"^seed must lie in \[0, 2\^64\), got "):
        random_simple(2, 4, 4, seed=seed)


def test_random_simple_takes_both_ends_of_the_seed_range():
    for seed in (0, 2**64 - 1):
        assert random_simple(2, 4, 4, seed=seed) == random_simple(2, 4, 4, seed=seed)
    assert random_simple(2, 4, 4, seed=2**64 - 1) != random_simple(2, 4, 4, seed=0)


def _outcome(generate, *args):
    try:
        return generate(*args)
    except GenerationError as exc:
        return "E:" + str(exc)


def test_random_simple_matches_the_rejection_loop_on_a_grid():
    outcomes = []
    for n in range(2, 7):
        for ds in range(0, 9, 2):
            for dl in range(0, 11, 2):
                for seed in range(3):
                    got = _outcome(random_simple, n, ds, dl, seed)
                    assert got == _outcome(random_simple_loop, n, ds, dl, seed), (n, ds, dl, seed)
                    outcomes.append(got)
    accepted = sum(isinstance(o, MonodromyDatum) for o in outcomes)
    assert (len(outcomes), accepted) == (450, 210)


@pytest.mark.parametrize("case", [(7, 0, 18, 0), (7, 6, 14, 0)])
def test_random_simple_matches_the_rejection_loop_at_rank_7(case):
    assert random_simple(*case) == random_simple_loop(*case)


def test_random_simple_draws_build_no_cover(monkeypatch):
    expected = random_simple_loop(4, 12, 16, 3)

    def refuse(*args, **kwargs):
        raise AssertionError("a draw built a cover or classified a product")

    for name in ("induce", "components"):
        monkeypatch.setattr(cover, name, refuse)
    monkeypatch.setattr(weyl, "reflection_kind", refuse)
    assert random_simple(4, 12, 16, 3) == expected
