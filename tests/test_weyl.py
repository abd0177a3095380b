import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import classify_by_enumeration, generated_group_bfs, perm_on_orbit_by_values
from prymlab.cover import random_simple
from prymlab.errors import RankError
from prymlab.weyl import (
    GroupClass,
    OrbitKind,
    OrbitLabel,
    SignedPerm,
    _order,
    act,
    all_roots,
    classify_subgroup,
    long_root,
    orbit_labels,
    pair_label,
    parity_label,
    perm_on_orbit,
    reflection,
    short_root,
    simple_roots,
    spinor_label,
    vector_label,
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_simple_reflections_generate_the_group(n):
    gens = [reflection(r, n) for r in simple_roots(n)]
    assert len(gens) == n
    assert _order(gens, n) == 2**n * math.factorial(n)


def test_repeated_generators_generate_the_same_group():
    gens = [reflection(r, 3) for r in simple_roots(3)]
    assert _order(gens * 5 + gens[:1], 3) == _order(gens, 3) == 48
    assert _order([gens[0]] * 4, 3) == 2
    assert _order([SignedPerm.identity(3)], 3) == 1


def test_order_reduces_a_generator_whose_filter_pair_is_taken():
    # both generators first move 2, to -2; only their quotient, the sign
    # flip of 3, keeps the second one's contribution
    gens = [SignedPerm(3, (1, -2, -3)), SignedPerm(3, (1, -2, 3))]
    assert _order(gens, 3) == 4


def test_reflection_short_root_flips_index():
    assert reflection(short_root(1), 2).to_list() == [-1, 2]


def test_reflection_long_root_minus_swaps():
    assert reflection(long_root(1, 2, -1), 2).to_list() == [2, 1]


def test_reflection_long_root_plus_swaps_with_signs():
    assert reflection(long_root(1, 2, +1), 3).to_list() == [-2, -1, 3]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reflections_are_involutions(n):
    for root in all_roots(n):
        w = reflection(root, n)
        assert (w * w).is_identity()


def test_reflection_rejects_out_of_range_indices():
    with pytest.raises(RankError):
        reflection(short_root(3), 2)


def test_signed_perm_rejects_bad_rank():
    with pytest.raises(RankError):
        SignedPerm(9, tuple(range(1, 10)))


def test_signed_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        SignedPerm(2, (1, 1))


@pytest.mark.parametrize("j", [0, 4, -4])
def test_signed_perm_refuses_indices_outside_its_range(j):
    with pytest.raises(ValueError, match=rf"^signed index must lie in \+-1\.\.\+-3, got {j}$"):
        SignedPerm(3, (2, -1, 3))(j)


def test_inverse_and_identity():
    w = SignedPerm(3, (-2, 3, -1))
    assert (w * w.inverse()).is_identity()
    assert (w.inverse() * w).is_identity()


def test_act_spinor_short_root_toggles_membership():
    s = reflection(short_root(1), 3)
    assert act(s, spinor_label(())) == spinor_label((1,))


def test_act_spinor_long_root_swaps_indices():
    s = reflection(long_root(1, 2, -1), 3)
    assert act(s, spinor_label((1,))) == spinor_label((2,))


def test_act_parity_short_reflection_flips():
    s = reflection(short_root(1), 3)
    assert act(s, parity_label(0)) == parity_label(1)


def test_act_vector_and_pair():
    w = reflection(long_root(1, 2, +1), 2)
    assert act(w, vector_label(1)) == vector_label(-2)
    assert act(w, pair_label(1)) == pair_label(2)


def test_act_rejects_rank_mismatch():
    w = reflection(short_root(1), 2)
    with pytest.raises(RankError):
        act(w, spinor_label((3,)))
    with pytest.raises(RankError):
        act(w, vector_label(3))
    # an unsorted subset names no sheet of the spinor orbit
    with pytest.raises(RankError):
        act(w, OrbitLabel(OrbitKind.SPINOR, (2, 1)))


def _random_element(rng, n):
    img = list(range(1, n + 1))
    rng.shuffle(img)
    return SignedPerm(n, tuple(v if rng.random() < 0.5 else -v for v in img))


def _random_label(rng, n):
    kind = rng.choice(list(OrbitKind))
    labels = orbit_labels(kind, n)
    return labels[rng.randrange(len(labels))]


def test_act_is_a_group_action_on_random_triples():
    rng = random.Random(20240)
    for _ in range(10_000):
        n = rng.randint(1, 5)
        w, v = _random_element(rng, n), _random_element(rng, n)
        x = _random_label(rng, n)
        assert act(w * v, x) == act(w, act(v, x))


def test_long_reflections_preserve_parity_short_flip():
    for n in (2, 3, 4):
        for root in all_roots(n, kinds=("long",)):
            w = reflection(root, n)
            assert act(w, parity_label(0)) == parity_label(0)
        for root in all_roots(n, kinds=("short",)):
            w = reflection(root, n)
            assert act(w, parity_label(0)) == parity_label(1)


def test_orbit_sizes():
    assert len(orbit_labels(OrbitKind.VECTOR, 3)) == 6
    assert len(orbit_labels(OrbitKind.SPINOR, 3)) == 8
    assert len(orbit_labels(OrbitKind.PAIR_CLASS, 3)) == 3
    assert len(orbit_labels(OrbitKind.PARITY, 3)) == 2
    assert len(orbit_labels(OrbitKind.SPINOR_CLASS, 3)) == 4


def test_vector_label_order_is_interleaved():
    assert [l.value for l in orbit_labels(OrbitKind.VECTOR, 2)] == [1, -1, 2, -2]


def test_spinor_labels_binary_order():
    assert [l.value for l in orbit_labels(OrbitKind.SPINOR, 2)] == [
        (),
        (1,),
        (2,),
        (1, 2),
    ]
    # a class sits at the smaller of its two masks
    assert [l.value for l in orbit_labels(OrbitKind.SPINOR_CLASS, 3)] == [
        ((), (1, 2, 3)),
        ((1,), (2, 3)),
        ((2,), (1, 3)),
        ((1, 2), (3,)),
    ]


def test_perm_on_orbit_is_a_permutation():
    w = reflection(long_root(1, 3, +1), 3)
    for kind in OrbitKind:
        p = perm_on_orbit(w, kind)
        assert sorted(p) == list(range(len(p)))


@pytest.mark.parametrize("n", range(1, 9))
def test_perm_on_orbit_matches_the_label_value_oracle(n):
    rng = random.Random(n)
    elements = [reflection(r, n) for r in all_roots(n)]
    elements += [_random_element(rng, n) for _ in range(20)]
    for w in elements:
        for kind in OrbitKind:
            assert perm_on_orbit(w, kind) == perm_on_orbit_by_values(w, kind), (w, kind)


# --- value types --------------------------------------------------------------


def test_signed_perm_holds_a_tuple_image():
    w = SignedPerm(2, [-1, 2])
    assert w.image == (-1, 2)
    assert w == SignedPerm(2, (-1, 2))
    assert hash(w) == hash(SignedPerm(2, (-1, 2)))
    assert classify_subgroup([w]) is classify_subgroup([SignedPerm(2, (-1, 2))])


def test_classify_needs_a_generator():
    with pytest.raises(ValueError, match="need at least one generator"):
        classify_subgroup([])


def test_classify_rejects_generators_of_mixed_rank():
    gens = [reflection(short_root(1), 3), reflection(short_root(1), 2)]
    with pytest.raises(ValueError, match="^generators of mixed rank$"):
        classify_subgroup(gens)


# --- classification ---------------------------------------------------------


def _full_b(n):
    return [reflection(r, n) for r in all_roots(n)]


def _full_d(n):
    return [reflection(r, n) for r in all_roots(n, kinds=("long",))]


def test_classify_full_b3():
    assert classify_subgroup(_full_b(3)) is GroupClass.FULL_B


def test_classify_full_d3():
    assert classify_subgroup(_full_d(3)) is GroupClass.FULL_D


def test_classify_normalizer():
    gens = [
        reflection(long_root(1, 2, -1), 3),
        reflection(long_root(2, 3, -1), 3),
        SignedPerm(3, (-1, -2, -3)),
    ]
    assert classify_subgroup(gens) is GroupClass.NORMALIZER_G1


def test_classify_g1():
    gens = [reflection(long_root(1, 2, -1), 3), reflection(long_root(2, 3, -1), 3)]
    assert classify_subgroup(gens) is GroupClass.G1_CONJUGATE


def test_classify_intransitive():
    gens = [reflection(short_root(1), 3)]
    assert classify_subgroup(gens) is GroupClass.INTRANSITIVE


def _construction(n, family):
    swaps = [reflection(long_root(j, j + 1, -1), n) for j in range(1, n)]
    if family is GroupClass.FULL_B:
        return _full_b(n)
    if family is GroupClass.FULL_D:
        return _full_d(n)
    if family is GroupClass.G1_CONJUGATE:
        return swaps
    if family is GroupClass.NORMALIZER_G1:
        return swaps + [SignedPerm(n, tuple(-j for j in range(1, n + 1)))]
    return [reflection(short_root(1), n)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n", [7, 8])
@pytest.mark.parametrize(
    "family", [c for c in GroupClass if c is not GroupClass.OTHER], ids=lambda c: c.value
)
def test_classify_by_construction_at_ranks_7_and_8(family, n, seed):
    w = _random_element(random.Random(100 * n + seed), n)
    conj = [w * g * w.inverse() for g in _construction(n, family)]
    assert classify_subgroup(conj) is family


@pytest.mark.parametrize(
    "rung, cls", [((7, 0, 18, 0), GroupClass.FULL_D), ((7, 6, 14, 0), GroupClass.FULL_B)]
)
def test_classify_rank_7_data(rung, cls):
    assert classify_subgroup(list(random_simple(*rung).gens)) is cls


@pytest.mark.parametrize("seed", range(4))
def test_classify_invariant_under_conjugation(seed):
    rng = random.Random(seed)
    cases = [
        _full_b(3),
        _full_d(3),
        [
            reflection(long_root(1, 2, -1), 3),
            reflection(long_root(2, 3, -1), 3),
            SignedPerm(3, (-1, -2, -3)),
        ],
        [reflection(long_root(1, 2, -1), 3), reflection(long_root(2, 3, -1), 3)],
    ]
    for gens in cases:
        base = classify_subgroup(gens)
        w = _random_element(rng, 3)
        conj = [w * g * w.inverse() for g in gens]
        assert classify_subgroup(conj) is base


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.data())
def test_composition_matches_pointwise_application(n, data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    w, v = _random_element(rng, n), _random_element(rng, n)
    for j in range(-n, n + 1):
        if j != 0:
            assert (w * v)(j) == w(v(j))


@settings(max_examples=120, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_order_matches_signed_permutation_closure(n, data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    if data.draw(st.booleans()):
        gens = [reflection(rng.choice(all_roots(n)), n) for _ in range(n + 1)]
    else:
        gens = [_random_element(rng, n) for _ in range(data.draw(st.integers(1, 4)))]
    gens += gens[: data.draw(st.integers(0, 2))]  # repeated generators
    gens += [SignedPerm.identity(n)] * data.draw(st.integers(0, 1))
    rng.shuffle(gens)
    assert _order(gens, n) == len(generated_group_bfs(gens))


def _classify_case(rng, n, family):
    """A generating set of one of five families: reflections, reflections
    with an arbitrary element, arbitrary elements, or a conjugate of the
    G1 or the normalizer generating set."""
    if family in ("g1", "normalizer"):
        gens = [reflection(long_root(j, j + 1, -1), n) for j in range(1, n)]
        if family == "normalizer":
            gens.append(SignedPerm(n, tuple(-j for j in range(1, n + 1))))
        w = _random_element(rng, n)
        return [w * g * w.inverse() for g in gens]
    if family == "arbitrary":
        return [_random_element(rng, n) for _ in range(rng.randint(1, 3))]
    roots = all_roots(n, kinds=("long",) if rng.random() < 0.3 else ("short", "long"))
    gens = [reflection(rng.choice(roots), n) for _ in range(rng.randint(1, n + 2))]
    if family == "mixed":
        gens.append(_random_element(rng, n))
    return gens


_FAMILIES = ("reflections", "mixed", "arbitrary", "g1", "normalizer")


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.sampled_from(_FAMILIES), st.integers(0, 10**6))
def test_classify_matches_classification_by_enumeration(n, family, seed):
    gens = _classify_case(random.Random(seed), n, family)
    assert classify_subgroup(gens) is classify_by_enumeration(gens)


def test_classification_reference_reaches_every_class():
    rng = random.Random(23)
    seen = set()
    for k in range(150):
        gens = _classify_case(rng, 2 + k % 4, _FAMILIES[k % 5])
        cls = classify_subgroup(gens)
        assert cls is classify_by_enumeration(gens), gens
        seen.add(cls)
    assert seen == set(GroupClass)
