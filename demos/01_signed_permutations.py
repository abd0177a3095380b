"""Signed permutations, weight orbits, and monodromy-group classification.

The whole package is driven by one small group: bijections of the signed
indices {-n..-1, 1..n} commuting with negation. This script walks through
the reflections, the orbits they act on, and the classification of the
subgroups a monodromy datum can generate.
"""

from prymlab import weyl
from prymlab.weyl import (
    OrbitKind,
    SignedPerm,
    act,
    all_roots,
    classify_subgroup,
    long_root,
    orbit_labels,
    reflection,
    short_root,
    simple_roots,
    spinor_label,
)

n = 3

print("== reflections ==")
print("sign flip of index 1:        ", reflection(short_root(1), n).to_list())
print("swap of indices 1,2:         ", reflection(long_root(1, 2, -1), n).to_list())
print("signed swap of indices 1,2:  ", reflection(long_root(1, 2, +1), n).to_list())

print()
print("== the five orbits at rank", n, "==")
for kind in OrbitKind:
    labels = orbit_labels(kind, n)
    print(f"{kind.value:>12}: {len(labels):>2} labels   e.g. {labels[0].value!r}")

print()
print("== subset orbit action ==")
w = reflection(short_root(1), n)
for subset in [(), (1,), (1, 2)]:
    image = act(w, spinor_label(subset))
    print(f"sign flip of 1 sends subset {subset} to {image.value}")

print()
print("== classification: group order by a stabiliser chain ==")
full_b = [reflection(r, n) for r in all_roots(n)]
full_d = [reflection(r, n) for r in all_roots(n, kinds=("long",))]
norm = [
    reflection(long_root(1, 2, -1), n),
    reflection(long_root(2, 3, -1), n),
    SignedPerm(n, (-1, -2, -3)),
]
for name, gens in [
    ("all reflections", full_b),
    ("long reflections only", full_d),
    ("adjacent swaps plus central flip", norm),
    ("adjacent swaps only", norm[:2]),
]:
    print(f"{name:>32} -> {classify_subgroup(gens).value}")
# the order needs no enumeration, so rank 8 (|W(B_8)| = 10,321,920) is quick
print(f"{'rank 8, simple reflections':>32} -> "
      f"{classify_subgroup([reflection(r, 8) for r in simple_roots(8)]).value}")
