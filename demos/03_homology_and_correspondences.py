"""Homology of a branched cover and the action of fiber correspondences.

The cover is cut along a star through the branch points; homology classes
are integer chains of lifted arcs, and the intersection form is computed
from the cyclic order of arc ends around each vertex. A correspondence acts
on chains arc by arc, so exact matrix identities on fibers push to exact
matrix identities on homology.
"""

from prymlab import corr, cover, lattice, surface
from prymlab.cover import induce, random_simple
from prymlab.lattice import det, eye, mat_equal, to_lists, zeros
from prymlab.weyl import OrbitKind

datum = random_simple(3, 4, 6, seed=1)

HX = surface.build_all(induce(datum, OrbitKind.SPINOR))
HC = surface.build_all(induce(datum, OrbitKind.VECTOR))
print(f"degree-8 cover: genus {HX.genus_total}, homology rank {HX.rank}")
print(f"degree-6 cover: genus {HC.genus_total}, homology rank {HC.rank}")
print("intersection gram of the degree-6 cover (unimodular, alternating):")
for row in to_lists(HC.gram):
    print("  ", row)
print("determinant:", det(HC.gram))

print()
print("== the main correspondence on the degree-8 cover ==")
D = corr.make_D(3)
print("fiber degree:", D.degree, " exponent:", 2 ** (3 - 1))
delta = surface.induced_map_all(HX, HX, D.matrix)
I = eye(HX.rank)
quad = (delta - I) @ (delta + 3 * I)
print("quadratic relation (delta-1)(delta+3) = 0 on homology:",
      mat_equal(quad, zeros(HX.rank, HX.rank)))

print()
print("== incidence correspondence and adjointness ==")
s0 = corr.make_S0(3).matrix
fwd = surface.induced_map_all(HX, HC, s0)
bwd = surface.induced_map_all(HC, HX, s0.T)
print("pairing adjointness <s a, b> = <a, ts b>:",
      mat_equal(fwd.T @ HC.gram, HX.gram @ bwd))
print("roundtrip equals 1 - delta:", mat_equal(bwd @ fwd, I - delta))

print()
print("== identity catalog at the fiber level ==")
for name in corr.identity_names():
    ranks = corr.applicable_ranks(name)
    results = [corr.check_identity(name, n).passed for n in ranks]
    print(f"{name:>28} ranks {ranks}: {'all pass' if all(results) else 'FAILED'}")
