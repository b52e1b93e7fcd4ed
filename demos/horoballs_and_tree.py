"""Horoball tangency and the tree at infinity.

Mutually tangent families of horoballs over F_q(T) satisfy a perfect
Descartes-type identity: the curvature form (sum X)^(q-1) - sum X^(q-1)
vanishes identically on a tangent family and generically detects non-tangent
ones.  The same geometry is visible combinatorially on the (q+1)-regular
Bruhat-Tits tree, where each horoball determines a geodesic ray.
"""

import random

from carlitz.geometry import (
    Fraction,
    TreeVertex,
    descartes_form,
    geodesic_ray,
    random_tangent_family,
    tangent_family,
    tree_distance,
    tree_neighbors,
)
from carlitz.gf import GF
from carlitz.poly import parse_poly

gf = GF(3)

print("--- a tangent family and its vanishing form ---")
f1 = Fraction(parse_poly("1", gf), parse_poly("T", gf))
fam = tangent_family(f1, Fraction.zero(gf))
print(f"family spanned by 1/T and 0: {[str(m) for m in fam]}")
print(f"descartes form: {descartes_form(fam)}")
print()

print("--- random families keep vanishing; random tuples do not ---")
rng = random.Random(2024)
for _ in range(5):
    fam = random_tangent_family(gf, rng)
    val = descartes_form(fam)
    print(f"  tangent {[str(m) for m in fam]} -> {val}")
    assert val.is_zero()
xs = [
    Fraction.zero(gf),
    Fraction(parse_poly("1", gf), parse_poly("T^2", gf)),
    Fraction(parse_poly("1", gf), parse_poly("T^3", gf)),
    Fraction(parse_poly("1", gf), parse_poly("T^4", gf)),
]
val = descartes_form(xs)
print(f"  non-tangent tuple -> ({val.num})/({val.den})")
print()

print("--- the (q+1)-regular tree ---")
base = TreeVertex(gf, 0, {})
nbrs = tree_neighbors(base)
print(f"base vertex {base.label()} has {len(nbrs)} neighbors:")
for n in nbrs:
    print(f"  {n.label()}")
print()

print("--- geodesic rays toward boundary points ---")
for text in ("1/T", "T+1"):
    num, _, den = text.partition("/")
    f = Fraction(parse_poly(num, gf), parse_poly(den or "1", gf))
    ray = geodesic_ray(f, 5)
    print(f"ray toward {f}:")
    for v in ray:
        print(f"  {v.label()}")
    for a, b in zip(ray, ray[1:]):
        assert tree_distance(a, b) == 1
    print()
