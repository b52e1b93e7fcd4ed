"""A tour of Carlitz torsion in both completions of F_q(T).

Walks one order M = T^2 over F_3 through: the additive operator itself, its
full set of torsion points P-adically (Hensel-lifted) and at infinity
(digit-by-digit in the wildly ramified extension V_q), and checks that the
valuations seen at infinity are exactly the ones the Newton polygon predicts.
"""

from carlitz.gf import GF
from carlitz.operator import carlitz_act, carlitz_operator
from carlitz.poly import Poly, parse_poly
from carlitz.reciprocity import newton_polygon, xi_poly
from carlitz.torsion import torsion_padic, torsion_vq

gf = GF(3)
M = parse_poly("T^2", gf)

print(f"base field F_{gf.q}(T), order M = {M}")
print(f"rho_M as an additive polynomial: {carlitz_operator(M)}")
print()

print("--- torsion at a finite prime (P = T, depth 6) ---")
ts = torsion_padic(Poly.T(gf), 6)
print(f"{len(ts)} roots of rho_(P-1) in F_3[T]/T^6:")
for x in sorted(str(p) for p in ts):
    print(f"  {x}")
print()

print("--- torsion at infinity ---")
tv = torsion_vq(M, 10)
print(f"{len(tv)} roots of rho_M in V_3 (s^(q-1) = -1/T), 10 s-digits:")
for p in tv.points:
    v = "inf" if p.is_zero() else p.valuation()
    print(f"  v = {v:>4}:  {p}")
print()

print("--- the Newton polygon knows the valuations ---")
np_ = newton_polygon(xi_poly(M))
print(f"division form: {xi_poly(M)}")
print(f"polygon vertices: {np_.vertices}")
for slope, length in np_.segments:
    count = int(length) * (gf.q - 1)
    print(f"  segment of slope {slope}: {count} torsion points of valuation {-slope}")
print()

print("--- sanity: every point is killed by M ---")
for p in tv.points:
    img = carlitz_act(M, p)
    assert img.is_zero() or not any(c for _, c in img.terms())
print("all torsion points vanish under rho_M (to working precision)")
