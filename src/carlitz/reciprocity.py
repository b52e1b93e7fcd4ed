"""Power-residue symbols, the reciprocity law for F_q[T], residue-degree
predicates, Newton polygons, and the (q-1)-st power Kummer map on V_q.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .errors import CarlitzError, DomainError
from .operator import XPoly, carlitz_act, carlitz_operator
from .poly import Poly, euler_phi, is_irreducible, order_dividing, poly_gcd, pow_mod
from .series import InfLaurent, VqElem

__all__ = [
    "residue_symbol",
    "check_reciprocity",
    "reciprocity_sides",
    "residue_degree_kummer",
    "residue_degree_cyclotomic",
    "xi_poly",
    "NewtonPolygon",
    "newton_polygon",
    "kummer_map",
    "kummer_solve",
    "star_action",
]


# That P is monic irreducible: a function of P alone, so the symbols for
# every A and d share one irreducibility test.  A failed test raises and is not
# cached.  cache_info() reports hits, misses and size.
@functools.lru_cache(maxsize=512)
def _check_prime(P: Poly) -> None:
    if P.degree < 1 or not P.is_monic() or not is_irreducible(P):
        raise DomainError(f"{P} is not monic irreducible")


def _norm(a: Poly, P: Poly) -> int:
    """N(a) from F_q[T]/P to F_q for monic P: the resultant Res(P, a), by
    Euclid's algorithm (von zur Gathen-Gerhard, Modern Computer Algebra,
    ch. 6).  With f = s*g + r, Res(f, g) = (-1)^(deg f deg g) lc(g)^(deg f -
    deg r) Res(g, r), and Res(f, c) = c^(deg f) for a constant c."""
    gf = P.gf
    f, g, res = P, a, 1
    while g.degree > 0:
        r = f % g
        if r.is_zero():
            return 0
        if f.degree * g.degree % 2:
            res = gf.neg(res)
        res = gf.mul(res, gf.pow(g.lc, f.degree - r.degree))
        f, g = g, r
    return gf.mul(res, gf.pow(g.lc, f.degree))


def residue_symbol(A: Poly, P: Poly, d: int) -> int:
    """The d-th power residue symbol (A/P)_d = A^((q^r - 1)/d) mod P in F_q^*.

    The symbol is 1 exactly when A is a d-th power residue mod P.  It is
    computed as N(a)^((q-1)/d) with a = A mod P and N(a) = a^(1 + q + ... +
    q^(r-1)) the norm to F_q (Rosen, Number Theory in Function Fields,
    ch. 3), taken as the resultant Res(P, a).  P's irreducibility check is
    run once per P and kept in a bounded memo.
    """
    gf = P.gf
    if d < 1 or (gf.q - 1) % d != 0:
        raise DomainError(f"d = {d} does not divide q - 1 = {gf.q - 1}")
    _check_prime(P)
    a = A % P
    if a.is_zero():
        raise DomainError(f"{A} is not coprime to {P}")
    norm = _norm(a, P)
    if norm == 0:
        raise CarlitzError(f"the norm of {a} mod {P} is 0")
    return gf.pow(norm, (gf.q - 1) // d)


def check_reciprocity(P: Poly, Q: Poly, d: int):
    """(P/Q)_d * (Q/P)_d^{-1} against the sign (-1)^((q-1)/d * deg P * deg Q).

    Returns (lhs, rhs, holds).
    """
    if P == Q:
        raise DomainError("the pair must be coprime")
    return reciprocity_sides(P, Q, d, residue_symbol(P, Q, d), residue_symbol(Q, P, d))


def reciprocity_sides(P: Poly, Q: Poly, d: int, pq: int, qp: int):
    """(lhs, rhs, holds) of the law from pq = (P/Q)_d and qp = (Q/P)_d."""
    gf = P.gf
    lhs = gf.mul(pq, gf.inv(qp))
    rhs = gf.pow(gf.neg(1), ((gf.q - 1) // d) * P.degree * Q.degree)
    return lhs, rhs, lhs == rhs


def residue_degree_kummer(A: Poly, P: Poly, d: int) -> int:
    """Residue degree of P in the degree-d radical extension adjoining a
    d-th root of A: the multiplicative order of the residue symbol."""
    return P.gf.order(residue_symbol(A, P, d))


def residue_degree_cyclotomic(P: Poly, A: Poly) -> int:
    """Residue degree of P in the A-division-point extension: the
    multiplicative order of P in (F_q[T]/A)^*.  It divides the group order
    phi(A), so it is phi(A) divided by each prime l of phi(A) while the
    power of P stays 1, which is 0 mod a constant A."""
    if poly_gcd(P, A).degree != 0:
        raise DomainError(f"{P} is not coprime to {A}")
    base = P % A
    one = Poly.one(P.gf) % A
    order = euler_phi(A)
    if pow_mod(base, order, A) != one:
        raise CarlitzError(f"order of {P} mod {A} exceeds the group order {order}")
    return order_dividing(order, lambda e: pow_mod(base, e, A) == one)


def xi_poly(A: Poly) -> XPoly:
    """The polynomial Xi with rho_A(u) = u * Xi(u^(q-1)): the i-th operator
    coefficient lands at v-exponent (q^i - 1)/(q - 1)."""
    if A.is_zero():
        raise DomainError("zero polynomial has no Xi")
    gf = A.gf
    q = gf.q
    op = carlitz_operator(A)
    return XPoly.from_terms(
        gf,
        {(q ** i - 1) // (q - 1): c for i, c in enumerate(op.coeffs) if not c.is_zero()},
    )


class NewtonPolygon:
    """Lower convex hull of (exponent, coefficient valuation) points."""

    __slots__ = ("vertices", "segments")

    def __init__(self, vertices):
        self.vertices = list(vertices)
        segs = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            segs.append((Fraction(y1 - y0, x1 - x0), Fraction(x1 - x0)))
        self.segments = segs

    def slopes(self):
        return [s for s, _ in self.segments]

    def root_valuations(self):
        """(valuation, count) pairs: a segment of slope m and length l carries
        l roots of valuation -m."""
        return [(-s, l) for s, l in self.segments]

    def __eq__(self, other):
        return isinstance(other, NewtonPolygon) and self.vertices == other.vertices

    def __repr__(self):
        return f"NewtonPolygon(vertices={self.vertices})"


def newton_polygon(f: XPoly) -> NewtonPolygon:
    """Newton polygon of f for the valuation at infinity of its
    coefficients, v = -deg."""
    if f.is_zero():
        raise DomainError("zero polynomial has no Newton polygon")
    pts = [(e, -c.degree) for e, c in enumerate(f.coeffs) if not c.is_zero()]
    # Andrew-monotone-chain lower hull, left to right
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (p[1] - y0) <= (p[0] - x0) * (y1 - y0):
                hull.pop()
            else:
                break
        hull.append(p)
    return NewtonPolygon(hull)


def kummer_map(u: VqElem) -> InfLaurent:
    """kappa(u) = u^(q-1), which lands in the embedded base completion; errors
    with the offending s-digit index if it does not."""
    gf = u.gf
    w = u ** (gf.q - 1)
    return w.to_inf()


def kummer_solve(M: InfLaurent) -> VqElem:
    """One root of X^(q-1) = M in V_q (the rest are its F_q^*-multiples).

    Strategy: with m = v(M) (u-adic), M = (-T)^(-m) * U for a unit U; a root
    is s^m * Y with Y^(q-1) = U.  Solvable only when U has residue 1 — the
    residue field is F_q, where the only (q-1)-st power is 1; anything else
    is reported.  In Z_p, 1/(q-1) = -(1 + q + q^2 + ...), and the Frobenius
    image U^(q^k) is 1 + O(u^(q^k)), so Y = (U * U^q * ... * U^(q^K))^(-1)
    for the least K with q^(K+1) >= prec.
    """
    gf = M.gf
    q = gf.q
    if M.is_zero():
        raise DomainError("zero has no nonzero (q-1)-st root; kappa(0) = 0")
    m = M.v
    sign = gf.neg(1) if m % 2 else 1
    U = M.shifted(-m).scale(sign)  # (-1)^m T^m = (-1)^m u^-m is a shift and a sign
    eta = U.coeffs[0]
    if eta != 1:
        raise CarlitzError(
            f"residue {gf.fmt_elem(eta)} is not a (q-1)-st power in F_q; "
            "no root exists in this completion"
        )
    prec = U.prec
    if prec is None:
        prec = max(10, 2 * (q - 1))
        U = U.truncate(prec)
    # U^(q^(k+1)) spreads the digits of U^(q^k) below ceil(prec/q), which
    # are all it needs for its own digits below prec
    product, factor, reach = U, U, q
    while reach < prec:
        factor = factor.truncate(-(-prec // q)).frobenius()
        product = product * factor
        reach *= q
    return VqElem.from_inf(product.inverse()).shifted(m)


def star_action(A: Poly, nu: InfLaurent) -> InfLaurent:
    """A acting on a kappa-image: kappa(rho_A(u)) for any u with kappa(u) = nu.

    Well defined because kappa collapses F_q^*-multiples and rho_A is
    F_q-linear.  A truncated zero O(u^p) is kappa of every u in O(s^p), so
    it gives kappa(rho_A(O(s^p))).
    """
    if nu.is_zero():
        return nu if nu.prec is None else kummer_map(carlitz_act(A, VqElem.zero(nu.gf, nu.prec)))
    u = kummer_solve(nu)
    return kummer_map(carlitz_act(A, u))
