"""Distinct-degree factorization over the residue field F_q[T]/(P).

At a prime of degree 1, P = T - a, the residue field is F_q itself: each
coefficient of f is reduced mod P by evaluating it at a, and the factorization
is ``poly.distinct_degrees``, the loop that also tests irreducibility.
At a prime of degree >= 2, polynomials in x are ``XPoly`` values whose
coefficients are kept reduced mod P, and every product and division runs on
the ``XPoly`` kernel with modulus P.  x^(Q^d), Q = q^(deg P), is taken by
deg P applications per degree of the q-th power map, which is F_q-linear
and read off one table of x^(q i) mod the unsplit part (``_QPower``).
"""

from __future__ import annotations

from .errors import CarlitzError, DomainError
from .operator import XPoly
from .poly import Poly, distinct_degrees, is_irreducible, poly_gcd, pow_mod, square_multiply


def _gcd(a: XPoly, b: XPoly, P: Poly) -> XPoly:
    """A gcd over F_q[T]/(P), up to a unit."""
    while not b.is_zero():
        a, b = b, a.divmod(b, P)[1]
    return a


class _QPower:
    """h -> h^q on F_q[T]/(P)[x]/(rest), an F_q-linear map (von zur
    Gathen-Shoup, Comput. Complexity 2, 1992; von zur Gathen-Gerhard, Modern
    Computer Algebra, 14.2): h^q = sum_i s(h_i) R_i mod rest, with rows
    R_i = x^(q i) mod rest and s(sum_j c_j T^j) = sum_j c_j (T^(q j) mod P),
    the q-th power on the residue field, as the c_j lie in F_q.  R_1 = x^q
    by square-and-multiply and R_i = R_(i-1) R_1; each row is held flat,
    2 deg P - 1 T-slots per x-coefficient, so s(h_i) R_i is one packed
    product.  When rest moves to a divisor, the rows are reduced mod it."""

    __slots__ = ("P", "tau", "rows", "flat")

    def __init__(self, rest: XPoly, P: Poly):
        gf = P.gf
        self.P = P
        self.tau = [pow_mod(Poly.T(gf), gf.q * j, P).coeffs for j in range(P.degree)]

        def mul(a, b):
            return (a * b).divmod(rest, P)[1]

        x_q = square_multiply(XPoly(gf, [Poly.zero(gf), Poly.one(gf)]), gf.q, mul)
        rows = [XPoly(gf, [Poly.one(gf)])]
        for _ in range(1, rest.deg()):
            rows.append(mul(rows[-1], x_q))
        self._set(rows)

    def _set(self, rows):
        self.rows = rows
        self.flat = [r._kronecker(2 * self.P.degree - 1) for r in rows]

    def __call__(self, h: XPoly, rest: XPoly) -> XPoly:
        """h^q mod rest, for h reduced mod rest and rest a divisor of the
        modulus the rows were built for."""
        P = self.P
        gf, S = P.gf, 2 * P.degree - 1
        if len(self.rows) > rest.deg():
            self._set([r.divmod(rest, P)[1] for r in self.rows[: rest.deg()]])
        acc = Poly.zero(gf)
        for c, row in zip(h.coeffs, self.flat):
            if not c.is_zero():
                s = []
                for a, t in zip(c.coeffs, self.tau):
                    if a:
                        s = gf.add_vec(s, gf.scale_vec(a, t))
                acc = acc + Poly(gf, s) * row
        v = acc.coeffs
        return XPoly(gf, [Poly(gf, v[i : i + S]) % P for i in range(0, len(v), S)])


def ddf(f, P: Poly):
    """Distinct-degree factorization degrees of a squarefree f in x over F_q[T]/(P).

    f is a list of Poly coefficients (ascending in x).  Returns a list of
    (degree d, number of irreducible factors of degree d) with d ascending.
    """
    if not P.is_monic() or not is_irreducible(P):
        raise DomainError("residue field modulus must be monic irreducible")
    gf = P.gf
    if P.degree == 1:
        # c mod (T - a) is c(a)
        a = gf.neg(P.coeffs[0])
        f = Poly(gf, [P._coerce(c).evaluate(a) for c in f])
        if f.degree < 1:
            raise DomainError("ddf requires a nonconstant polynomial")
        # gcd(f, 0) = f, so a zero derivative is refused too
        if poly_gcd(f, f.derivative()).degree > 0:
            raise DomainError("ddf input must be squarefree over the residue field")
        return list(distinct_degrees(f))
    f = XPoly(gf, [c % P for c in f])
    if f.deg() < 1:
        raise DomainError("ddf requires a nonconstant polynomial")
    if _gcd(f, f.derivative(), P).deg() > 0:
        raise DomainError("ddf input must be squarefree over the residue field")
    out = []
    x = XPoly(gf, [Poly.zero(gf), Poly.one(gf)])
    h = x
    d = 0
    rest = f
    power = _QPower(f, P)
    while rest.deg() >= 2 * (d + 1):
        d += 1
        # h = x^(Q^d) mod rest with Q = q^(deg P) = |F_q[T]/(P)|, by deg P
        # q-th powers; the factors of degree d are those of
        # gcd(rest, x^(Q^d) - x)
        for _ in range(P.degree):
            h = power(h, rest)
        g = _gcd(rest, h - x, P)
        if g.deg() > 0:
            out.append((d, g.deg() // d))
            rest, r = rest.divmod(g, P)
            if not r.is_zero():
                raise CarlitzError("ddf: a gcd factor does not divide the polynomial")
            h = h.divmod(rest, P)[1]
    if rest.deg() > 0:
        out.append((rest.deg(), 1))
    return out
