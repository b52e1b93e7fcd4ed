"""Distinct-degree factorization over the residue field F_q[T]/(P).

At a prime of degree 1, P = T - a, the residue field is F_q itself: each
coefficient of f is reduced mod P by evaluating it at a, and the loop runs on
the packed ``Poly`` kernel with ``Modulus`` reducing mod the unsplit part of f
and one gcd per block of degrees.
At a prime of degree >= 2, polynomials in x are ``XPoly`` values whose
coefficients are kept reduced mod P, and every product and division runs on
the ``XPoly`` kernel with modulus P.
"""

from __future__ import annotations

import math

from .errors import CarlitzError, DomainError
from .operator import XPoly
from .poly import Modulus, Poly, is_irreducible, poly_gcd, square_multiply


def _gcd(a: XPoly, b: XPoly, P: Poly) -> XPoly:
    """A gcd over F_q[T]/(P), up to a unit."""
    while not b.is_zero():
        a, b = b, a.divmod(b, P)[1]
    return a


def _ddf_fq(f: Poly):
    """ddf of f over F_q, f a Poly whose variable stands for x."""
    gf = f.gf
    if f.degree < 1:
        raise DomainError("ddf requires a nonconstant polynomial")
    fp = Poly(gf, [gf.mul(i % gf.p, c) for i, c in enumerate(f.coeffs[1:], start=1)])
    if fp.is_zero() or poly_gcd(f, fp).degree > 0:
        raise DomainError("ddf input must be squarefree over the residue field")
    out = []
    x = Poly.T(gf)
    # one gcd per block of about sqrt(deg f) degrees (von zur Gathen-Shoup,
    # Comput. Complexity 2, 1992): gcd(rest, prod_e (x^(q^e) - x)) holds the
    # factors of every degree e of the block, and only a nontrivial one is
    # split degree by degree
    block = math.isqrt(f.degree - 1) + 1
    h, d, rest, mod = x, 0, f, Modulus(f)
    while rest.degree >= 2 * (d + 1):
        # hs[i] = x^(q^e) mod rest for e = d + 1 + i: the residue field has
        # q elements
        hs, prod = [], Poly.one(gf)
        while len(hs) < block and rest.degree >= 2 * (d + 1):
            d += 1
            h = mod.frobenius(h)
            hs.append(h)
            prod = mod.reduce(prod * (h - x))
        g = poly_gcd(rest, prod)
        if g.degree == 0:
            continue
        for e, he in enumerate(hs, start=d + 1 - len(hs)):
            ge = poly_gcd(g, he - x)
            if ge.degree > 0:
                out.append((e, ge.degree // e))
                g = g // ge
                rest, r = divmod(rest, ge)
                if not r.is_zero():
                    raise CarlitzError("ddf: a gcd factor does not divide the polynomial")
        h, mod = h % rest, Modulus(rest)
    if rest.degree > 0:
        out.append((rest.degree, 1))
    return out


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
        return _ddf_fq(Poly(gf, [P._coerce(c).evaluate(a) for c in f]))
    f = XPoly(gf, [c % P for c in f])
    if f.deg() < 1:
        raise DomainError("ddf requires a nonconstant polynomial")
    fp = f.derivative()
    if fp.is_zero() or _gcd(f, fp, P).deg() > 0:
        raise DomainError("ddf input must be squarefree over the residue field")
    Q = gf.q**P.degree
    out = []
    x = XPoly(gf, [Poly.zero(gf), Poly.one(gf)])
    h = x
    d = 0
    rest = f
    while rest.deg() >= 2 * (d + 1):
        d += 1
        # h = x^(Q^d) mod rest with Q = |F_q[T]/(P)|; the factors of degree
        # d are those of gcd(rest, x^(Q^d) - x); h is reduced mod rest
        h = square_multiply(h, Q, lambda a, b: (a * b).divmod(rest, P)[1])
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
