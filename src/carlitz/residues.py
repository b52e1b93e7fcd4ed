"""Distinct-degree factorization over the residue field F_q[T]/(P).

With n = deg P the residue field is F_Q, Q = q^n, and its automorphisms over
F_q are the powers of sigma, the q-th power.  The norm N(f), the product of
sigma^i(f) over i < n, lies in F_q[x], and an irreducible factor of f of
degree e / gcd(e, n) has norm g^(n / gcd(e, n)) for one irreducible g over
F_q of degree e (Lidl-Niederreiter, Finite Fields, Thm. 3.46; the norm of
Trager's factoring, SYMSAC 1976).  So the degrees of f's factors are read
off ``poly._squarefree_parts`` and ``poly.distinct_degrees`` on N(f), the
loop that also tests irreducibility.  At n = 1, N(f) is f itself.
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import DomainError
from .operator import XPoly
from .poly import Modulus, Poly, _squarefree_parts, distinct_degrees, is_irreducible


def _gcd(a: XPoly, b: XPoly, P: Poly) -> XPoly:
    """A gcd over F_q[T]/(P), up to a unit."""
    while not b.is_zero():
        a, b = b, a.divmod(b, P)[1]
    return a


def ddf(f, P: Poly):
    """Distinct-degree factorization degrees of a squarefree f in x over F_q[T]/(P).

    f is a list of Poly coefficients (ascending in x).  Returns a list of
    (degree d, number of irreducible factors of degree d) with d ascending.
    """
    if not P.is_monic() or not is_irreducible(P):
        raise DomainError("residue field modulus must be monic irreducible")
    gf, n, mod = P.gf, P.degree, Modulus(P)
    f = XPoly(gf, [c % P for c in f])
    if f.deg() < 1:
        raise DomainError("ddf requires a nonconstant polynomial")
    # N(f) by n - 1 products with the conjugates sigma^i(f)
    norm = conj = f
    for _ in range(n - 1):
        conj = XPoly(gf, [mod.frobenius(c) for c in conj.coeffs])
        norm = XPoly(gf, [mod.reduce(c) for c in (norm * conj).coeffs])
    parts = list(_squarefree_parts(Poly(gf, [c.coeffs[0] if c.coeffs else 0 for c in norm.coeffs]).monic()))
    # a repeated factor of f repeats in N(f), but so does each factor of an f
    # over F_q, whose norm is f^n: a repeated part is decided over F_Q
    if any(i > 1 for _, i in parts) and (n == 1 or _gcd(f, f.derivative(), P).deg() > 0):
        raise DomainError("ddf input must be squarefree over the residue field")
    degrees = Counter()
    for g, i in parts:
        for e, c in distinct_degrees(g):
            k = math.gcd(e, n)
            degrees[e // k] += c * i * k // n
    return sorted(degrees.items())
