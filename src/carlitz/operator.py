"""Additive polynomials of the Carlitz module and the polynomials built from them.

The T-action is rho_T(u) = u^q + T*u; it extends F_q-linearly and
multiplicatively to rho_M for every M in F_q[T].  carlitz_act evaluates
rho_M(u) by Horner's rule in rho_T in every ring.  rho_M(x) = sum c_i x^(q^i),
c_0 = M, d = deg M, is an additive polynomial, held by AdditivePoly as its
d + 1 coefficients; in characteristic p, rho_T keeps a polynomial additive,
so rho_M(x) is carlitz_act(M, x) in that ring.  carlitz_operator builds it
for the slopes, the division polynomials and the CLI.
"""

from __future__ import annotations

import itertools

from .errors import CarlitzError, DomainError
from .poly import MAX_FROBENIUS_DEGREE, Poly, format_term, inv_mod, is_irreducible

__all__ = [
    "XPoly",
    "AdditivePoly",
    "carlitz_operator",
    "carlitz_act",
    "cyclotomic_poly",
    "brackets_D",
    "D_sequence",
]


def _format_x(terms) -> str:
    """The terms c*x^e, in the order given, joined by ' + '."""
    parts = []
    for e, c in terms:
        if c.is_zero():
            continue
        # a coefficient of more than one T-term is put in parentheses
        multi = sum(1 for t in c.coeffs if t) > 1
        parts.append(format_term(f"({c})" if multi else str(c), "x", e))
    return " + ".join(parts) or "0"


class XPoly:
    """A polynomial in one variable x with coefficients in F_q[T].

    Dense ascending representation; coefficient arithmetic is exact.
    """

    __slots__ = ("gf", "coeffs")

    def __init__(self, gf, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.gf = gf
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls, gf):
        return cls(gf, ())

    @classmethod
    def from_terms(cls, gf, terms: dict):
        if not terms:
            return cls.zero(gf)
        n = max(terms)
        vec = [Poly.zero(gf)] * (n + 1)
        for e, c in terms.items():
            vec[e] = c
        return cls(gf, vec)

    def deg(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def coeff(self, e: int) -> Poly:
        return self.coeffs[e] if 0 <= e < len(self.coeffs) else Poly.zero(self.gf)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return XPoly(
            self.gf,
            [self.coeff(i) + other.coeff(i) for i in range(n)],
        )

    def __neg__(self):
        return XPoly(self.gf, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """One packed F_q[T] product by bivariate Kronecker substitution
        x^i T^j -> T^(i S + j) (von zur Gathen-Gerhard, Modern Computer
        Algebra, 8.4): S exceeds the T-degree of every product coefficient,
        so the slices of length S of the product are its x-coefficients."""
        if self.is_zero() or other.is_zero():
            return XPoly.zero(self.gf)
        gf = self.gf
        S = max(len(c.coeffs) for c in self.coeffs) + max(len(c.coeffs) for c in other.coeffs) - 1
        a = self._kronecker(S)
        prod = (a * (a if other is self else other._kronecker(S))).coeffs
        n = len(self.coeffs) + len(other.coeffs) - 1
        return XPoly(gf, [Poly(gf, prod[i * S : (i + 1) * S]) for i in range(n)])

    def _kronecker(self, S: int) -> Poly:
        flat = []
        for c in self.coeffs:
            flat.extend(c.coeffs)
            flat.extend([0] * (S - len(c.coeffs)))
        return Poly(self.gf, flat)

    def __divmod__(self, other: "XPoly"):
        return self.divmod(other)

    def divmod(self, other: "XPoly", modulus: Poly = None):
        """Quotient and remainder in x.  Exact, the divisor's leading
        coefficient must be a unit constant.  With a modulus P the
        coefficients live in F_q[T]/P: the leading coefficient must be a unit
        there, and both results come back reduced mod P."""
        if other.is_zero():
            raise DomainError("division by the zero polynomial")
        gf = self.gf
        lead = other.coeffs[-1]
        if modulus is None and lead.degree != 0:
            raise DomainError("divisor leading coefficient must be a nonzero constant")

        def reduce(c):
            return c if modulus is None or c.degree < modulus.degree else c % modulus

        db = other.deg()
        dq = self.deg() - db
        if dq < 0:
            # no quotient digit, so no inverse of the leading coefficient
            return XPoly(gf, []), XPoly(gf, [reduce(c) for c in self.coeffs])
        linv = Poly.const(gf, gf.inv(lead.lc)) if modulus is None else inv_mod(lead, modulus)
        # With a modulus, coefficients are reduced only where a quotient digit
        # is read and at the end: for a reduced divisor every product c * b
        # has T-degree at most 2 deg P - 2, and sums over F_q do not raise it.
        rem = list(self.coeffs)
        quo = [Poly.zero(gf)] * (dq + 1)
        low = [(j, b) for j, b in enumerate(other.coeffs[:-1]) if not b.is_zero()]
        for k in range(dq, -1, -1):
            c = quo[k] = reduce(rem[db + k] * linv)
            if not c.is_zero():
                for j, b in low:
                    rem[j + k] = rem[j + k] - c * b
        return XPoly(gf, quo), XPoly(gf, [reduce(c) for c in rem[:db]])

    def derivative(self):
        gf = self.gf
        p = gf.p
        return XPoly(
            gf,
            [c.scale(i % p) for i, c in enumerate(self.coeffs[1:], start=1)],
        )

    def evaluate(self, a):
        """Value at a, in a's ring (Poly, PadicElem or Series), by Horner."""
        acc = a.from_poly(Poly.zero(self.gf))
        for c in reversed(self.coeffs):
            acc = acc * a + a.from_poly(c)
        return acc

    def __eq__(self, other):
        return isinstance(other, XPoly) and self.gf == other.gf and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.gf, self.coeffs))

    def __str__(self):
        return _format_x((e, self.coeffs[e]) for e in range(self.deg(), -1, -1))

    def __repr__(self):
        return f"XPoly({self})"


class AdditivePoly:
    """An additive x-polynomial sum c_i x^(q^i) over F_q[T], held by its
    coefficients (c_0, ..., c_d): d + 1 of them for x-degree q^d.

    The ring carlitz_operator runs carlitz_act in: rho_T, scale and + keep a
    polynomial additive, and 0 is the one additive constant.
    """

    __slots__ = ("gf", "coeffs")

    def __init__(self, gf, coeffs):
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n > 1 and coeffs[n - 1].is_zero():
            n -= 1
        self.gf = gf
        self.coeffs = coeffs[:n]

    @staticmethod
    def from_poly(f: Poly):
        """f as a constant, which is additive only for f = 0."""
        if not f.is_zero():
            raise DomainError(f"the constant {f} is not an additive polynomial")
        return AdditivePoly(f.gf, [f])

    def scale(self, a: int):
        return AdditivePoly(self.gf, [c.scale(a) for c in self.coeffs])

    def rho_T(self, a: int = 0, w=None):
        """f^q + T*f, plus a*w for a in F_q.  In characteristic p,
        (c_j x^(q^j))^q = c_j^q x^(q^(j+1)), so the coefficients become
        c'_j = c_(j-1)^q + T*c_j."""
        c = self.coeffs
        up = [f.frobenius() for f in c]
        v = AdditivePoly(self.gf, [c[0].shift(1)] + [b + f.shift(1) for b, f in zip(up, c[1:])] + up[-1:])
        return v + w.scale(a) if a else v

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return AdditivePoly(self.gf, tuple(map(Poly.__add__, a, b)) + a[len(b) :])

    def __eq__(self, other):
        return isinstance(other, AdditivePoly) and self.gf == other.gf and self.coeffs == other.coeffs

    def __str__(self):
        q = self.gf.q
        return _format_x((q**i, self.coeffs[i]) for i in range(len(self.coeffs) - 1, -1, -1))

    def __repr__(self):
        return f"AdditivePoly({self})"


def carlitz_operator(M: Poly) -> AdditivePoly:
    """rho_M(x) = sum c_i x^(q^i), c_i = .coeffs[i] of T-degree
    (deg M - i)*q^i."""
    return carlitz_act(M, AdditivePoly(M.gf, [Poly.one(M.gf)]))


def carlitz_act(M: Poly, u):
    """rho_M(u) in whichever ring u lives in.

    rho_M = sum a_k rho_T^k, so Horner's rule in rho_T gives
    v <- rho_T(v) + a_k u = v^q + T v + a_k u from k = deg M down to 0.
    Each ring's ``rho_T(a, u)`` takes one whole step without a ring product
    (in F_q[T]/P^N, one Barrett pass); in AdditivePoly, from u = x, the loop
    builds rho_M(x) itself.
    """
    v = u.from_poly(Poly.zero(M.gf))
    for a in reversed(M.coeffs):
        v = v.rho_T(a, u)
    return v


def D_sequence(gf):
    """D_0 = 1, D_1, D_2, ...: D_n = [n] * D_(n-1)^q with [n] = T^(q^n) - T,
    the product of the monic polynomials of degree n.  D_n has T-degree
    n q^n, so each is built only when it is asked for."""
    one, T = Poly.one(gf), Poly.T(gf)
    D = one
    for n in itertools.count(1):
        yield D
        D = (one.shift(gf.q**n) - T) * D.frobenius()


def brackets_D(gf, n: int):
    """The pair ([n], D_n), with [0] = 0."""
    if n < 0:
        raise DomainError("index must be nonnegative")
    D = next(itertools.islice(D_sequence(gf), n, None))
    return (Poly.one(gf).shift(gf.q**n) - Poly.T(gf) if n else Poly.zero(gf)), D


def cyclotomic_poly(P: Poly, n: int = 1) -> XPoly:
    """The division polynomial rho_{P^n}(x) / rho_{P^(n-1)}(x), exact in x.

    The division runs on the dense x-polynomials: rho_{P^n}(x) has about
    q^(dn) x-coefficients, d = deg P, each of T-degree up to about
    dn*q^(d(n-1)); above 2^24 in all (poly.MAX_FROBENIUS_DEGREE) it is
    refused before either is built.
    """
    if n < 1:
        raise DomainError("exponent must be positive")
    if P.degree < 1 or not is_irreducible(P):
        raise DomainError(f"{P} is not irreducible")
    q, d = P.gf.q, P.degree
    # q^e >= 2^e, so an exponent past the cap's bit length is refused unpowered
    e = d * (2 * n - 1)
    if e >= MAX_FROBENIUS_DEGREE.bit_length() or d * n * q**e > MAX_FROBENIUS_DEGREE:
        raise DomainError(
            f"rho_(P^{n})(x) for P = {P} is above the supported size "
            f"2^{MAX_FROBENIUS_DEGREE.bit_length() - 1} ({q}^{d * n} x-coefficients "
            f"of T-degree up to {d * n}*{q}^{d * (n - 1)})"
        )

    def dense(M):
        return XPoly.from_terms(P.gf, {q**i: c for i, c in enumerate(carlitz_operator(M).coeffs)})

    quo, rem = divmod(dense(P**n), dense(P ** (n - 1)))
    if not rem.is_zero():
        raise CarlitzError("inexact division while forming a cyclotomic polynomial")
    # deg = |(F_q[T]/P^n)^*| = q^(d(n-1)) (q^d - 1), P irreducible of degree d
    if quo.deg() != q ** (d * (n - 1)) * (q**d - 1):
        raise CarlitzError(f"cyclotomic polynomial has degree {quo.deg()}, not the order of (F_q[T]/P^{n})^*")
    return quo
