"""Residue fields F_q[T]/(P) and distinct-degree factorization over them."""

from __future__ import annotations

from .errors import CarlitzError, DomainError
from .poly import Poly, inv_mod, is_irreducible, poly_gcd


class ResidueField:
    """The field F_q[T]/(P) for P monic irreducible; elements are reduced Polys."""

    def __init__(self, P: Poly):
        if not P.is_monic() or not is_irreducible(P):
            raise DomainError("residue field modulus must be monic irreducible")
        self.P = P
        self.gf = P.gf
        self.order = self.gf.q**P.degree

    def reduce(self, a: Poly) -> Poly:
        return a % self.P

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return (a * b) % self.P

    def inv(self, a):
        return inv_mod(a, self.P)

    def zero(self):
        return Poly.zero(self.gf)

    def one(self):
        return Poly.one(self.gf)


# -- polynomials in x over a residue field, as lists of reduced Polys --


def _rf_trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _rf_mul(a, b, F):
    if not a or not b:
        return []
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[i + j] = out[i + j] + F.mul(x, y)
    return _rf_trim([F.reduce(c) for c in out])


def _rf_divmod(a, b, F):
    if not b:
        raise DomainError("division by zero over residue field")
    rem = [F.reduce(c) for c in a]
    db = len(b) - 1
    inv_lc = F.inv(b[-1])
    quo = [F.zero()] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c.is_zero():
            f = F.mul(c, inv_lc)
            quo[i - db] = f
            for j, y in enumerate(b):
                rem[i - db + j] = F.reduce(rem[i - db + j] - F.mul(f, y))
    return _rf_trim(quo), _rf_trim(rem)


def _rf_gcd(a, b, F):
    a, b = _rf_trim(list(a)), _rf_trim(list(b))
    while b:
        _, r = _rf_divmod(a, b, F)
        a, b = b, r
    if a:
        inv_lc = F.inv(a[-1])
        a = [F.mul(c, inv_lc) for c in a]
    return a


def _rf_powmod_x(base, e, mod, F):
    res = [F.one()]
    base = _rf_divmod(base, mod, F)[1]
    while e:
        if e & 1:
            res = _rf_divmod(_rf_mul(res, base, F), mod, F)[1]
        base = _rf_divmod(_rf_mul(base, base, F), mod, F)[1]
        e >>= 1
    return res


def _rf_derivative(f, F):
    p = F.gf.p
    out = []
    for i in range(1, len(f)):
        out.append(F.reduce(f[i].scale(i % p)))
    return _rf_trim(out)


def ddf(f, P: Poly):
    """Distinct-degree factorization degrees of a squarefree f in x over F_q[T]/(P).

    f is a list of Poly coefficients (ascending in x).  Returns a list of
    (degree d, number of irreducible factors of degree d) with d ascending.
    """
    F = ResidueField(P)
    f = _rf_trim([F.reduce(c) for c in f])
    if len(f) < 2:
        raise DomainError("ddf requires a nonconstant polynomial")
    fp = _rf_derivative(f, F)
    if not fp or len(_rf_gcd(f, fp, F)) > 1:
        raise DomainError("ddf input must be squarefree over the residue field")
    out = []
    x = [F.zero(), F.one()]
    h = x
    d = 0
    rest = f
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = _rf_powmod_x(h, F.order, rest, F)
        diff = _rf_trim([a - b for a, b in zip_pad(h, x, F)])
        g = _rf_gcd(rest, diff, F) if diff else list(rest)
        if len(g) > 1:
            out.append((d, (len(g) - 1) // d))
            rest, r = _rf_divmod(rest, g, F)
            if r:
                raise CarlitzError("ddf: a gcd factor does not divide the polynomial")
            h = _rf_divmod(h, rest, F)[1]
    if len(rest) > 1:
        out.append((len(rest) - 1, 1))
    return out


def zip_pad(a, b, F):
    n = max(len(a), len(b))
    z = F.zero()
    for i in range(n):
        yield (a[i] if i < len(a) else z), (b[i] if i < len(b) else z)
