"""Truncated Laurent series for the completions at infinity.

Two models share one representation:

* InfLaurent -- the completion of F_q(T) at the infinite place, written in the
  uniformizer 1/T.  Valuation convention v = -deg, so v(T) = -1.
* VqElem -- the degree-(q-1) extension generated by T-torsion, written in a
  uniformizer s defined by T = -s^{-(q-1)}; v(s) = 1, v(T) = -(q-1).

Exponents index powers of the uniformizer.  ``prec`` is an exclusive upper
exponent: digits at exponents >= prec are unknown.  ``prec is None`` marks an
exact element (all unlisted digits are truly zero), e.g. an embedded
polynomial.  Precision propagates pessimistically through arithmetic; no
operation ever reports digits it cannot certify.
"""

from __future__ import annotations

import contextlib
import math

from .errors import BelowPrecision, DomainError, PrecisionError
from .gf import GF
from .poly import Poly, _dense, format_term, parse_int, parse_term, reciprocal, split_terms, spread, square_multiply

INF = math.inf


def _min_prec(*ps):
    vals = [p for p in ps if p is not None]
    if not vals:
        return None
    m = min(vals)
    return None if m == INF else m


class Series:
    __slots__ = ("gf", "v", "coeffs", "prec")

    #: subclasses set the text form's variable with the sign that turns an
    #: exponent of the uniformizer into an exponent of that variable
    TEXT = ("?", 1)

    def __init__(self, gf: GF, v: int, coeffs, prec=None):
        coeffs = tuple(coeffs)
        if prec is not None:
            prec = int(prec)
            coeffs = coeffs[: prec - v] if prec > v else ()
        start, end = 0, len(coeffs)
        while start < end and coeffs[start] == 0:
            start += 1
        while end > start and coeffs[end - 1] == 0:
            end -= 1
        self.gf = gf
        self.coeffs = coeffs[start:end]
        self.v = v + start if end > start else 0
        self.prec = prec

    # -- constructors --

    @classmethod
    def zero(cls, gf, prec=None):
        return cls(gf, 0, (), prec)

    @classmethod
    def const(cls, gf, c, prec=None):
        return cls(gf, 0, (c,), prec)

    @classmethod
    def one(cls, gf, prec=None):
        return cls.const(gf, 1, prec)

    @classmethod
    def monomial(cls, gf, c, k, prec=None):
        return cls(gf, k, (c,), prec)

    @classmethod
    def from_terms(cls, gf, terms: dict, prec=None):
        lo = min(terms, default=0)
        return cls(gf, lo, _dense(terms, lo=lo), prec)

    # -- structure --

    def is_zero(self):
        """True when no digit is known nonzero (exact or truncated zero)."""
        return not self.coeffs

    def digit(self, k: int) -> int:
        if self.prec is not None and k >= self.prec:
            raise BelowPrecision(f"digit at {self._power(k)} is beyond O({self._power(self.prec)})")
        i = k - self.v
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.v + i, c

    def valuation(self):
        """Exact valuation; math.inf for exact zero; BelowPrecision otherwise."""
        v = self._valuation_or(None)
        if v is None:
            raise BelowPrecision(
                f"element is indistinguishable from zero below O({self._power(self.prec)})"
            )
        return v

    def _valuation_or(self, truncated):
        # the valuation, INF for an exact zero, and truncated for a truncated zero
        if self.coeffs:
            return self.v
        return INF if self.prec is None else truncated

    def _veff(self):
        # lower bound on the valuation, defined for every element
        return self._valuation_or(self.prec)

    # -- arithmetic --

    def _check(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if other.gf != self.gf:
            raise DomainError("mixed coefficient fields")

    def _new(self, v, coeffs, prec):
        return type(self)(self.gf, v, coeffs, prec)

    def _combine(self, other, vec_op):
        # align the digits at the lower valuation; a zero operand adds no span
        self._check(other)
        a, b = self.coeffs, other.coeffs
        va = self.v if a else other.v
        vb = other.v if b else va
        lo = min(va, vb)
        vec = vec_op((0,) * (va - lo) + a, (0,) * (vb - lo) + b)
        return self._new(lo, vec, _min_prec(self.prec, other.prec))

    def __add__(self, other):
        return self._combine(other, self.gf.add_vec)

    def __sub__(self, other):
        return self._combine(other, self.gf.sub_vec)

    def __neg__(self):
        return self._new(self.v, self.gf.neg_vec(self.coeffs), self.prec)

    def __mul__(self, other):
        self._check(other)
        gf = self.gf
        if (self.is_zero() and self.prec is None) or (other.is_zero() and other.prec is None):
            return self.zero(gf)
        pa = self.prec if self.prec is not None else INF
        pb = other.prec if other.prec is not None else INF
        prec = min(self._veff() + pb, other._veff() + pa)
        prec = None if prec == INF else prec
        if self.is_zero() or other.is_zero():
            return self.zero(gf, prec)
        # digits past prec - v only reach exponents >= prec (and prec > v)
        v = self.v + other.v
        a, b = self.coeffs, other.coeffs
        if prec is not None:
            a, b = a[: prec - v], b[: prec - v]
        x = Poly(gf, a)
        y = x if other is self else Poly(gf, b)
        return self._new(v, (x * y).coeffs, prec)

    def scale(self, c: int):
        return self._new(self.v, self.gf.scale_vec(c, self.coeffs), self.prec)

    def shifted(self, k: int):
        """Multiply by the k-th power of the uniformizer: the digits and
        precision of the product by that exact monomial, with no digit
        moved."""
        return self._new(self.v + k, self.coeffs, None if self.prec is None else self.prec + k)

    def frobenius(self):
        """The q-th power: exponents scale by q, F_q digits are fixed."""
        q = self.gf.q
        prec = None if self.prec is None else q * self.prec
        return self._new(q * self.v, spread(self.coeffs, q), prec)

    def inverse(self, prec=None):
        """Multiplicative inverse: with c the first n digits, 1/c mod s^n is
        poly.reciprocal(rev(c), n) read backwards.

        ``prec`` bounds the exponents of the result; it is required when the
        input is exact with more than one term (the expansion is infinite).
        """
        if self.is_zero():
            raise DomainError("cannot invert (a truncation of) zero")
        gf = self.gf
        v = self.v
        own = None if self.prec is None else self.prec - 2 * v
        target = _min_prec(own, prec)
        if target is None:
            if len(self.coeffs) == 1:
                return self.monomial(gf, gf.inv(self.coeffs[0]), -v)
            raise PrecisionError(
                "inverse of an exact multi-term series needs an explicit precision"
            )
        # y with x*y = 1; digits of y at exponents -v .. target-1
        n = int(target) + v  # number of digits to solve
        if n <= 0:
            raise DomainError("requested inverse precision is vacuous")
        return self._new(-v, reciprocal(Poly(gf, self.coeffs[:n][::-1]), n)[::-1], target)

    def __truediv__(self, other):
        self._check(other)
        if len(other.coeffs) == 1 and other.prec is None:
            return self * other.inverse()
        pa = self.prec if self.prec is not None else INF
        pb = other.prec if other.prec is not None else INF
        if pa == INF and pb == INF:
            raise DomainError("exact series division needs an explicit inverse precision")
        if other.is_zero():
            raise DomainError("cannot divide by (a truncation of) zero")
        v1, v2 = self._veff(), other.v
        out_prec = min(pa - v2, pb + v1 - 2 * v2)
        return self * other.inverse(prec=int(out_prec - v1))

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative series power; use inverse() explicitly")
        # x^a * x^b has valuation (a+b)v and relative precision that of x,
        # so the order of the products changes no digit
        return square_multiply(self, e) if e else self.one(self.gf)

    def truncate(self, prec: int):
        return self._new(self.v, self.coeffs, _min_prec(self.prec, prec))

    # -- comparison --

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.gf == other.gf
            and self.v == other.v
            and self.coeffs == other.coeffs
            and self.prec == other.prec
        )

    def __hash__(self):
        return hash((type(self).__name__, self.gf, self.v, self.coeffs, self.prec))

    def agrees(self, other, upto=None):
        """Digitwise equality on every exponent both sides can certify."""
        self._check(other)
        bound = _min_prec(self.prec, other.prec, upto)
        if bound is None:
            return self.coeffs == other.coeffs and self.v == other.v
        for k in range(min(self._veff(), other._veff(), bound), int(bound)):
            if self.digit(k) != other.digit(k):
                return False
        return True

    # -- text form --

    def _power(self, k: int) -> str:
        """The uniformizer's k-th power in the text form, as in a tail marker."""
        var, sign = self.TEXT
        return f"{var}^{sign * k}"

    def __str__(self):
        var, sign = self.TEXT
        fmt = self.gf.fmt_elem
        parts = [format_term(fmt(c), var, sign * k) for k, c in self.terms()]
        if self.prec is not None:
            parts.append(f"O({self._power(self.prec)})")
        return " + ".join(parts) or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self})"


def parse_series(text: str, gf: GF, cls):
    """Parse a series of class ``cls``: terms c*VAR^k joined by +, with an
    optional O(VAR^prec) tail marker, VAR and the exponents as in
    ``cls.TEXT`` (README, "One text grammar")."""
    s = "".join(text.split())
    if not s:
        raise DomainError("empty series string")
    var, sign = cls.TEXT
    terms = {}
    prec = None
    for part in split_terms(s):
        if not part:
            raise DomainError(f"syntax error in series {text!r}")
        if part.startswith("O(") and part.endswith(")"):
            inner, k = part[2:-1], None
            if inner == var:
                k = 1
            elif inner.startswith(var + "^"):
                with contextlib.suppress(ValueError):
                    k = parse_int(inner[len(var) + 1 :], signed=True)
            if k is None:
                raise DomainError(f"bad tail marker {part!r}")
            prec = sign * k if prec is None else min(prec, sign * k)
            continue
        c, k = parse_term(part, var, gf.parse_elem)
        terms[sign * k] = gf.add(terms.get(sign * k, 0), c)
    return cls.from_terms(gf, terms, prec)


class InfLaurent(Series):
    """Laurent series at the infinite place of F_q(T), in the uniformizer 1/T."""

    TEXT = ("T", -1)  # the text form writes (1/T)^k as T^-k

    @classmethod
    def from_poly(cls, f: Poly):
        # T^i = u^-i: the digits are f's coefficients, highest degree first
        return cls(f.gf, 1 - len(f.coeffs), f.coeffs[::-1])

    @classmethod
    def from_ratfn(cls, x, prec):
        """Expansion of a rational function to the given (exclusive) precision,
        or through its leading digit when that lies at or beyond it."""
        if isinstance(x, Poly):
            return cls.from_poly(x)
        if x.is_infinity():
            raise DomainError("the point at infinity has no Laurent expansion")
        num = cls.from_poly(x.num)
        den = cls.from_poly(x.den)
        if num.is_zero():
            return cls.zero(den.gf)
        if len(den.coeffs) == 1:
            return num * den.inverse()
        return num * den.inverse(prec=max(prec - num.v, 1 - den.v))

    def rho_T(self, a: int = 0, w=None):
        """The Carlitz step u^q + T*u, plus a*w for a in F_q; T = u^-1 is a
        shift."""
        v = self.frobenius() + self.shifted(-1)
        return v + w.scale(a) if a else v


class VqElem(Series):
    """Laurent series in the uniformizer s of V_q, with T = -s^{-(q-1)}."""

    TEXT = ("s", 1)

    @classmethod
    def from_inf(cls, x: InfLaurent) -> "VqElem":
        """Embed via 1/T = -s^(q-1); valuations scale by the ramification q-1."""
        gf = x.gf
        e = gf.q - 1
        # u^k = (-1)^k s^((q-1)k): digits at odd k change sign
        digits = list(x.coeffs)
        digits[(x.v + 1) % 2 :: 2] = gf.neg_vec(digits[(x.v + 1) % 2 :: 2])
        out = [0] * (e * len(digits) - e + 1) if digits else []
        out[::e] = digits
        return cls(gf, e * x.v, out, None if x.prec is None else e * x.prec)

    @classmethod
    def from_poly(cls, f: Poly) -> "VqElem":
        return cls.from_inf(InfLaurent.from_poly(f))

    def rho_T(self, a: int = 0, w=None):
        """The Carlitz step u^q + T*u, plus a*w for a in F_q; T = -s^(1-q) is
        a shift and a sign."""
        v = self.frobenius() - self.shifted(1 - self.gf.q)
        return v + w.scale(a) if a else v

    def to_inf(self) -> InfLaurent:
        """Inverse of the embedding; requires support on exponents = 0 mod (q-1)."""
        gf = self.gf
        e = gf.q - 1
        k = next((k for k, c in self.terms() if k % e), None)
        if k is not None:
            raise DomainError(f"digit at s-exponent {k} is outside the base-field lattice")
        # every nonzero digit, the first one too, sits at a multiple of q - 1
        digits, j = list(self.coeffs[::e]), self.v // e
        digits[(j + 1) % 2 :: 2] = gf.neg_vec(digits[(j + 1) % 2 :: 2])
        return InfLaurent(gf, j, digits, None if self.prec is None else -(-self.prec // e))
