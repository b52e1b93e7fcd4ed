"""The completion of F_q(T) at a finite prime P, truncated to N digits.

Elements are residues mod P^N, stored as reduced polynomials.  Valuations are
counted in P-digits: v(x) = max k with P^k dividing the residue.  A zero
residue only certifies v >= N, so asking for its exact valuation raises
BelowPrecision.
"""

from __future__ import annotations

from .errors import BelowPrecision, CarlitzError, DomainError
from .poly import Modulus, Poly, all_polys, inv_mod, is_irreducible, square_multiply

__all__ = ["PadicCtx", "PadicElem", "hensel_lift"]


class PadicCtx:
    """Ambient ring F_q[T] / P^N for a monic irreducible P.  Every element
    is reduced by one Modulus of P^N, by two products (see poly.Modulus)."""

    __slots__ = ("gf", "P", "N", "modulus", "_reducer")

    def __init__(self, P: Poly, N: int):
        if N < 1:
            raise DomainError("precision must be at least one digit")
        if P.degree < 1 or not P.is_monic() or not is_irreducible(P):
            raise DomainError(f"modulus base {P} is not monic irreducible")
        self.gf = P.gf
        self.P = P
        self.N = N
        self.modulus = P ** N
        self._reducer = Modulus(self.modulus)

    def elem(self, f: Poly) -> "PadicElem":
        return PadicElem(self, self._reducer.reduce(f))

    def zero(self):
        return self.elem(Poly.zero(self.gf))

    def one(self):
        return self.elem(Poly.one(self.gf))

    def residues(self):
        """All residues mod P, as polynomials of degree < deg P."""
        return all_polys(self.gf, self.P.degree)

    def __eq__(self, other):
        return isinstance(other, PadicCtx) and self.P == other.P and self.N == other.N

    def __hash__(self):
        return hash((self.P, self.N))

    def __repr__(self):
        return f"PadicCtx(P={self.P}, N={self.N})"


class PadicElem:
    __slots__ = ("ctx", "rep")

    def __init__(self, ctx: PadicCtx, rep: Poly):
        self.ctx = ctx
        self.rep = rep

    def _check(self, other):
        if not isinstance(other, PadicElem) or (other.ctx is not self.ctx and other.ctx != self.ctx):
            raise DomainError("operands live in different completions")

    # reps are reduced mod P^N, and so are their sums, negatives and F_q
    # multiples

    def __add__(self, other):
        self._check(other)
        return PadicElem(self.ctx, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return PadicElem(self.ctx, self.rep - other.rep)

    def __neg__(self):
        return PadicElem(self.ctx, -self.rep)

    def scale(self, a: int) -> "PadicElem":
        """a*x for a in F_q: a multiple of a reduced residue is reduced."""
        return PadicElem(self.ctx, self.rep.scale(a))

    def __mul__(self, other):
        self._check(other)
        return self.ctx.elem(self.rep * other.rep)

    def inverse(self) -> "PadicElem":
        """Inverse mod P, lifted by _newton_lift's step x <- x - x(a x - 1)."""
        ctx = self.ctx
        residue = self.rep % ctx.P
        if residue.is_zero():
            raise DomainError(f"{self.rep} is not a unit (divisible by {ctx.P})")
        one = ctx.one()
        return _newton_lift(ctx.elem(inv_mod(residue, ctx.P)), lambda x: x * (self * x - one), ctx.N)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def from_poly(self, f: Poly) -> "PadicElem":
        """Embed f in this element's ring F_q[T]/P^N."""
        return self.ctx.elem(f)

    def frobenius(self) -> "PadicElem":
        """The q-th power: h^q mod P^N by Modulus.frobenius."""
        return PadicElem(self.ctx, self.ctx._reducer.frobenius(self.rep))

    def rho_T(self, a: int = 0, w: "PadicElem" = None) -> "PadicElem":
        """The Carlitz step u^q + T*u, plus a*w for a in F_q: Modulus.rho_T
        of the residues.  w must live in the same completion, which is
        checked here, as the step does not go through +."""
        if a:
            self._check(w)
        return PadicElem(self.ctx, self.ctx._reducer.rho_T(self.rep, a, w.rep if a else None))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return square_multiply(self, e) if e else self.ctx.one()

    def is_zero(self):
        return self.rep.is_zero()

    def valuation_lower(self) -> int:
        """Largest k <= N with P^k dividing the stored residue: the index of
        its first nonzero base-P digit, or N for the zero residue."""
        if self.rep.is_zero():
            return self.ctx.N
        return next(k for k, d in enumerate(self._digits()) if not d.is_zero())

    def valuation(self) -> int:
        if self.rep.is_zero():
            raise BelowPrecision(
                f"element is 0 mod {self.ctx.P}^{self.ctx.N}; valuation not determined"
            )
        return self.valuation_lower()

    def digits(self):
        """The base-P digits d_0, ..., d_{N-1} (polynomials of degree < deg P)."""
        return list(self._digits())

    def _digits(self):
        # the base-P digits from d_0 on, one division by P each
        r = self.rep
        for _ in range(self.ctx.N):
            r, d = divmod(r, self.ctx.P)
            yield d

    def __eq__(self, other):
        return isinstance(other, PadicElem) and other.ctx == self.ctx and other.rep == self.rep

    def __hash__(self):
        return hash((self.ctx, self.rep))

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"PadicElem({self.rep} mod ({self.ctx.P})^{self.ctx.N})"


def _newton_lift(x, correction, N: int):
    """Newton's iteration x <- x - correction(x) at full precision, from a
    start right mod P: x at the first zero correction, or None if there is
    none after ceil(log2 N) = (N - 1).bit_length() steps.  A step at least
    doubles the number of correct P-digits (von zur Gathen-Gerhard, Modern
    Computer Algebra, 9.1), so x is right mod P^N after that many steps,
    and one more correction confirms it; a faster iteration stops sooner."""
    for _ in range((N - 1).bit_length() + 1):
        c = correction(x)
        if c.is_zero():
            return x
        x = x - c
    return None


def hensel_lift(f, a0: PadicElem, ctx: PadicCtx) -> PadicElem:
    """Lift a simple root of f mod P to a root mod P^N by Newton iteration.

    ``f`` is anything exposing ``evaluate(a)`` in a's ring and a
    ``derivative()`` that does too, such as an XPoly over F_q[T].  Requires
    f(a0) = 0 and f'(a0) != 0 mod P.  Each step works at full precision and
    doubles the number of correct digits, so it stops after at most
    ceil(log2 N) steps, when f(a) = 0 mod P^N.  A root still missing after
    ceil(log2 N) + 1 steps raises CarlitzError.

    It is torsion_padic's independent per-class oracle in the tests, lifting
    each residue class on its own with f' evaluated at every step; that is
    why it keeps this loop of its own rather than _newton_lift.
    """
    a = ctx.elem(a0.rep)
    df = f.derivative()
    fa = f.evaluate(a)
    if not (fa.rep % ctx.P).is_zero():
        raise DomainError(f"{a0} is not a root of the polynomial mod {ctx.P}")
    if (df.evaluate(a).rep % ctx.P).is_zero():
        raise DomainError(f"the root {a0} mod {ctx.P} is not simple; Newton step undefined")
    for _ in range((ctx.N - 1).bit_length() + 1):
        if fa.is_zero():
            return a
        a = a - fa / df.evaluate(a)
        fa = f.evaluate(a)
    if not fa.is_zero():
        raise CarlitzError(f"Newton from {a0} did not reach a root mod {ctx.P}^{ctx.N}")
    return a
