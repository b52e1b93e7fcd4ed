"""The completion of F_q(T) at a finite prime P, truncated to N digits.

Elements are residues mod P^N, stored as reduced polynomials.  Valuations are
counted in P-digits: v(x) = max k with P^k dividing the residue.  A zero
residue only certifies v >= N, so asking for its exact valuation raises
BelowPrecision.
"""

from __future__ import annotations

from .errors import BelowPrecision, DomainError, PrecisionError
from .poly import Poly, is_irreducible, poly_ext_gcd

__all__ = ["PadicCtx", "PadicElem", "hensel_lift"]


class PadicCtx:
    """Ambient ring F_q[T] / P^N for a monic irreducible P."""

    __slots__ = ("gf", "P", "N", "modulus")

    def __init__(self, P: Poly, N: int):
        if N < 1:
            raise DomainError("precision must be at least one digit")
        if P.degree < 1 or not P.is_monic() or not is_irreducible(P):
            raise DomainError(f"modulus base {P} is not monic irreducible")
        self.gf = P.gf
        self.P = P
        self.N = N
        self.modulus = P ** N

    def elem(self, f: Poly) -> "PadicElem":
        return PadicElem(self, f % self.modulus)

    def zero(self):
        return self.elem(Poly.zero(self.gf))

    def one(self):
        return self.elem(Poly.one(self.gf))

    def from_ratfn(self, num: Poly, den: Poly) -> "PadicElem":
        return self.elem(num) / self.elem(den)

    def lower(self, N: int) -> "PadicCtx":
        if N > self.N:
            raise PrecisionError("cannot raise precision of an existing context", needed=N)
        return PadicCtx(self.P, N)

    def residues(self):
        """All residues mod P, as polynomials of degree < deg P."""
        gf = self.gf
        d = self.P.degree
        q = gf.q
        for code in range(q ** d):
            coeffs = []
            c = code
            for _ in range(d):
                coeffs.append(c % q)
                c //= q
            yield Poly(gf, coeffs)

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

    # reps are reduced mod P^N, and so are their sums and negatives

    def __add__(self, other):
        self._check(other)
        return PadicElem(self.ctx, self.rep + other.rep)

    def __sub__(self, other):
        self._check(other)
        return PadicElem(self.ctx, self.rep - other.rep)

    def __neg__(self):
        return PadicElem(self.ctx, -self.rep)

    def scale(self, a: int) -> "PadicElem":
        return self.ctx.elem(self.rep.scale(a))

    def __mul__(self, other):
        self._check(other)
        return self.ctx.elem(self.rep * other.rep)

    def inverse(self) -> "PadicElem":
        if self.valuation_lower() > 0:
            raise DomainError(f"{self.rep} is not a unit (divisible by {self.ctx.P})")
        g, a, _ = poly_ext_gcd(self.rep, self.ctx.modulus)
        if g.degree != 0:
            raise DomainError(f"{self.rep} is not invertible mod {self.ctx.P}^{self.ctx.N}")
        a = a.scale(self.ctx.gf.inv(g.coeffs[0]))
        return self.ctx.elem(a)

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def frobenius(self) -> "PadicElem":
        """The q-th power: the q-th power of the rep is rep.frob_q()."""
        return self.ctx.elem(self.rep.frob_q())

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        # x^e = prod_i (x^(q^i))^(e_i) over the base-q digits e_i of e
        q = self.ctx.gf.q
        res = None  # stands for one, saving a multiplication by it
        base = self
        while e:
            e, d = divmod(e, q)
            sq = base
            while d:
                if d & 1:
                    res = sq if res is None else res * sq
                d >>= 1
                if d:
                    sq = sq * sq
            if e:
                base = base.frobenius()
        return self.ctx.one() if res is None else res

    def is_zero(self):
        return self.rep.is_zero()

    def valuation_lower(self) -> int:
        """Largest k <= N with P^k dividing the stored residue."""
        if self.rep.is_zero():
            return self.ctx.N
        v = 0
        r = self.rep
        while True:
            quo, rem = divmod(r, self.ctx.P)
            if not rem.is_zero():
                return v
            v += 1
            r = quo

    def valuation(self) -> int:
        if self.rep.is_zero():
            raise BelowPrecision(
                f"element is 0 mod {self.ctx.P}^{self.ctx.N}; valuation not determined"
            )
        return self.valuation_lower()

    def digits(self):
        """The base-P digits d_0, ..., d_{N-1} (polynomials of degree < deg P)."""
        out = []
        r = self.rep
        for _ in range(self.ctx.N):
            r, d = divmod(r, self.ctx.P)
            out.append(d)
        return out

    def reduce_to(self, ctx: PadicCtx) -> "PadicElem":
        if ctx.P != self.ctx.P or ctx.N > self.ctx.N:
            raise DomainError("can only reduce to a coarser context over the same prime")
        return ctx.elem(self.rep)

    def __eq__(self, other):
        return isinstance(other, PadicElem) and other.ctx == self.ctx and other.rep == self.rep

    def __hash__(self):
        return hash((self.ctx, self.rep))

    def __str__(self):
        return str(self.rep)

    def __repr__(self):
        return f"PadicElem({self.rep} mod ({self.ctx.P})^{self.ctx.N})"


def hensel_lift(f, a0: PadicElem, ctx: PadicCtx) -> PadicElem:
    """Lift a simple root of f mod P to a root mod P^N by Newton iteration.

    ``f`` is a polynomial in one variable with coefficients in F_q[T] (an
    XPoly or anything exposing ``evaluate``/``derivative``).  Requires
    v(f(a0)) >= 1 and v(f'(a0)) = 0 in the one-digit ring; precision doubles
    each step.
    """
    base = ctx.lower(1)
    r0 = a0.reduce_to(base) if a0.ctx.N > 1 else base.elem(a0.rep)
    if not f.evaluate_in(base, r0).is_zero():
        raise DomainError(f"{a0} is not a root of the polynomial mod {ctx.P}")
    if f.derivative().evaluate_in(base, r0).is_zero():
        raise DomainError(f"the root {a0} mod {ctx.P} is not simple; Newton step undefined")
    k = 1
    a = r0
    df = f.derivative()
    while k < ctx.N:
        k = min(2 * k, ctx.N)
        cur = ctx.lower(k) if k < ctx.N else ctx
        a = cur.elem(a.rep)
        fa = f.evaluate_in(cur, a)
        dfa = df.evaluate_in(cur, a)
        a = a - fa * dfa.inverse()
    return a
