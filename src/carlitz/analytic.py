"""Truncated analytic objects of the Carlitz module: the exponential e(z),
partial products of the period, and lattice Eisenstein series.

Convergence is certificate-based: a sum stops at the first term (or shell)
past the precision cutoff, and raises if its budget ends first or its shell
valuations fall.  Certificates (index -> valuation) are returned alongside
the values for inspection and CLI output.
"""

from __future__ import annotations

import itertools

from .errors import BelowPrecision, CarlitzError, DomainError
from .poly import Poly, RatFn, all_polys
from .series import InfLaurent, VqElem

__all__ = [
    "Lattice",
    "SeriesBudget",
    "carlitz_exp",
    "period_partial",
    "eisenstein",
]


class SeriesBudget:
    """Truncation policy: how many terms, how deep an enumeration, and the
    target s-adic precision."""

    __slots__ = ("term_count", "degree_bound", "precision")

    def __init__(self, term_count: int = 8, degree_bound: int = 4, precision: int = 24):
        if term_count < 1 or degree_bound < 1 or precision < 1:
            raise DomainError("budget fields must be positive")
        self.term_count = term_count
        self.degree_bound = degree_bound
        self.precision = precision


class Lattice:
    """A finitely generated F_q[T]-submodule of V_q, given by a basis."""

    __slots__ = ("basis", "rank")

    def __init__(self, basis):
        basis = list(basis)
        if not basis:
            raise DomainError("a lattice needs at least one basis element")
        for b in basis:
            if b.is_zero():
                raise DomainError("lattice basis elements must be nonzero")
        self.basis = basis
        self.rank = len(basis)

    def scaled(self, c: VqElem) -> "Lattice":
        return Lattice([c * b for b in self.basis])


def _valuation_or_none(x):
    try:
        return x.valuation()
    except BelowPrecision:
        return None


def carlitz_exp(z: VqElem, budget: SeriesBudget = None, with_certificate: bool = False):
    """e(z) = sum over n of z^(q^n) / D_n, truncated at the first term within
    the term budget whose valuation q^n (v + (q-1) n) reaches the cutoff.
    Each step changes it by (q-1) q^n (v + (q-1) n + q), which can only turn
    from negative to positive: the valuations fall, staying at or below v,
    then rise for good, so that term certifies the whole tail."""
    budget = budget or SeriesBudget()
    gf = z.gf
    q = gf.q
    prec = min(budget.precision, z.prec) if z.prec is not None else budget.precision
    if z.is_zero():
        out = VqElem.zero(gf, z.prec)
        return (out, {}) if with_certificate else out
    v = z.valuation()
    acc = VqElem.zero(gf)
    zq = z  # z^(q^n)
    cert = {}
    T = Poly.T(gf)
    Dn = Poly.one(gf)  # D_0 = 1, D_n = [n] * D_{n-1}^q with [n] = T^(q^n) - T
    for n in range(budget.term_count):
        # v(z^(q^n)) = q^n v(z), and D_n has T-degree n q^n, so valuation
        # -(q-1) n q^n; the term's precision lies above this valuation
        val = cert[n] = q**n * (v + (q - 1) * n)
        if val >= prec:
            # this term only certifies the cutoff: no digit of it is kept
            break
        if n:
            Dn = (Poly.one(gf).shift(q**n) - T) * Dn.frobenius()
        # n-th coefficient is 1/D_n: the unique choice (with the standard D_n
        # recursion) satisfying e(Tz) = e(z)^q + T*e(z), which the test suite
        # enforces
        acc = acc + zq.truncate(prec) / VqElem.from_poly(Dn)
        zq = zq.frobenius()
    else:
        raise CarlitzError(
            f"term budget {budget.term_count} exhausted before valuations "
            f"reached precision {prec}"
        )
    acc = acc.truncate(prec)
    return (acc, cert) if with_certificate else acc


def period_partial(gf, N: int, prec: int = None):
    """The partial period product: prod over n = 1..N of (1 - [n]/[n+1]).

    Each factor is ([n+1] - [n])/[n+1], so numerator and denominator are
    multiplied out as polynomials and reduced once at the end.  Returns the
    exact rational function; with ``prec`` also its Laurent expansion at
    infinity, as a pair (ratfn, series).
    """
    if N < 1:
        raise DomainError("need at least one factor")
    T = Poly.T(gf)
    # [n] = T^(q^n) - T for n = 1..N+1
    brackets = [Poly.one(gf).shift(gf.q**n) - T for n in range(1, N + 2)]
    num = den = Poly.one(gf)
    for b, b_next in zip(brackets, brackets[1:]):
        num, den = num * (b_next - b), den * b_next
    acc = RatFn(num, den)
    if prec is None:
        return acc
    return acc, InfLaurent.from_ratfn(acc, prec=prec)


def eisenstein(L: Lattice, k: int, budget: SeriesBudget = None, with_certificate: bool = False):
    """E_(q-1)k(L) = sum over nonzero alpha in L of alpha^(-(q-1)k).

    Enumeration is by coefficient-degree shells: shell m holds the
    combinations sum A_i * basis_i with max deg A_i = m.  Shell-sum
    valuations must not decrease; the last shell's valuation is the
    convergence certificate.  alpha and c*alpha (c in F_q^*) give the same
    term, as c^((q-1)k) = 1, so each F_q^*-orbit is summed once, through the
    representative whose first nonzero A_i is monic, with weight q-1 = -1.
    A shell's terms are subtracted into one digit vector, which gives the
    same digits as subtracting them one by one: the sum is exact and the
    shell's precision is the least of its terms'.
    """
    budget = budget or SeriesBudget()
    if k < 1:
        raise DomainError("the weight index must be positive")
    b0 = L.basis[0]
    gf = b0.gf
    q = gf.q
    e = (q - 1) * k
    prec = budget.precision
    acc = VqElem.zero(gf)
    cert = {}
    prev = None
    for m in range(budget.degree_bound + 1):
        terms = []
        for coeffs in _shell_coeffs(gf, L.rank, m):
            alpha = VqElem.zero(gf)
            for c, b in zip(coeffs, L.basis):
                if not c.is_zero():
                    alpha = alpha + VqElem.from_poly(c) * b
            if alpha.is_zero():
                continue
            # alpha^-e as one inverse of the short power alpha^e: it claims the
            # digits that alpha^-1 ** e would, with alpha^-1 at a longer precision
            terms.append((alpha**e).inverse(prec=max(prec, 1 - e * alpha.v)))
        if not terms:
            continue
        lo = min(t.v for t in terms)
        vec = [0] * (max(t.v + len(t.coeffs) for t in terms) - lo)
        for t in terms:
            i, j = t.v - lo, t.v - lo + len(t.coeffs)
            vec[i:j] = gf.sub_vec(vec[i:j], t.coeffs)
        shell = VqElem(gf, lo, vec, min(t.prec for t in terms))
        sval = _valuation_or_none(shell)
        cert[m] = sval if sval is not None else f">={shell.prec}"
        if sval is not None and prev is not None and sval < prev:
            raise CarlitzError(
                f"shell {m} valuation {sval} dropped below {prev}; "
                "the Eisenstein sum diverges at this precision"
            )
        if sval is not None:
            prev = sval
        acc = acc + shell
    acc = acc.truncate(prec)
    return (acc, cert) if with_certificate else acc


def _shell_coeffs(gf, rank: int, m: int):
    """One coefficient tuple (A_1..A_rank) with max degree exactly m per
    F_q^*-orbit: the one whose first nonzero A_i is monic (for m = 0, the
    tuples of constants)."""
    if m < 0:
        return
    polys = list(all_polys(gf, m + 1))
    monic = [p for p in polys if not p.is_zero() and p.lc == 1]
    zero = Poly.zero(gf)
    for i in range(rank):
        for lead in monic:
            for rest in itertools.product(polys, repeat=rank - 1 - i):
                if lead.degree == m or any(p.degree == m for p in rest):
                    yield (zero,) * i + (lead,) + rest
