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
from .operator import D_sequence
from .poly import MAX_FROBENIUS_DEGREE, Poly, RatFn, all_polys, check_frobenius_degree
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
    then rise for good, so that term certifies the whole tail.

    A truncated zero O(s^p) stands for every z of valuation >= p, whose n-th
    term reaches q^n (p + (q-1) n), so e(z) is the zero to the least of
    these and the cutoff, refused when that is below -2^24; an exact zero
    gives 0."""
    budget = budget or SeriesBudget()
    gf = z.gf
    q = gf.q
    prec = min(budget.precision, z.prec) if z.prec is not None else budget.precision
    if z.is_zero():
        p = z.prec
        if p is not None:
            # q^n (p + (q-1) n) falls while p + (q-1) n + q < 0; from n = 1
            # on it is at most -2 q^n, so past n = 24 it is below the cap
            n = max(0, -((p + q) // (q - 1)))
            low = -2 * MAX_FROBENIUS_DEGREE if n > 24 else q**n * (p + (q - 1) * n)
            if low < -MAX_FROBENIUS_DEGREE:
                raise DomainError(f"e(O(s^{p})) reaches valuations below the supported -2^24")
            p = min(prec, low)
        out = VqElem.zero(gf, p)
        return (out, {}) if with_certificate else out
    v = z.valuation()
    acc = VqElem.zero(gf)
    zq = z  # z^(q^n)
    cert = {}
    Ds = D_sequence(gf)
    for n in range(budget.term_count):
        # v(z^(q^n)) = q^n v(z), and D_n has T-degree n q^n, so valuation
        # -(q-1) n q^n; the term's precision lies above this valuation
        val = cert[n] = q**n * (v + (q - 1) * n)
        if val >= prec:
            # this term only certifies the cutoff: no digit of it is kept
            break
        # n-th coefficient is 1/D_n: the unique choice (with the standard D_n
        # recursion) satisfying e(Tz) = e(z)^q + T*e(z), which the test suite
        # enforces
        acc = acc + zq.truncate(prec) / VqElem.from_poly(next(Ds))
        # (a + b)^q = a^q + b^q: the digits kept, below prec, need z^(q^n)'s below ceil(prec/q)
        zq = zq.truncate(-(-prec // q)).frobenius()
    else:
        raise CarlitzError(
            f"term budget {budget.term_count} exhausted before valuations "
            f"reached precision {prec}"
        )
    acc = acc.truncate(prec)
    return (acc, cert) if with_certificate else acc


# period_partial's products run in time about quadratic in the denominator's
# T-degree, so the cap bounds the time: the slowest call it admits at q <= 9,
# q = 2 and N = 16, takes about 2 s, where q = 4 and N = 8 took 15 s
MAX_PERIOD_DEGREE = 2**18


def period_partial(gf, N: int, prec: int = None):
    """The partial period product: prod over n = 1..N of (1 - [n]/[n+1]).

    Since [n+1] - [n] = [1]^(q^n) and each [n] is squarefree with [1] once,
    the reduced fraction is [1]^(q + ... + q^N - N) over prod_{n=2}^{N+1}
    [n]/[1], monic with no linear factor.  Returns it; with ``prec`` also its
    Laurent expansion at infinity, as a pair (ratfn, series).  A denominator
    of T-degree sum_{n=2}^{N+1} q^n above 2^18 is refused first.
    """
    if N < 1:
        raise DomainError("need at least one factor")
    q = gf.q
    # the degree is at least q^(N+1) >= 2^(N+1), so an N past the cap's bit
    # length is refused unpowered
    if N + 1 >= MAX_PERIOD_DEGREE.bit_length() or sum(q**n for n in range(2, N + 2)) > MAX_PERIOD_DEGREE:
        raise DomainError(f"the product of {N} factors has T-degree above the supported maximum 2^18")
    T = Poly.T(gf)
    num = (T.frobenius() - T) ** (sum(q**n for n in range(1, N + 1)) - N)
    den = Poly.one(gf)
    # [n]/[1] = (T^(q^n - 1) - 1)/(T^(q-1) - 1), a geometric sum in T^(q-1)
    for n in range(2, N + 2):
        den = den * Poly(gf, (1,) + ((0,) * (q - 2) + (1,)) * ((q**n - q) // (q - 1)))
    acc = RatFn.reduced(num, den)
    if prec is None:
        return acc
    return acc, InfLaurent.from_ratfn(acc, prec=prec)


def eisenstein(L: Lattice, k: int, budget: SeriesBudget = None, with_certificate: bool = False):
    """E_(q-1)k(L) = sum over nonzero alpha in L of alpha^(-(q-1)k).

    Summation is by coefficient-degree shells: shell m holds the
    combinations sum A_i * basis_i with max deg A_i = m.  Shell-sum
    valuations must not decrease; the last shell's valuation is the
    convergence certificate.  Every term of shell m is kept to the same
    precision, so a shell is its exact sum truncated there.
    """
    budget = budget or SeriesBudget()
    if k < 1:
        raise DomainError("the weight index must be positive")
    gf = L.basis[0].gf
    e = (gf.q - 1) * k
    shells = _rank_one_shells if L.rank == 1 else _orbit_shells
    acc = VqElem.zero(gf)
    cert = {}
    prev = None
    for m, shell in shells(L, e, budget):
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
    acc = acc.truncate(budget.precision)
    return (acc, cert) if with_certificate else acc


def _rank_one_shells(L: Lattice, e: int, budget: SeriesBudget):
    """Shell m of L = [b] is -b^-e S_m(e), as A*b and c*A*b (c in F_q^*)
    give the same term and q - 1 = -1.  Its terms all have valuation
    v_m = v(b) - (q-1)m, so all keep the digits below
    t_m = max(prec, 1 - e v_m), and below (b.prec - v(b)) - e v_m when b is
    truncated; those digits depend only on b's known digits."""
    b = L.basis[0]
    gf = b.gf
    q = gf.q
    bx = VqElem(gf, b.v, b.coeffs)  # b's known digits, exact
    for m, (c, D) in enumerate(_carlitz_e(gf, e, budget.degree_bound)):
        vm = b.v - (q - 1) * m
        t = max(budget.precision, 1 - e * vm)
        if b.prec is not None:
            t = min(t, b.prec - b.v - e * vm)
        # the shell's digits below t take those of S_m(e) below t + e v(b),
        # and rel digits of b^-e; rel <= b.prec - v(b), as
        # v(S_m(e)) >= e (q-1) m
        S = VqElem.from_inf(_power_sum(c, D, e, -(-(t + e * b.v) // (q - 1))))
        rel = t + e * b.v - S._veff()
        if rel <= 0:
            yield m, VqElem.zero(gf, t)
            continue
        x = (bx.truncate(b.v + rel) ** e).inverse(prec=rel - e * b.v)
        yield m, -(x * S).truncate(t)


def _carlitz_e(gf, n: int, top: int):
    """For m = 0..top, D_m, the product of the monic polynomials of degree
    m, and the coefficients c_i of x^(q^i) in
    e_m(x) = prod over deg a < m of (x - a), for i = 0 and the q^i < n.

    e_0(x) = x and e_(m+1) = e_m^q - D_m^(q-1) e_m, D_m read from
    D_sequence.  D_top has T-degree top * q^top, refused past
    the Frobenius cap before any work.
    """
    q = gf.q
    check_frobenius_degree(top * q**top)
    zero, one = Poly.zero(gf), Poly.one(gf)
    width = 1
    while q**width < n:
        width += 1
    c = [one] + [zero] * (width - 1)
    Ds = D_sequence(gf)
    D = next(Ds)
    for m in range(top + 1):
        if m:
            Dq1 = D ** (q - 1)
            c = [(c[i - 1].frobenius() if i else zero) - Dq1 * c[i] for i in range(width)]
            D = next(Ds)
        yield c, D


def _power_sum(c, D, n: int, prec: int) -> InfLaurent:
    """S_m(n) = sum over monic A of degree m of A^-n, to u-precision prec,
    from _carlitz_e's c_i and D = D_m.

    e_m is F_q-linear and e_m(T^m) = D, so
    sum_A 1/(A + y) = c_0/e_m(T^m + y) = c_0/(D + sum_i c_i y^(q^i)), whose
    y^(n-1) coefficient is (-1)^(n-1) S_m(n).  With y_i = c_i/D, that is
    S_m(n) = (-1)^(n-1) y_0 h_(n-1), where h_0 = 1 and
    h_j = -sum over 1 <= q^i <= j of y_i h_(j-q^i).  Each c_i has degree at
    most deg D, so every y_i and h_j has valuation >= 0, and h_(n-1) is
    needed only below prec - v(y_0).
    """
    gf = D.gf
    q = gf.q
    need = prec - (D.degree - c[0].degree)
    if need <= 0:
        return InfLaurent.zero(gf, prec)
    inv = InfLaurent.from_poly(D).inverse(prec=D.degree + need)
    y = [InfLaurent.from_poly(ci) * inv for ci in c]
    h = [InfLaurent.one(gf)]
    for j in range(1, n):
        h.append(-sum((yi * h[j - q**i] for i, yi in enumerate(y) if q**i <= j), InfLaurent.zero(gf)))
    S = y[0] * h[n - 1]
    return S if n % 2 else -S


def _orbit_shells(L: Lattice, e: int, budget: SeriesBudget):
    """The shells of a lattice of rank >= 2, one term per F_q^*-orbit:
    alpha and c*alpha (c in F_q^*) give the same term, as c^e = 1, so the
    representative whose first nonzero A_i is monic is summed with weight
    q-1 = -1.  A shell's terms are subtracted into one digit vector, which
    gives the same digits as subtracting them one by one: the sum is exact
    and the shell's precision is the least of its terms'."""
    gf = L.basis[0].gf
    prec = budget.precision
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
        yield m, VqElem(gf, lo, vec, min(t.prec for t in terms))


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
