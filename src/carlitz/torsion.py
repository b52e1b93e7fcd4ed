"""Torsion points of the Carlitz module in both completions, division points,
and Dirichlet-style approximation by torsion.

Torsion here means the kernel of rho_M.  In the P-adic completion the relevant
kernel is that of rho_{P-1}, which splits completely: one simple root over
every residue class mod P, lifted by Newton's step on carlitz_act.  In V_q
(the ramified extension of the completion at infinity, uniformizer s) the
kernel of rho_M consists of the q^{deg M} Laurent series e(pi~ a/M), with
e the Carlitz exponential and pi~ its period: torsion_vq reads their basis
off e(pi~/M) and its rho_T images.  The T^n-torsion needs none of it: it is
the F_q-span of s^-1 and its n - 1 canonical T-divisions, whose leading
exponents k(q-1) - 1 are distinct, so dirichlet_approx solves on them by
forward substitution.
"""

from __future__ import annotations

import json

from .errors import BelowPrecision, CarlitzError, DomainError, PrecisionError
from .analytic import SeriesBudget, carlitz_exp
from .operator import carlitz_act
from .padic import PadicCtx, PadicElem
from .poly import MAX_FROBENIUS_DEGREE, Poly
from .series import INF, VqElem

__all__ = [
    "TorsionSetPadic",
    "TorsionSetVq",
    "torsion_padic",
    "torsion_vq",
    "divide_T",
    "completed_action",
    "division_chain",
    "dirichlet_approx",
]


class _TorsionSet:
    """The points of a torsion set in the order they were built; the JSON
    lists them sorted by their text, after the subclass's header fields."""

    __slots__ = ("order", "points")

    def __init__(self, order: Poly, points):
        self.order = order
        self.points = list(points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def to_json(self) -> str:
        return json.dumps({**self._header(), "points": sorted(str(x) for x in self.points)})


class TorsionSetPadic(_TorsionSet):
    """All q^{deg P} roots of rho_{P-1} in F_q[T]/P^N."""

    __slots__ = ("ctx",)

    def __init__(self, ctx: PadicCtx, order: Poly, points):
        self.ctx = ctx
        super().__init__(order, points)

    def __contains__(self, x: PadicElem):
        return x in self.points

    def _header(self) -> dict:
        return {
            "q": self.ctx.gf.q,
            "P": str(self.ctx.P),
            "order": str(self.order),
            "precision": self.ctx.N,
        }


class TorsionSetVq(_TorsionSet):
    """All q^{deg M} roots of rho_M in V_q, as truncated s-series."""

    __slots__ = ("prec",)

    def __init__(self, order: Poly, prec: int, points):
        self.prec = prec
        super().__init__(order, points)

    def __contains__(self, x: VqElem):
        return any(x.agrees(p) for p in self.points)

    def _header(self) -> dict:
        return {
            "q": self.order.gf.q,
            "M": str(self.order),
            "precision": self.prec,
        }


# torsion sets of more points (the size of the largest GF table) are refused
# before rho_M is built, as are T^n bases of more digits before any T-division
MAX_TORSION_POINTS = 2**16
# torsion_vq's precision, and the digits q^d (prec + 1) of all its points:
# 2^16 points of 2048 digits fit, and listing more takes gigabytes
MAX_TORSION_PREC = 2**14
MAX_TORSION_DIGITS = 2**27


def torsion_padic(P: Poly, N: int) -> TorsionSetPadic:
    """All roots of rho_{P-1} mod P^N, one over each residue class mod P.

    rho_{P-1}(x) is congruent to x^{q^d} - x mod P (d = deg P), so each of the
    q^d residue classes carries exactly one simple root.  Its x-derivative is
    the constant P-1, a unit, so one inverse of P-1 serves every Newton step
    b <- b - rho_{P-1}(b)/(P-1), and each step doubles the correct digits:
    the image is zero after at most ceil(log2 N) steps, and one still
    nonzero after ceil(log2 N) + 1 evaluations raises CarlitzError.  rho_{P-1} is
    F_q-linear, so the roots b_i over T^i, i < d, are the only lifts:
    sum c_i b_i is the root over sum c_i T^i.  The points come in the order
    of ctx.residues().
    """
    q, d = P.gf.q, P.degree
    if q**d > MAX_TORSION_POINTS:
        raise DomainError(f"{q}^{d} torsion points are above the supported maximum 2^16")
    ctx = PadicCtx(P, N)
    order = P - Poly.one(P.gf)
    step = ctx.elem(order).inverse()
    T = Poly.T(P.gf)
    points = [ctx.zero()]
    for i in range(d):
        b = ctx.elem(T**i)
        for _ in range((N - 1).bit_length() + 1):
            image = carlitz_act(order, b)
            if image.is_zero():
                break
            b = b - image * step
        else:
            raise CarlitzError(f"Newton from {T**i} did not reach a root mod {P}^{N}")
        points = [p + b.scale(c) for c in range(q) for p in points]
    return TorsionSetPadic(ctx, order, points)


def min_separating_prec(M: Poly) -> int:
    """Smallest s-precision that tells all q^{deg M} roots of rho_M apart.

    Distinct roots differ by a nonzero root, of valuation at most
    (deg M - 1)(q-1) - 1; one digit past that suffices.
    """
    return (M.degree - 1) * (M.gf.q - 1) if M.degree >= 1 else 1


def torsion_vq(M: Poly, prec: int) -> TorsionSetVq:
    """All roots of rho_M in V_q, to the given s-adic precision.

    They are e(pi~ a/M), deg a < d = deg M, for the Carlitz exponential e and
    its period pi~ = s^-q prod_{i>=1} (1 - u^(q^i-1))^-1, u = 1/T (Hayes 1974;
    Anderson-Brownawell-Papanikolas 2004): over F_q, the span of lam = e(z),
    z = pi~/M, and rho_T^i(lam) = e(pi~ T^i/M), i < d.  z is known below
    work = prec + (q-1)(d-1), as z' + eps with v(eps) >= work, and
    v(z) = (q-1)d - q > -q, where e is an isometry: e(z' + eps) = e(z') +
    e(eps), and v(e(eps)) = v(eps) < q^n (v(eps) + (q-1)n) = v(eps^(q^n)/D_n),
    n >= 1.  So lam = e(z') is right below work; each rho_T step,
    x^q - s^(1-q) x, costs q - 1 digits and lowers a valuation w >= 0 by
    exactly q - 1, as qw > w - (q-1).  So the d rows of digits -1 .. prec-1
    lead at (q-1)(d-1-i) - 1, and back-substitution on these leads gives
    their reduced echelon form, which lists the points in lexicographic
    digit order.  A precision above 2^14, or q^d points of more than 2^27
    digits in all, is refused before any series work.
    """
    if M.is_zero():
        raise DomainError("torsion of the zero polynomial is everything")
    gf = M.gf
    q = gf.q
    d = M.degree
    if q**d > MAX_TORSION_POINTS:
        raise DomainError(f"{q}^{d} torsion points are above the supported maximum 2^16")
    sep = min_separating_prec(M)
    if d >= 1 and prec < sep:
        raise PrecisionError(
            f"precision {prec} cannot separate the roots; need at least {sep}",
            needed=sep,
        )
    if d == 0:
        return TorsionSetVq(M, prec, [VqElem.zero(gf, prec)])
    if prec > MAX_TORSION_PREC:
        raise DomainError(f"precision {prec} is above the supported maximum 2^14")
    if q**d * (prec + 1) > MAX_TORSION_DIGITS:
        raise DomainError(f"{q}^{d} points of {prec + 1} digits are above the supported maximum of 2^27 digits")
    work = max(prec + (q - 1) * (d - 1), 1)
    # u^(q^i-1) = s^((q-1)(q^i-1)), as q^i - 1 is even for odd q; a factor is 1
    # to z's relative precision, work - v(z), once its exponent reaches it
    den, i = VqElem.from_poly(M), 1
    while (q - 1) * (q**i - 1) < work + q - (q - 1) * d:
        den, i = den - den.shifted((q - 1) * (q**i - 1)), i + 1
    z = den.inverse(prec=work + q).shifted(-q)
    # v(z) >= -1: the terms' valuations q^n (v(z) + (q-1)n) pass work by the last
    lams = [carlitz_exp(z, SeriesBudget(term_count=work.bit_length() + 2, precision=work))]
    for _ in range(d - 1):
        lams.append(lams[-1].rho_T())
    # earliest lead first, each row is set to 1 at its lead, and that column
    # is cleared from the rows already placed
    basis = []
    for i, x in enumerate(reversed(lams)):
        lead = i * (q - 1)
        row = [x.digit(k) for k in range(-1, prec)]
        if any(row[:lead]) or not row[lead]:
            raise CarlitzError(f"rho_T^{d - 1 - i}(e(pi~/M)) does not lead at s^{lead - 1}")
        row = gf.scale_vec(gf.inv(row[lead]), row)
        for b in basis:
            if b[lead]:
                b[lead:] = gf.sub_vec(b[lead:], gf.scale_vec(b[lead], row[lead:]))
        basis.append(row)
    # sum_j c_j b_j over (c_1, ..., c_d) in lexicographic order; the first
    # digit where two points differ is c_j at b_j's leading position
    points = [[0] * (prec + 1)]
    for b in reversed(basis):
        multiples = [gf.scale_vec(c, b) for c in range(1, q)]
        points += [gf.add_vec(m, p) for m in multiples for p in points]
    return TorsionSetVq(M, prec, [VqElem(gf, -1, p, prec) for p in points])


def _quotient_by_T(u: VqElem, prec: int = None) -> VqElem:
    """w = u/T = -u*s^(q-1) at the working precision:
    prec, or a window of 10(q-1) digits past v(u) for an exact nonzero u.
    Refuses v(u) <= -q, where the T-division does not converge, and a
    canonical branch of more than 2^24 digits, P - v(w)."""
    q = u.gf.q
    vu = u._veff()
    if vu <= -q:
        raise PrecisionError(
            f"argument valuation {vu} <= -{q}; the contraction does not converge"
        )
    if u.prec is None and not u.is_zero():
        # exact nonzero input: the fixed point is an infinite series, so a
        # working precision is needed; default to a comfortable window
        work = prec if prec is not None else u.v + 10 * (q - 1)
        u = u.truncate(work)
    elif prec is not None:
        u = u.truncate(prec)
    # 1/T = -s^(q-1) is a shift and a sign
    w = (-u).shifted(q - 1)
    if w.prec is not None and w.prec - w._veff() > MAX_FROBENIUS_DEGREE:
        raise DomainError(
            f"a canonical branch of {w.prec - w._veff()} digits is above the supported maximum 2^24"
        )
    return w


def _frobenius_sum(w: VqElem) -> VqElem:
    """sum_k w^(q^k) s^(q^k - 1) to w's precision P, by digit placement: the
    k-th term puts w's digit at exponent j at exponent q^k (j+1) - 1.  Two
    placements can meet, so they add.  Every term certifies its digits
    below P, so the sum is cut at P."""
    if not w.coeffs:
        return w
    gf, q, P, lo = w.gf, w.gf.q, w.prec, w.v
    out = list(w.coeffs)
    out += [0] * (P - lo - len(out))
    for j, c in w.terms():
        e = q * (j + 1)
        while e <= P:
            out[e - 1 - lo] = gf.add(out[e - 1 - lo], c)
            e *= q
    return VqElem(gf, lo, out, P)


def divide_T(u: VqElem, prec: int = None) -> list:
    """The q solutions v of v^q + T*v = u, canonical branch first.

    The canonical branch, the solution of maximal valuation, is the fixed
    point of v <- (u - v^q)/T: v = sum_k w^(q^k) s^(q^k - 1) with
    w = u/T = -u*s^(q-1).  As v(u) > -q, v(w) >= 0, so each term only moves
    w's digits: the one at exponent j goes to q^k (j+1) - 1, for every k
    that lands it below w's precision P, and the branch is one digit list
    from v(w) up to P.  The others add c*s^-1, c in F_q^*, the nonzero
    elements of the kernel of rho_T.  A canonical branch of more than 2^24
    digits, or q branches of more than 2^27 digits in all, q (P + 1), is
    refused before any digit list is built.
    """
    gf = u.gf
    q = gf.q
    w = _quotient_by_T(u, prec)
    if w.prec is not None and q * (w.prec + 1) > MAX_TORSION_DIGITS:
        raise DomainError(
            f"{q} branches of {w.prec + 1} digits are above the supported maximum of 2^27 digits"
        )
    v = _frobenius_sum(w)
    # v(v) >= 0, so each other branch is c at s^-1, zeros up to v(v), then v
    return [v] + [VqElem(gf, -1, [c] + [0] * v.v + list(v.coeffs), v.prec) for c in range(1, q)]


def division_chain(u: VqElem, depth: int) -> list:
    """Canonical iterated T-division points v_{-1}, ..., v_{-depth}."""
    chain = []
    for _ in range(depth):
        u = _frobenius_sum(_quotient_by_T(u))
        chain.append(u)
    return chain


def completed_action(M, u: VqElem) -> VqElem:
    """Action of a Laurent series M = sum a_k T^k on u.

    The polynomial part acts through iterated rho_T; each principal-part term
    a_{-k} T^{-k} contributes a_{-k} times the canonical k-fold T-division
    point of u.  Each T-division raises the valuation by exactly q-1 (the
    leading term of divide_T is u/T), so the tail term valuations rise and
    every term carries its own certified precision.

    M's digits at exponents >= p = M.prec are unknown, so the sum is cut at a
    lower bound on their terms' valuations, with b = v(u) (u.prec for a
    truncated zero): each
    a_k T^{-k}, k >= max(p, 1), reaches b + (q-1)k; when p <= 0, a_0 u
    reaches b_0 = b and a_{-j} rho_{T^j}(u), j <= -p, reaches
    b_j = min(q b_(j-1), b_(j-1) - (q-1)), which falls by q - 1 while
    b_(j-1) >= -1 and is then multiplied by q.  A bound below -2^24, the
    valuation of a q-th power past the Frobenius cap, is refused.
    """
    gf = u.gf
    if isinstance(M, Poly):
        return carlitz_act(M, u)
    # M is an InfLaurent: u-exponent k corresponds to T^{-k}, and the
    # polynomial part is the digits at k <= 0
    digits = dict(M.terms())
    poly_part = Poly(gf, [digits.get(-i, 0) for i in range(1 - min(digits, default=0))])
    acc = carlitz_act(poly_part, u)
    for k, vk in enumerate(division_chain(u, max(digits, default=0)), 1):
        if digits.get(k, 0):
            acc = acc + vk.scale(digits[k])
    p, q, b = M.prec, gf.q, u._veff()
    if p is None:
        return acc
    if p > 0 or b == INF:
        return acc.truncate(b + (q - 1) * max(p, 1))
    steps = max(0, min(-p, (b + 1) // (q - 1) + 1))
    b, steps = b - steps * (q - 1), -p - steps
    for _ in range(steps):
        if b < -MAX_FROBENIUS_DEGREE:
            raise DomainError(f"M's unknown digits up to T^{-p} reach valuations below the supported -2^24")
        b *= q
    return acc.truncate(b)


def dirichlet_approx(lam: VqElem, n: int):
    """Best torsion approximation of order T^n.

    Requires v(lam) = i(q-1) - 1 for some i >= 0 and n >= i + 1.  Returns
    (T^n, lam_n) with lam_n in the kernel of rho_{T^n} and
    v(lam_n - lam) > (n-1)(q-1) - 1: of the torsion points in torsion_vq's
    order, the first that agrees with lam on the most digits.  A basis of
    more than 2^16 digits, n (prec + 1), is refused before any T-division.

    The T^n-torsion is the F_q-span of r_0 = s^-1 and its n - 1 canonical
    T-divisions r_k, which lead at k(q-1) - 1.  A point is fixed by its
    digits there, and adding c r_k leaves the earlier ones alone, so
    forward substitution over all n rows sets each to lam's digit, or to 0
    at and past lam's precision: the first of the points that tie.  A sum
    that parts from lam before some lead parts from it before the last,
    (n-1)(q-1) - 1, and fails the bound whatever the c_k.

    It is a choice among tied points, not a certified expansion, so the
    precision contract has no row for it: a coarser lam ties more points,
    and the first of them need not agree with the answer for lam.
    """
    gf = lam.gf
    q = gf.q
    try:
        v = lam.valuation()
    except BelowPrecision:
        v = float("inf")
    if v != float("inf"):
        i, r = divmod(v + 1, q - 1)
        if r != 0 or i < 0:
            raise DomainError(f"valuation {v} is not of the form i(q-1) - 1 with i >= 0")
        if n < i + 1:
            raise DomainError(f"order {n} too small for valuation {v}; need n >= {i + 1}")
    if n < 1:
        raise DomainError("order must be positive")
    sep = (n - 1) * (q - 1)  # min_separating_prec(T^n)
    prec = max(lam.prec if lam.prec is not None else sep + q, sep)
    if n * (prec + 1) > MAX_TORSION_POINTS:
        raise DomainError(f"the T^{n}-torsion basis of {n} x {prec + 1} digits is above the supported maximum 2^16")
    # lam's digits from exponent -1 up to the precision of p - lam, which
    # is lam's own (prec when lam is exact)
    target = [lam.digit(k) for k in range(-1, prec if lam.prec is None else lam.prec)]
    root = VqElem.monomial(gf, 1, -1, prec)
    best = [0] * (prec + 1)
    for k, x in enumerate([root] + division_chain(root, n - 1)):
        row, lead = [x.digit(j) for j in range(-1, prec)], k * (q - 1)
        want = target[lead] if lead < len(target) else 0
        c = gf.mul(gf.add(want, gf.neg(best[lead])), gf.inv(row[lead]))
        if c:
            best = gf.add_vec(best, gf.scale_vec(c, row))
    best = VqElem(gf, -1, best, prec)
    try:
        best_val = (best - lam).valuation()
    except BelowPrecision:
        best_val = float("inf")
    if best_val < sep:
        raise CarlitzError(f"no order-{n} torsion point within valuation {sep - 1}; best was {best_val}")
    return Poly.T(gf) ** n, best
