"""The four benchmark workloads: seeded inputs, tasks and their oracle checks.

A workload is a fixed batch of tasks.  ``build(name, seed, fields)`` makes every
input up front (this is the untimed part); each task's ``run`` then only calls
into ``carlitz``, and its ``check`` judges the result with a mathematical
property or a definitional oracle.  Checks compare only digits a result
claims, and no expected output is frozen anywhere.

The batches are stratified: every parameter combination a workload names gets
a fixed number of tasks and only the random operands change with the seed, so
the batch's total cost moves little from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import random

from carlitz import cli
from carlitz.analytic import Lattice, SeriesBudget, carlitz_exp, eisenstein, period_partial
from carlitz.errors import BelowPrecision, PrecisionError
from carlitz.geometry import (
    Fraction,
    TreeVertex,
    descartes_form,
    geodesic_ray,
    tangent_family,
    tree_distance,
    tree_neighbors,
)
from carlitz.operator import carlitz_act, cyclotomic_poly
from carlitz.padic import PadicCtx
from carlitz.poly import Poly, is_irreducible, poly_ext_gcd
from carlitz.reciprocity import (
    check_reciprocity,
    kummer_map,
    kummer_solve,
    residue_degree_cyclotomic,
    residue_symbol,
)
from carlitz.residues import ddf
from carlitz.series import InfLaurent, VqElem
from carlitz.torsion import (
    dirichlet_approx,
    divide_T,
    division_chain,
    min_separating_prec,
    torsion_padic,
    torsion_vq,
)

# The one failure this benchmark expects at this commit: ``eisenstein``
# truncates to the requested precision without certifying the tail.
KNOWN_DEFECT = "eisenstein-uncertified-tail"


class Task:
    """One closed-loop request: ``run()`` does the library work, ``check(out)``
    returns None when the output is right, else ``(kind, detail)`` where kind
    is ``"fail"`` or ``KNOWN_DEFECT``.  ``check_error(exc)`` judges an
    exception the same way (default: every exception is a failure)."""

    __slots__ = ("kind", "label", "run", "check", "check_error")

    def __init__(self, kind, label, run, check, check_error=None):
        self.kind = kind
        self.label = label
        self.run = run
        self.check = check
        self.check_error = check_error or _unexpected


def _unexpected(exc):
    return ("fail", f"raised {type(exc).__name__}: {exc}")


def _fail(detail):
    return ("fail", detail)


# ---------------------------------------------------------------- helpers


def rand_poly(gf, rng, max_deg, nonzero=False):
    while True:
        f = Poly(gf, [rng.randrange(gf.q) for _ in range(max_deg + 1)])
        if not nonzero or not f.is_zero():
            return f


def rand_exact_deg(gf, rng, deg, monic=False):
    lead = 1 if monic else rng.randrange(1, gf.q)
    return Poly(gf, [rng.randrange(gf.q) for _ in range(deg)] + [lead])


def rand_irreducible(gf, rng, deg, avoid=()):
    while True:
        f = rand_exact_deg(gf, rng, deg, monic=True)
        if f not in avoid and is_irreducible(f):
            return f


def valuation_or_prec(x):
    try:
        return x.valuation()
    except BelowPrecision:
        return x.prec


def first_difference(a, b, upto):
    """Least exponent below ``upto`` where two series differ, else None."""
    lo = min([x.v for x in (a, b) if not x.is_zero()] + [upto])
    for k in range(int(lo), int(upto)):
        if a.digit(k) != b.digit(k):
            return k
    return None


# ---------------------------------------------------------------- quotient


def _sum_axiom_task(M, N, u, label):
    def run():
        return carlitz_act(M + N, u), carlitz_act(M, u) + carlitz_act(N, u)

    def check(out):
        return None if out[0] == out[1] else _fail("rho_{M+N}(u) != rho_M(u) + rho_N(u)")

    return Task("axiom_sum", label, run, check)


def _product_axiom_task(M, N, u, label):
    def run():
        return carlitz_act(M * N, u), carlitz_act(M, carlitz_act(N, u))

    def check(out):
        return None if out[0] == out[1] else _fail("rho_{MN}(u) != rho_M(rho_N(u))")

    return Task("axiom_product", label, run, check)


def _torsion_padic_task(P, N, label):
    gf = P.gf
    order = P - Poly.one(gf)

    def run():
        return torsion_padic(P, N)

    def check(ts):
        pts = list(ts)
        if len(pts) != gf.q ** P.degree:
            return _fail(f"{len(pts)} points, expected {gf.q ** P.degree}")
        if len({str(x.rep % P) for x in pts}) != len(pts):
            return _fail("two points share a residue class mod P")
        for x in pts:
            if x.ctx.N != N or not carlitz_act(order, x).is_zero():
                return _fail(f"rho_(P-1)({x}) != 0 mod P^{N}")
        return None

    return Task("torsion_padic", label, run, check)


# (q, deg P) -> (N, axiom tasks), alternating between the sum and the product
# axiom.  Cheap sizes get more tasks so the largest (deg P^N = 96) sit in the
# tail without dominating the batch; q = 5, deg P = 3, N = 32 (about 2 s a
# task) is left out.  M and N have degree 5.  Every task draws its own prime
# P: the cost of arithmetic mod P^N depends on P, so primes shared across the
# batch would make its tail hang on a few draws.
QUOTIENT_AXIOMS = {
    (3, 2): ((4, 14), (8, 6), (16, 2), (32, 2)),
    (3, 3): ((4, 14), (8, 6), (16, 2), (32, 2)),
    (5, 2): ((4, 14), (8, 6), (16, 2), (32, 2)),
    (5, 3): ((4, 14), (8, 6), (16, 2)),
}
# (q, deg P, N) of the torsion sets; q = 5 with deg P = 3 (125 Hensel lifts,
# over a second each) is left out.  The cost of a torsion set hardly depends
# on P, and q = 5, deg P = 2, N = 8 costs about what the batch's p90 task
# does, so four draws of it put the p90 inside a block of like tasks instead
# of on the edge between two size classes, where it would jump from seed to
# seed.
QUOTIENT_TORSION = ((3, 2, 4), (3, 2, 8), (3, 3, 4), (3, 3, 8), (5, 2, 4)) + ((5, 2, 8),) * 4


def quotient_tasks(rng, fields):
    tasks = []
    for (q, dP), sizes in QUOTIENT_AXIOMS.items():
        gf = fields[q]
        for N, count in sizes:
            for i in range(count):
                ctx = PadicCtx(rand_irreducible(gf, rng, dP), N)
                M, Nn = rand_exact_deg(gf, rng, 5), rand_exact_deg(gf, rng, 5)
                u = ctx.elem(rand_poly(gf, rng, dP * N - 1))
                make = _sum_axiom_task if i % 4 < 2 else _product_axiom_task
                tasks.append(make(M, Nn, u, f"q={q} P={ctx.P} N={N} M={M} N'={Nn} u={u}"))
    for q, dP, N in QUOTIENT_TORSION:
        P = rand_irreducible(fields[q], rng, dP)
        tasks.append(_torsion_padic_task(P, N, f"q={q} P={P} N={N}"))
    return tasks


# ---------------------------------------------------------------- infinity


def _torsion_vq_task(M, prec):
    gf = M.gf

    def run():
        return torsion_vq(M, prec)

    def check(ts):
        pts = list(ts)
        if len(pts) != gf.q ** M.degree:
            return _fail(f"{len(pts)} points, expected q^deg M = {gf.q ** M.degree}")
        keys = {str(x) for x in pts}
        if len(keys) != len(pts):
            return _fail("two torsion points coincide to the claimed precision")
        # the kernel is an F_q-vector space: closed under adding a fixed
        # nonzero point and under scalars (this sees digits that rho_M(x),
        # whose precision is lower than x's, does not claim)
        g = next(x for x in pts if not x.is_zero())
        for x in pts:
            if x.prec != prec:
                return _fail(f"point {x} does not claim O(s^{prec})")
            if not carlitz_act(M, x).is_zero():
                return _fail(f"rho_M({x}) has a nonzero claimed digit")
            if str(x + g) not in keys or any(str(x.scale(c)) not in keys for c in range(2, gf.q)):
                return _fail(f"the torsion set is not closed under addition at {x}")
        return None

    return Task("torsion_vq", f"M={M} prec={prec}", run, check)


def _divide_task(u, depth):
    gf = u.gf
    T = Poly.T(gf)

    def run():
        return divide_T(u), division_chain(u, depth)

    def check(out):
        branches, chain = out
        if len(branches) != gf.q:
            return _fail(f"{len(branches)} branches, expected q")
        for v in branches:
            if not carlitz_act(T, v).agrees(u):
                return _fail(f"rho_T({v}) disagrees with u")
        prev = u
        for v in chain:
            if not carlitz_act(T, v).agrees(prev):
                return _fail(f"chain step {v} is not a T-division of {prev}")
            prev = v
        return None

    return Task("divide_T", f"u={u} depth={depth}", run, check)


def _exp_task(z, budget):
    gf = z.gf
    T = Poly.T(gf)

    def run():
        lhs = carlitz_exp(VqElem.from_poly(T) * z, budget)
        rhs = carlitz_act(T, carlitz_exp(z, budget))
        return lhs, rhs

    def check(out):
        lhs, rhs = out
        if not lhs.agrees(rhs):
            return _fail("e(Tz) != rho_T(e(z)) on claimed digits")
        return None

    return Task("exp", f"z={z} prec={budget.precision}", run, check)


def _kummer_task(u):
    gf = u.gf

    def run():
        M = kummer_map(u)
        y = kummer_solve(M)
        return M, y, kummer_map(y)

    def check(out):
        M, y, back = out
        if not back.agrees(M):
            return _fail("kappa(kummer_solve(M)) != M")
        if not any(y.scale(c).agrees(u) for c in range(1, gf.q)):
            return _fail("the root is not an F_q^*-multiple of the preimage")
        return None

    return Task("kummer", f"u={u}", run, check)


def _dirichlet_task(lam, n):
    gf = lam.gf
    q = gf.q

    def run():
        return dirichlet_approx(lam, n)

    def check(out):
        Mn, best = out
        if Mn != Poly.T(gf) ** n:
            return _fail(f"order {Mn} is not T^{n}")
        if not carlitz_act(Mn, best).is_zero():
            return _fail(f"{best} is not T^{n}-torsion")
        dv = valuation_or_prec(best - lam)
        if not dv > (n - 1) * (q - 1) - 1:
            return _fail(f"v(best - lam) = {dv} misses the Dirichlet bound")
        return None

    return Task("dirichlet", f"lam={lam} n={n}", run, check)


def eisenstein_tail_bound(basis, k, degree_bound):
    """Least valuation of any term alpha^(-(q-1)k) outside the shells a run
    with this degree bound enumerates, for a rank-one lattice: alpha = A*b
    with deg A = m has v(alpha) = v(b) - (q-1)m exactly."""
    q = basis.gf.q
    return (q - 1) * k * ((q - 1) * (degree_bound + 1) - basis.valuation())


def _eisenstein_task(b, k, budget):
    L = Lattice([b])
    prec, db = budget.precision, budget.degree_bound
    tail = eisenstein_tail_bound(b, k, db)

    def run():
        return eisenstein(L, k, budget, with_certificate=True)

    def check(out):
        value, cert = out
        deeper = eisenstein(L, k, SeriesBudget(precision=prec, degree_bound=db + 1))
        diff = first_difference(value, deeper, min(value.prec, deeper.prec))
        if diff is None:
            return None
        detail = (
            f"digit s^{diff} differs from degree_bound={db + 1}; certificate {cert}, "
            f"unenumerated shells reach valuation {tail}"
        )
        # digits below the tail bound are fixed by the enumerated shells, so
        # only a disagreement at or above it is the uncertified-tail defect
        return (KNOWN_DEFECT, detail) if diff >= tail else _fail(detail)

    def check_error(exc):
        # a refusal is right exactly when the unenumerated shells reach
        # below the requested precision
        if isinstance(exc, PrecisionError) and tail < prec:
            return None
        return _unexpected(exc)

    return Task("eisenstein", f"b={b} k={k} degree_bound={db} prec={prec}", run, check, check_error)


def _period_task(gf, N, prec):
    one = Poly.one(gf)

    def run():
        return period_partial(gf, N, prec=prec)

    def check(out):
        ratfn, series = out
        # prod_{n=1..N} (1 - [n]/[n+1]) = prod ([n+1] - [n]) / prod [n+1]
        num, den = one, one
        for n in range(1, N + 1):
            b_n = one.shift(gf.q ** n) - Poly.T(gf)
            b_n1 = one.shift(gf.q ** (n + 1)) - Poly.T(gf)
            num, den = num * (b_n1 - b_n), den * b_n1
        if ratfn.num * den != ratfn.den * num:
            return _fail("the partial product is not prod (1 - [n]/[n+1])")
        lhs = InfLaurent.from_poly(ratfn.den) * series
        if not lhs.agrees(InfLaurent.from_poly(ratfn.num)):
            return _fail("the expansion times the denominator is not the numerator")
        return None

    return Task("period", f"N={N} prec={prec}", run, check)


def _even(i, count, lo, hi):
    """The i-th of ``count`` values spread evenly over [lo, hi]."""
    return lo + i * (hi - lo) // max(count - 1, 1)


def _rand_vq(gf, rng, lo, hi, prec=None):
    """Random digits at exponents lo..hi-1, the one at lo nonzero."""
    terms = {k: rng.randrange(gf.q) for k in range(lo, hi)}
    terms[lo] = rng.randrange(1, gf.q)
    return VqElem.from_terms(gf, terms, prec)


def _kummer_input(gf, rng, prec_s):
    # a (q-1)-st power: a polynomial leading part times a 1-unit on the
    # exponent lattice (q-1)Z
    q = gf.q
    u = VqElem.from_poly(rand_poly(gf, rng, 3, nonzero=True))
    tail = {0: 1}
    for j in range(1, prec_s // (q - 1) + 1):
        tail[(q - 1) * j] = rng.randrange(q)
    return (u * VqElem.from_terms(gf, tail)).truncate(prec_s + u.v)


# task counts per kind.  Sizes and budgets follow fixed schedules over the
# ranges the workload covers (torsion_vq: every precision from
# min_separating_prec to twice that; eisenstein: degree_bound 1-3 with
# precision 24-60); only the operands are random
INFINITY_TORSION = ((2, 40), (3, 30), (4, 20))
INFINITY_COUNTS = {"divide_T": 80, "exp": 16, "kummer": 60, "dirichlet": 60, "eisenstein": 50}
INFINITY_PERIOD = ((1, 8), (2, 8), (3, 8), (4, 6))


def infinity_tasks(rng, fields):
    gf = fields[3]
    q = gf.q
    tasks = []
    for d, count in INFINITY_TORSION:
        for i in range(count):
            M = rand_exact_deg(gf, rng, d)
            sep = min_separating_prec(M)
            tasks.append(_torsion_vq_task(M, sep + i % (sep + 1)))
    n = INFINITY_COUNTS["divide_T"]
    for i in range(n):
        L = _even(i, n, 12, 24)
        tasks.append(_divide_task(_rand_vq(gf, rng, -1, L, prec=L), 3 + i % 4))
    n = INFINITY_COUNTS["exp"]
    for i in range(n):
        z = _rand_vq(gf, rng, 1, 8, prec=50)
        tasks.append(_exp_task(z, SeriesBudget(term_count=8, degree_bound=4, precision=_even(i, n, 24, 40))))
    n = INFINITY_COUNTS["kummer"]
    for i in range(n):
        tasks.append(_kummer_task(_kummer_input(gf, rng, _even(i, n, 20, 40))))
    # Dirichlet targets are T^5-torsion points of valuation -1
    pool = [p for p in torsion_vq(Poly.T(gf) ** 5, 16) if not p.is_zero() and p.v == -1]
    n = INFINITY_COUNTS["dirichlet"]
    for i in range(n):
        order = 2 + i % 3
        lam = rng.choice(pool).truncate(max(2 * order * (q - 1), _even(i, n, 8, 16)))
        tasks.append(_dirichlet_task(lam, order))
    n = INFINITY_COUNTS["eisenstein"]
    for i in range(n):
        vb = -1 + (i // 3) % 3
        b = _rand_vq(gf, rng, vb, vb + 1 + (i // 9) % 3)
        budget = SeriesBudget(degree_bound=1 + i % 3, precision=_even(i, n, 24, 60))
        tasks.append(_eisenstein_task(b, 1 + (i // 27) % 2, budget))
    for N, count in INFINITY_PERIOD:
        for i in range(count):
            tasks.append(_period_task(gf, N, _even(i, count, 40, 200)))
    return tasks


# ---------------------------------------------------------------- symbols


def _law_task(P, Q, d):
    gf = P.gf
    q = gf.q

    def run():
        return residue_symbol(P, Q, d), residue_symbol(Q, P, d), check_reciprocity(P, Q, d)

    def check(out):
        pq, qp, (lhs, rhs, holds) = out
        for s in (pq, qp):
            if gf.pow(s, d) != 1:
                return _fail(f"symbol {gf.fmt_elem(s)} is not a {d}-th root of unity")
        # Euler's criterion: (A/P)_d is (A/P)_(q-1) raised to (q-1)/d
        if gf.pow(residue_symbol(P, Q, q - 1), (q - 1) // d) != pq:
            return _fail("(P/Q)_d disagrees with (P/Q)_(q-1)^((q-1)/d)")
        if lhs != gf.mul(pq, gf.inv(qp)):
            return _fail("the law's left side is not (P/Q)_d / (Q/P)_d")
        sign = gf.pow(gf.neg(1), ((q - 1) // d) * P.degree * Q.degree)
        if rhs != sign or not holds or lhs != sign:
            return _fail(f"reciprocity sign fails: lhs {lhs}, rhs {rhs}, expected {sign}")
        return None

    return Task("law", f"P={P} Q={Q} d={d}", run, check)


def _split_task(P, A):
    gf = P.gf
    order = gf.q ** A.degree - 1

    def run():
        f = residue_degree_cyclotomic(P, A)
        psi = cyclotomic_poly(A, 1)
        return f, psi, ddf(list(psi.coeffs), P)

    def check(out):
        f, psi, degs = out
        if psi.deg() != order:
            return _fail(f"cyclotomic polynomial of {A} has degree {psi.deg()}")
        if order % f:
            return _fail(f"residue degree {f} does not divide {order}")
        if sum(d * n for d, n in degs) != order or any(d != f for d, _ in degs):
            return _fail(f"ddf degrees {degs} != residue degree {f}")
        return None

    return Task("split", f"P={P} A={A}", run, check)


def _cli_task(q, max_deg, rows):
    argv = ["sweep", "--kind", "reciprocity", "--q", str(q), "--max-deg", str(max_deg)]

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue().splitlines()

    def check(out):
        rc, lines = out
        if rc != 0:
            return _fail(f"exit code {rc}")
        if len(lines) != rows or any(not line.endswith("\tTrue") for line in lines):
            return _fail("sweep rows missing or violating the law")
        return None

    return Task("cli", " ".join(argv), run, check)


SYMBOL_PAIRS = 8  # pairs per (deg P, deg Q); each pair runs every d | q - 1
SYMBOL_SPLITS = ((1, 1, 6), (1, 2, 6), (1, 3, 6), (2, 1, 2))  # (deg A, deg P, count)


def symbols_tasks(rng, fields):
    gf = fields[9]
    q = gf.q
    divisors = [d for d in range(1, q) if (q - 1) % d == 0]
    tasks = []
    for dP in (1, 2, 3):
        for dQ in (1, 2, 3):
            for _ in range(SYMBOL_PAIRS):
                P = rand_irreducible(gf, rng, dP)
                Q = rand_irreducible(gf, rng, dQ, avoid=(P,))
                tasks.extend(_law_task(P, Q, d) for d in divisors)
    for dA, dP, count in SYMBOL_SPLITS:
        for _ in range(count):
            while True:
                A = rand_irreducible(gf, rng, dA)
                P = rand_irreducible(gf, rng, dP, avoid=(A,))
                # for deg A = 2 only P of full order mod A, where ddf does
                # the most work: one factor of degree q^2 - 1
                if dA == 1 or residue_degree_cyclotomic(P, A) == q ** dA - 1:
                    break
            tasks.append(_split_task(P, A))
    # every pair of the q linear primes, once per divisor
    tasks.append(_cli_task(q, 1, q * (q - 1) // 2 * len(divisors)))
    return tasks


# ---------------------------------------------------------------- geometry


def _descartes_oracle(xs, value):
    """value == (sum x)^(q-1) - sum x^(q-1), checked after clearing the
    denominators: with B = prod b_i and x_i = a_i/b_i, the form times
    B^(q-1) is S^(q-1) - sum (a_i B/b_i)^(q-1), S = sum a_i B/b_i."""
    gf = xs[0].gf
    e = gf.q - 1
    parts = []
    for i, x in enumerate(xs):
        t = x.num
        for j, y in enumerate(xs):
            if j != i:
                t = t * y.den
        parts.append(t)
    B = Poly.one(gf)
    for x in xs:
        B = B * x.den
    S = Poly.zero(gf)
    for t in parts:
        S = S + t
    rhs = S ** e
    for t in parts:
        rhs = rhs - t ** e
    return value.num * B ** e == value.den * rhs


def _descartes_task(xs, tangent):
    def run():
        return descartes_form(xs)

    def check(value):
        if tangent and not value.is_zero():
            return _fail("Descartes form is nonzero on a tangent family")
        if not _descartes_oracle(xs, value):
            return _fail("Descartes form disagrees with its definition")
        return None

    kind = "descartes_tangent" if tangent else "descartes_other"
    return Task(kind, ";".join(str(x) for x in xs), run, check)


def _ball(gf, radius):
    base = TreeVertex.base(gf)
    ball = {base}
    frontier = [base]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for n in tree_neighbors(v):
                if n not in ball:
                    ball.add(n)
                    nxt.append(n)
        frontier = nxt
    return sorted(ball, key=lambda v: v.label())


def _bfs(src, ball):
    # geodesics between two vertices of a ball stay inside it (a tree)
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for n in tree_neighbors(v):
                if n in ball and n not in dist:
                    dist[n] = dist[v] + 1
                    nxt.append(n)
        frontier = nxt
    return dist


def _tree_task(src, targets, ball):
    def run():
        return [tree_distance(src, t) for t in targets]

    def check(out):
        dist = _bfs(src, ball)
        for t, d in zip(targets, out):
            if d != dist[t]:
                return _fail(f"distance to {t.label()} is {d}, BFS gives {dist[t]}")
        return None

    return Task("tree_distance", f"src={src.label()}", run, check)


def _ray_task(f, steps):
    gf = f.gf

    def run():
        return geodesic_ray(f, steps)

    def check(ray):
        if len(ray) != steps + 1 or ray[0] != TreeVertex.base(gf):
            return _fail("ray has the wrong length or does not start at the base vertex")
        for i in range(steps):
            if ray[i + 1] not in tree_neighbors(ray[i]):
                return _fail(f"step {i} is not an edge")
            if i + 2 <= steps and ray[i + 2] == ray[i]:
                return _fail(f"ray backtracks at step {i}")
        # the ray leaves the base through its ancestors down to the level
        # where base and f meet, min(0, v(f)), then climbs through the
        # classes f mod pi^n: v(num - den*C) >= n - deg den
        levels = [v.level for v in ray]
        turn = levels.index(min(levels))
        if any(ray[i] != TreeVertex(gf, -i, {}) for i in range(turn + 1)):
            return _fail("the ray does not leave through the base's ancestors")
        if f.is_infinity():
            return None if turn == steps else _fail("the ray to infinity turns back")
        vf = f.den.degree - f.num.degree if not f.num.is_zero() else 0
        if levels[turn] != max(min(0, vf), -steps):
            return _fail(f"the ray turns at level {levels[turn]}, v(f) = {vf}")
        num, den = InfLaurent.from_poly(f.num), InfLaurent.from_poly(f.den)
        for v in ray[turn:]:
            r = num - den * InfLaurent.from_terms(gf, dict(v.cls))
            if not r.is_zero() and r.valuation() < v.level - f.den.degree:
                return _fail(f"vertex {v.label()} is not f mod pi^{v.level}")
        return None

    return Task("ray", f"f={f} steps={steps}", run, check)


def _rand_fraction(gf, rng, den_deg):
    return Fraction(rand_exact_deg(gf, rng, 2), rand_exact_deg(gf, rng, den_deg, monic=True))


def _tangent_family(gf, rng, da, dc):
    """The q + 1 members spanned by a/c and b/d with ad - bc = 1, for a and c
    of the given degrees (the Descartes form's cost grows steeply with them)."""
    while True:
        a, c = rand_exact_deg(gf, rng, da), rand_exact_deg(gf, rng, dc)
        g, x, y = poly_ext_gcd(a, c)
        if g.degree != 0:
            continue
        inv = gf.inv(g.lc)
        f1, f2 = Fraction(a, c), Fraction(y.scale(gf.neg(inv)), x.scale(inv))
        if f2.is_infinity() or f1 == f2:
            continue
        fam = tangent_family(f1, f2)
        if not any(m.is_infinity() for m in fam):
            return fam


# q -> (tangent, other, tree, ray, ball radius); tangent families cycle through
# the degree pairs below, other tuples through denominator degrees 0-2
GEOMETRY_COUNTS = {
    3: (60, 60, 25, 25, 4),
    4: (30, 30, 25, 25, 3),
    5: (40, 40, 25, 25, 3),
}
FAMILY_DEGREES = ((1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3), (1, 3), (3, 1), (2, 2))


def geometry_tasks(rng, fields):
    tasks = []
    for q, (n_tan, n_other, n_tree, n_ray, radius) in GEOMETRY_COUNTS.items():
        gf = fields[q]
        for i in range(n_tan):
            fam = _tangent_family(gf, rng, *FAMILY_DEGREES[i % len(FAMILY_DEGREES)])
            tasks.append(_descartes_task(fam, True))
        for i in range(n_other):
            xs = [_rand_fraction(gf, rng, (i + j) % 3) for j in range(q + 1)]
            tasks.append(_descartes_task(xs, False))
        ball = _ball(gf, radius)
        ball_set = set(ball)
        for _ in range(n_tree):
            tasks.append(_tree_task(rng.choice(ball), rng.sample(ball, 20), ball_set))
        for i in range(n_ray):
            f = Fraction.infinity(gf) if i % 10 == 0 else _rand_fraction(gf, rng, i % 3)
            tasks.append(_ray_task(f, 4 + i % 7))
    return tasks


MAKERS = {
    "quotient": quotient_tasks,
    "infinity": infinity_tasks,
    "symbols": symbols_tasks,
    "geometry": geometry_tasks,
}


def build(name, seed, fields):
    """Every task of the workload's batch, from the seed alone."""
    rng = random.Random(f"{name}:{seed}")
    return MAKERS[name](rng, fields)
