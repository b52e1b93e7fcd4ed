"""Acceptance gate: fourteen end-to-end criteria, one printed line each.

Each test records a ``criterion NN <name>: PASS|FAIL`` line (echoed in the
terminal summary by conftest) and then asserts, so the gate is readable from
the test log even on a fully green run.
"""

import functools
import random

import pytest

from conftest import all_polys, det, field, rand_poly
from carlitz.analytic import Lattice, SeriesBudget, carlitz_exp, eisenstein, period_partial
from carlitz.errors import BelowPrecision
from carlitz.geometry import (
    Fraction,
    TreeVertex,
    descartes_form,
    galois_embed,
    normal_basis,
    random_tangent_family,
    tree_distance,
    tree_neighbors,
)
from carlitz.operator import carlitz_act, carlitz_operator, cyclotomic_poly
from carlitz.padic import PadicCtx
from carlitz.poly import Poly, is_irreducible, monic_irreducibles, parse_poly, poly_gcd
from carlitz.reciprocity import (
    check_reciprocity,
    kummer_map,
    kummer_solve,
    newton_polygon,
    residue_degree_cyclotomic,
    residue_degree_kummer,
    xi_poly,
)
from carlitz.residues import ddf
from carlitz.series import InfLaurent, VqElem
from carlitz.torsion import (
    dirichlet_approx,
    divide_T,
    division_chain,
    torsion_padic,
    torsion_vq,
)

# the criteria reuse torsion sets, which are pure functions of (M, prec)
torsion_vq_cached = functools.lru_cache(maxsize=None)(torsion_vq)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {name}: {status}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    from conftest import ACCEPTANCE_LINES

    ACCEPTANCE_LINES.append(line)
    assert ok, line


def valuation_or_inf(x):
    try:
        return x.valuation()
    except BelowPrecision:
        return float("inf")


def monic_nonconstant(gf, max_deg):
    out = []
    for d in range(1, max_deg + 1):
        for low in all_polys(gf, d - 1):
            coeffs = list(low.coeffs) + [0] * (d - len(low.coeffs)) + [1]
            out.append(Poly(gf, coeffs))
    return out


# ---------------------------------------------------------------- 1


def test_criterion_01_module_axioms():
    checked = 0
    failures = 0
    for q in (2, 3, 4, 5):
        gf = field(q)
        rng = random.Random(q)
        P = next(f for f in monic_irreducibles(gf, 2) if f.degree == 2)
        ctx = PadicCtx(P, 4)
        # bulk: degree-5 operands verified in an exact quotient of F_q[T],
        # where the huge operator coefficients stay reduced
        for _ in range(1000):
            M = rand_poly(gf, rng, 5)
            N = rand_poly(gf, rng, 5)
            u = ctx.elem(rand_poly(gf, rng, 7))
            ok = (
                carlitz_act(M + N, u) == carlitz_act(M, u) + carlitz_act(N, u)
                and carlitz_act(M * N, u) == carlitz_act(M, carlitz_act(N, u))
            )
            checked += 1
            failures += not ok
        # spot checks on full polynomials, degree kept small so the exact
        # coefficients stay printable
        for _ in range(50):
            M = rand_poly(gf, rng, 2)
            N = rand_poly(gf, rng, 2)
            u = rand_poly(gf, rng, 3)
            ok = (
                carlitz_act(M + N, u) == carlitz_act(M, u) + carlitz_act(N, u)
                and carlitz_act(M * N, u) == carlitz_act(M, carlitz_act(N, u))
            )
            checked += 1
            failures += not ok
    report(1, "module axioms", failures == 0, f"{checked} triples, {failures} failures")


# ---------------------------------------------------------------- 2


def test_criterion_02_coefficient_degrees():
    bad = []
    for q in (2, 3):
        gf = field(q)
        for M in all_polys(gf, 4):
            if M.is_zero():
                continue
            d = M.degree
            for i, c in enumerate(carlitz_operator(M).coeffs):
                if c.degree != (d - i) * q**i:
                    bad.append((q, str(M), i))
    report(2, "operator coefficient degrees", not bad, f"{len(bad)} violations")


# ---------------------------------------------------------------- 3


def test_criterion_03_padic_torsion():
    ok = True
    detail = []
    for q in (2, 3, 4):
        gf = field(q)
        for P in monic_irreducibles(gf, 2):
            ts = torsion_padic(P, 8)
            pts = list(ts)
            expected = q ** P.degree
            good = len(pts) == expected
            order = P - Poly.one(gf)
            good = good and all(carlitz_act(order, x).is_zero() for x in pts)
            good = good and all((a + b) in ts for a in pts for b in pts)
            rng = random.Random(hash((q, str(P))) & 0xFFFF)
            for _ in range(10):
                A = rand_poly(gf, rng, 3)
                good = good and all(carlitz_act(A, x) in ts for x in pts)
            if not good:
                ok = False
                detail.append(f"q={q} P={P}")
    report(3, "P-adic torsion modules", ok, "; ".join(detail) or "all primes deg <= 2, N = 8")


# ---------------------------------------------------------------- 4


def test_criterion_04_no_torsion_at_infinity():
    ok = True
    count = 0
    for q, sample in ((3, None), (5, 10)):
        gf = field(q)
        ms = monic_nonconstant(gf, 3)
        if sample is not None:
            rng = random.Random(q)
            ms = [m for m in ms if m.degree <= 2] + rng.sample(
                [m for m in ms if m.degree == 3], sample
            )
        for M in ms:
            prec = 2 * (M.degree - 1) * (q - 1) + q
            ts = torsion_vq_cached(M, prec)
            count += 1
            for p in ts:
                v = valuation_or_inf(p)
                if v == float("inf"):
                    continue
                if v < -1 or (v + 1) % (q - 1) != 0:
                    ok = False
    report(4, "no torsion over the infinity-adic base", ok, f"{count} orders checked")


# ---------------------------------------------------------------- 5


def test_criterion_05_reciprocity_exhaustive():
    bad = 0
    total = 0
    for q in (3, 5):
        gf = field(q)
        irr = monic_irreducibles(gf, 3)
        divisors = [d for d in range(1, q) if (q - 1) % d == 0]
        for P in irr:
            for Q in irr:
                if P == Q:
                    continue
                for d in divisors:
                    total += 1
                    if not check_reciprocity(P, Q, d)[2]:
                        bad += 1
    report(5, "power reciprocity", bad == 0, f"{total} ordered pairs, {bad} violations")


# ---------------------------------------------------------------- 6


def test_criterion_06_splitting_oracles():
    gf = field(3)
    one = Poly.one(gf)
    primes = monic_irreducibles(gf, 3)
    bad = 0
    total = 0
    # radical side: any A coprime to P, every divisor d of q - 1
    for P in primes:
        for A in all_polys(gf, 2):
            if A.is_zero() or poly_gcd(A, P).degree != 0:
                continue
            for d in (1, 2):
                f = residue_degree_kummer(A, P, d)
                xpoly = [Poly.zero(gf)] * (d + 1)
                xpoly[0] = A.scale(gf.neg(1))
                xpoly[d] = one
                total += 1
                if not all(e == f for e, _ in ddf(xpoly, P)):
                    bad += 1
    # division-point side, restricted to prime-power conductors A (the
    # division polynomial implemented is the prime-power one)
    linears = [f for f in primes if f.degree == 1]
    conductors = [(L, 1) for L in primes if L.degree <= 2] + [(L, 2) for L in linears]
    for P in primes:
        for L, n in conductors:
            A = L**n
            if poly_gcd(A, P).degree != 0:
                continue
            f = residue_degree_cyclotomic(P, A)
            psi = cyclotomic_poly(L, n)
            total += 1
            if not all(e == f for e, _ in ddf(list(psi.coeffs), P)):
                bad += 1
    report(6, "splitting oracles", bad == 0, f"{total} cases, {bad} mismatches")


# ---------------------------------------------------------------- 7


def test_criterion_07_newton_polygons():
    ok = True
    for q in (2, 3):
        gf = field(q)
        for A in monic_nonconstant(gf, 3):
            r = A.degree
            np_ = newton_polygon(xi_poly(A))
            allowed = {((q**i - 1) // (q - 1), -(r - i) * q**i) for i in range(r + 1)}
            if not set(map(tuple, np_.vertices)) <= allowed:
                ok = False
            # slopes against actual torsion valuations
            prec = 2 * max(1, (r - 1) * (q - 1)) + q
            ts = torsion_vq_cached(A, prec)
            got = sorted(valuation_or_inf(p) for p in ts if not p.is_zero())
            want = []
            for s, l in np_.segments:
                want += [-int(s)] * (int(l) * (q - 1))
            if got != sorted(want):
                ok = False
    report(7, "newton polygons of the division form", ok)


# ---------------------------------------------------------------- 8


def random_kummer_input(gf, rng, prec_s):
    # a random element of the image of the (q-1)-power map: a polynomial
    # leading part times a 1-unit supported on the exponent lattice
    q = gf.q
    f = rand_poly(gf, rng, 3, nonzero=True)
    u = VqElem.from_poly(f)
    tail = {0: 1}
    for j in range(1, prec_s // (q - 1) + 1):
        tail[(q - 1) * j] = rng.randrange(q)
    return (u * VqElem.from_terms(gf, tail)).truncate(prec_s + u.v)


def test_criterion_08_kummer_closure():
    ok = True
    for q in (3, 5):
        gf = field(q)
        rng = random.Random(88 + q)
        for _ in range(100):
            u = random_kummer_input(gf, rng, 40)
            M = kummer_map(u)
            y = kummer_solve(M)
            back = kummer_map(y)
            upto = min(x for x in (back.prec, M.prec, 12) if x is not None)
            if not back.agrees(M, upto=upto):
                ok = False
        # the map is defined on every torsion point of small order
        for M in monic_nonconstant(gf, 2):
            prec = 2 * (q - 1) + q
            for p in torsion_vq_cached(M, prec):
                if p.is_zero():
                    continue
                kummer_map(p)  # must not raise
    report(8, "kummer closure", ok, "map . solve = id at 40 s-digits")


# ---------------------------------------------------------------- 9


def test_criterion_09_descartes():
    ok = True
    nonzero_seen = {}
    for q in (2, 3, 4, 5):
        gf = field(q)
        rng = random.Random(q * 7)
        for _ in range(200):
            if not descartes_form(random_tangent_family(gf, rng)).is_zero():
                ok = False
        # sanity direction: generic non-tangent tuples are detected.  For
        # q = 2 the form (sum)^1 - sum is identically zero, so the
        # detection direction only exists for q >= 3.
        if q >= 3:
            hits = 0
            for _ in range(200):
                xs = []
                while len(xs) < q + 1:
                    f = Fraction(
                        rand_poly(gf, rng, 2), rand_poly(gf, rng, 2, nonzero=True)
                    )
                    if not f.is_infinity():
                        xs.append(f)
                if not descartes_form(xs).is_zero():
                    hits += 1
            nonzero_seen[q] = hits
            if hits == 0:
                ok = False
    from carlitz.geometry import soddy_form

    if soddy_form(2, (-1, 2, 2, 3)) != 0:
        ok = False
    report(9, "descartes-type form", ok, f"nonzero hits {nonzero_seen}")


# ---------------------------------------------------------------- 10


def test_criterion_10_tree_metric():
    ok = True
    for q in (2, 3):
        gf = field(q)
        base = TreeVertex(gf, 0, {})
        ball = {base.label(): base}
        frontier = [base]
        for _ in range(4):
            nxt = []
            for v in frontier:
                for n in tree_neighbors(v):
                    if n.label() not in ball:
                        ball[n.label()] = n
                        nxt.append(n)
            frontier = nxt
        # regularity
        for v in ball.values():
            nbrs = tree_neighbors(v)
            if len(nbrs) != q + 1 or len({n.label() for n in nbrs}) != q + 1:
                ok = False
        # all-pairs distance against breadth-first search inside the ball
        # (geodesics between ball vertices stay in the ball)
        adj = {
            lbl: [n.label() for n in tree_neighbors(v) if n.label() in ball]
            for lbl, v in ball.items()
        }
        for src_lbl, src in ball.items():
            dist = {src_lbl: 0}
            queue = [src_lbl]
            while queue:
                cur, queue = queue[0], queue[1:]
                for n in adj[cur]:
                    if n not in dist:
                        dist[n] = dist[cur] + 1
                        queue.append(n)
            for tgt_lbl, tgt in ball.items():
                if tree_distance(src, tgt) != dist[tgt_lbl]:
                    ok = False
    report(10, "tree regularity and metric", ok, "radius-4 balls, q in {2, 3}")


# ---------------------------------------------------------------- 11


def test_criterion_11_division_tower():
    gf = field(3)
    q = 3
    ok = True
    # exactly q branches, pairwise differing by the T-torsion points z*s^-1
    ts = torsion_vq_cached(parse_poly("T^2", gf), 30)
    u = next(p for p in ts if valuation_or_inf(p) == 1)
    branches = divide_T(u)
    if len(branches) != q:
        ok = False
    for i, a in enumerate(branches):
        for b in branches[i + 1:]:
            d = a - b
            if valuation_or_inf(d) != -1 or d.digit(-1) == 0:
                ok = False
    # iterated division: valuations eventually step by exactly q - 1
    rng = random.Random(41)
    starts = [
        p
        for M in ("T", "T^2", "T^2+1", "T^2+T")
        for p in torsion_vq_cached(parse_poly(M, gf), 30)
        if not p.is_zero()
    ]
    for u in rng.sample(starts, 20):
        chain = division_chain(u.truncate(28), 10)
        vals = [valuation_or_inf(v) for v in chain]
        vals = [valuation_or_inf(u)] + vals
        diffs = [b - a for a, b in zip(vals, vals[1:])]
        # allow a settling prefix, then require increments of exactly q - 1
        tail = diffs[2:]
        if not all(d == q - 1 for d in tail) or not all(d > 0 for d in diffs[1:]):
            ok = False
    report(11, "division tower", ok, "20 chains of depth 10")


# ---------------------------------------------------------------- 12


def test_criterion_12_dirichlet_bound():
    gf = field(3)
    q = 3
    rng = random.Random(12)
    pool = [
        p
        for p in torsion_vq_cached(parse_poly("T^5", gf), 60)
        if valuation_or_inf(p) == -1
    ]
    ok = True
    tested = 0
    for lam in rng.sample(pool, 50):
        for n in (2, 3, 4):
            order, best = dirichlet_approx(lam, n)
            diff = best - lam
            dv = valuation_or_inf(diff)
            if dv == float("inf"):
                dv = diff.prec
            bound = (n - 1) * (q - 1) - 1
            tested += 1
            if not dv > bound:
                ok = False
            # cross-check optimality: no torsion point of the same order
            # does strictly better (agreement below precision counts as
            # agreement exactly to the precision window)
            others = torsion_vq_cached(order, 60)
            for p in others:
                d2 = p - lam
                v2 = valuation_or_inf(d2)
                if v2 == float("inf"):
                    v2 = d2.prec
                if v2 > dv:
                    ok = False
    report(12, "dirichlet-type approximation", ok, f"{tested} approximations")


# ---------------------------------------------------------------- 13


def test_criterion_13_analytic_series():
    gf = field(3)
    T = Poly.T(gf)
    ok = True
    rng = random.Random(13)
    budget = SeriesBudget(term_count=8, degree_bound=4, precision=36)
    for _ in range(20):
        z = VqElem.from_terms(
            gf, {k: rng.randrange(3) for k in range(1, 8)}, prec=50
        )
        if z.is_zero():
            continue
        lhs = carlitz_exp(VqElem.from_poly(T) * z, budget)
        rhs = carlitz_act(T, carlitz_exp(z, budget))
        if not lhs.agrees(rhs, upto=min(lhs.prec, rhs.prec, 30)):
            ok = False
    # partial products for the period form a fast Cauchy sequence
    expansions = [period_partial(gf, N, prec=1500)[1] for N in range(1, 7)]
    diffs = [(b - a).valuation() for a, b in zip(expansions, expansions[1:])]
    if diffs != sorted(set(diffs)) or any(
        b <= a for a, b in zip(diffs, diffs[1:])
    ):
        ok = False
    # eisenstein scaling is exact
    L = Lattice([VqElem.monomial(gf, 1, -1)])
    c = VqElem.from_poly(parse_poly("T+1", gf))
    E = eisenstein(L, 2, SeriesBudget(precision=24))
    Ec = eisenstein(L.scaled(c), 2, SeriesBudget(precision=24))
    scaled = E * (c.inverse(prec=30) ** 4)
    if not Ec.agrees(scaled, upto=min(Ec.prec, scaled.prec, 18)):
        ok = False
    report(13, "analytic series", ok, f"period cauchy valuations {diffs}")


# ---------------------------------------------------------------- 14


def test_criterion_14_normal_basis():
    ok = True
    for q in (3, 4, 5, 7):
        gf = field(q)
        data = normal_basis(gf)
        if data.det_valuation != 0 or det(gf, data.change_matrix) == 0:
            ok = False
        mats = galois_embed(gf)
        n = q - 1
        if len(mats) != n:
            ok = False
            continue

        def mul(A, B):
            return tuple(
                tuple(sum(A[i][k] * B[k][j] for k in range(n)) % gf.p for j in range(n))
                for i in range(n)
            )

        key = {tuple(tuple(r) for r in m): i for i, m in enumerate(mats)}
        for a in range(n):
            for b in range(n):
                if key.get(mul(mats[a], mats[b])) != (a + b) % n:
                    ok = False
    report(14, "normal basis and galois embedding", ok, "q in {3, 4, 5, 7}")
