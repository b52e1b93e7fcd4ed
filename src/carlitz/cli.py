"""Command-line frontend.

Every library operation is exposed as a subcommand with exact text/JSON
output; batch ``sweep`` commands drive the exhaustive law checks.  Exit codes:
0 success, 1 domain/computation error, 2 usage error.  The environment
variable CARLITZ_MAX_DEG caps enumeration bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction as Rational
from itertools import accumulate

from . import analytic, geometry, reciprocity, torsion
from .errors import CarlitzError, DomainError, PrecisionError
from .gf import GF, MAX_PRIME
from .operator import carlitz_act, carlitz_operator, cyclotomic_poly
from .poly import Poly, RatFn, monic_irreducibles, parse_int, parse_poly, prime_divisors
from .series import InfLaurent, VqElem, parse_series


class UsageError(Exception):
    pass


DEFAULT_MAX_DEG = 6

# The most work `sweep --kind splitting` takes on, in units of (x-degree of
# psi_A)^2 summed over the ordered pairs (P, A): --q 3 --max-deg 3 is 72956
# (about 0.8 s), --q 9 --max-deg 2 is about 10^7 (about a minute, from four
# timed pairs per pair of degrees; Python 3.11, 2-vCPU x86-64).
MAX_SPLITTING_WORK = 10**5

# The most rows `sweep --kind reciprocity` writes, one per pair of monic
# irreducibles and divisor d of q - 1: --q 101 --max-deg 1 is 45450 rows
# (about 0.9 s), --q 9 --max-deg 3 is 161880 (about 7 s), --q 65537
# --max-deg 1 would be about 3.6 * 10^10.
MAX_RECIPROCITY_ROWS = 2 * 10**5


def integer(text: str) -> int:
    """An integer option: ASCII digits with an optional leading minus."""
    return parse_int(text.strip(), signed=True)


def max_deg_cap() -> int:
    raw = os.environ.get("CARLITZ_MAX_DEG")
    if raw is None:
        return DEFAULT_MAX_DEG
    try:
        return integer(raw)
    except ValueError:
        raise UsageError(f"CARLITZ_MAX_DEG={raw!r} is not an integer")


def rational(text: str) -> Rational:
    """A rational entry: a or a/b in ASCII digits, a after an optional minus
    and b nonzero."""
    num, slash, den = text.strip().partition("/")
    a, b = parse_int(num, signed=True), parse_int(den) if slash else 1
    if b == 0:
        raise UsageError(f"zero denominator in {text.strip()!r}")
    return Rational(a, b)


def check_cap(deg: int, what: str):
    """An enumeration bound from 0 up to the cap."""
    if deg < 0:
        raise UsageError(f"{what} degree {deg} is negative")
    cap = max_deg_cap()
    if deg > cap:
        raise UsageError(
            f"{what} degree {deg} exceeds the enumeration cap {cap} "
            "(raise CARLITZ_MAX_DEG to override)"
        )


def build_gf(args) -> GF:
    q = args.q
    p, r = _prime_power(q)
    modulus = None
    if getattr(args, "modulus", None):
        modulus = [integer(c) for c in args.modulus.split(",")]
    return GF(p, r, modulus)


def _prime_power(q: int):
    if q > MAX_PRIME:
        raise DomainError(f"q = {q} is above the supported maximum 2^40")
    primes = prime_divisors(q)  # none for q < 2
    if len(primes) != 1:
        raise UsageError(f"q = {q} is not a prime power")
    p, r = primes[0], 1
    while p**r < q:
        r += 1
    return p, r


def _unwrap(side: str) -> str:
    """side without one pair of parentheses that encloses all of it."""
    side = side.strip()
    depth = list(accumulate((ch == "(") - (ch == ")") for ch in side))
    return side[1:-1] if side[:1] == "(" and side[-1:] == ")" and 0 not in depth[:-1] else side


def parse_fraction(s: str, gf) -> RatFn:
    s = s.strip()
    if s in ("inf", "infinity", "1/0"):
        return RatFn.infinity(gf)
    if "/" in s:
        num, den = s.split("/", 1)
        return RatFn(parse_poly(_unwrap(num), gf), parse_poly(_unwrap(den), gf))
    return RatFn.from_poly(parse_poly(s, gf))


def _form_text(x: RatFn) -> str:
    """The (num)/(den) text of a Descartes or period value."""
    if x.den == Poly.one(x.gf):
        return str(x.num)
    return f"({x.num})/({x.den})"


def emit(args, payload: dict, text_lines):
    if args.output == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------- commands


def cmd_act(args):
    gf = build_gf(args)
    M = parse_poly(args.M, gf)
    u = parse_poly(args.u, gf)
    out = carlitz_act(M, u)
    emit(args, {"result": str(out)}, [str(out)])


def cmd_operator(args):
    gf = build_gf(args)
    M = parse_poly(args.M, gf)
    op = carlitz_operator(M)
    coeffs = [str(c) for c in op.coeffs]
    emit(args, {"coeffs": coeffs}, ["; ".join(coeffs)])


def cmd_cyclotomic(args):
    gf = build_gf(args)
    P = parse_poly(args.P, gf)
    out = cyclotomic_poly(P, args.n)
    emit(args, {"poly": str(out)}, [str(out)])


def cmd_torsion_padic(args):
    gf = build_gf(args)
    P = parse_poly(args.P, gf)
    check_cap(P.degree, "prime")
    ts = torsion.torsion_padic(P, args.N)
    pts = sorted(str(x) for x in ts)
    emit(args, json.loads(ts.to_json()), pts)


def cmd_torsion_vq(args):
    gf = build_gf(args)
    M = parse_poly(args.M, gf)
    check_cap(M.degree, "order")
    prec = args.prec if args.prec is not None else torsion.min_separating_prec(M) + gf.q
    ts = torsion.torsion_vq(M, prec)
    pts = sorted(str(x) for x in ts)
    emit(args, json.loads(ts.to_json()), pts)


def cmd_divide_t(args):
    gf = build_gf(args)
    u = parse_series(args.u, gf, VqElem)
    branches = torsion.divide_T(u, prec=args.prec)
    lines = [str(b) for b in branches]
    emit(args, {"branches": lines}, lines)


def cmd_completed_act(args):
    gf = build_gf(args)
    M = parse_series(args.M, gf, InfLaurent)
    u = parse_series(args.u, gf, VqElem)
    out = torsion.completed_action(M, u)
    emit(args, {"result": str(out)}, [str(out)])


def cmd_dirichlet(args):
    gf = build_gf(args)
    lam = parse_series(args.target, gf, VqElem)
    Mn, ln = torsion.dirichlet_approx(lam, args.n)
    emit(
        args,
        {"M": str(Mn), "approximant": str(ln)},
        [f"M_n = {Mn}", f"lambda_n = {ln}"],
    )


def cmd_symbol(args):
    gf = build_gf(args)
    A = parse_poly(args.A, gf)
    P = parse_poly(args.P, gf)
    val = reciprocity.residue_symbol(A, P, args.d)
    emit(args, {"symbol": gf.fmt_elem(val)}, [gf.fmt_elem(val)])


def cmd_reciprocity(args):
    gf = build_gf(args)
    P = parse_poly(args.P, gf)
    Q = parse_poly(args.Q, gf)
    lhs, rhs, holds = reciprocity.check_reciprocity(P, Q, args.d)
    emit(
        args,
        {"lhs": gf.fmt_elem(lhs), "rhs": gf.fmt_elem(rhs), "holds": holds},
        [f"lhs = {gf.fmt_elem(lhs)}", f"rhs = {gf.fmt_elem(rhs)}", f"holds = {holds}"],
    )


def cmd_split_kummer(args):
    gf = build_gf(args)
    A = parse_poly(args.A, gf)
    P = parse_poly(args.P, gf)
    f = reciprocity.residue_degree_kummer(A, P, args.d)
    emit(args, {"residue_degree": f}, [str(f)])


def cmd_split_cyclotomic(args):
    gf = build_gf(args)
    P = parse_poly(args.P, gf)
    A = parse_poly(args.A, gf)
    f = reciprocity.residue_degree_cyclotomic(P, A)
    emit(args, {"residue_degree": f}, [str(f)])


def cmd_xi(args):
    gf = build_gf(args)
    A = parse_poly(args.A, gf)
    out = reciprocity.xi_poly(A)
    emit(args, {"poly": str(out)}, [str(out)])


def cmd_newton(args):
    gf = build_gf(args)
    A = parse_poly(args.A, gf)
    np = reciprocity.newton_polygon(reciprocity.xi_poly(A))
    verts = [[int(x), int(y)] for x, y in np.vertices]
    segs = [[str(s), str(l)] for s, l in np.segments]
    emit(
        args,
        {"vertices": verts, "segments": segs},
        [f"vertices: {verts}", f"segments (slope, length): {segs}"],
    )


def cmd_kummer(args):
    gf = build_gf(args)
    if args.kummer_cmd == "map":
        u = parse_series(args.u, gf, VqElem)
        out = reciprocity.kummer_map(u)
        emit(args, {"image": str(out)}, [str(out)])
    else:
        M = parse_series(args.M, gf, InfLaurent)
        out = reciprocity.kummer_solve(M)
        emit(args, {"root": str(out)}, [str(out)])


def cmd_star(args):
    gf = build_gf(args)
    A = parse_poly(args.A, gf)
    nu = parse_series(args.nu, gf, InfLaurent)
    out = reciprocity.star_action(A, nu)
    emit(args, {"result": str(out)}, [str(out)])


def cmd_tangent(args):
    gf = build_gf(args)
    f1 = parse_fraction(args.f1, gf)
    f2 = parse_fraction(args.f2, gf)
    res = geometry.tangent(f1, f2)
    emit(args, {"tangent": res}, [str(res).lower()])


def cmd_family(args):
    gf = build_gf(args)
    f1 = parse_fraction(args.f1, gf)
    f2 = parse_fraction(args.f2, gf)
    fam = geometry.tangent_family(f1, f2)
    lines = [str(m) for m in fam]
    emit(args, {"members": lines}, lines)


def _descartes_rows(gf, seed: int, count: int):
    """(members, form, zero) for each of count random tangent families drawn
    from one seeded generator: the rows of both Descartes sweeps."""
    if count < 0:
        raise UsageError(f"count {count} is negative")
    rng = random.Random(seed)
    for _ in range(count):
        fam = geometry.random_tangent_family(gf, rng)
        val = geometry.descartes_form(fam)
        yield ";".join(str(m) for m in fam), _form_text(val), val.is_zero()


def cmd_descartes(args):
    gf = build_gf(args)
    if args.descartes_cmd == "family":
        f1 = parse_fraction(args.f1, gf)
        f2 = parse_fraction(args.f2, gf)
        fam = geometry.tangent_family(f1, f2)
        val = geometry.descartes_form(fam)
        form = _form_text(val)
        emit(
            args,
            {"members": [str(m) for m in fam], "form": form, "zero": val.is_zero()},
            [str(m) for m in fam] + [f"form = {form}", f"zero = {val.is_zero()}"],
        )
    elif args.descartes_cmd == "eval":
        xs = [parse_fraction(s, gf) for s in args.curvatures.split(";")]
        val = geometry.descartes_form(xs)
        form = _form_text(val)
        emit(args, {"form": form, "zero": val.is_zero()}, [form])
    else:  # sweep
        rows = sorted(_descartes_rows(gf, args.seed, args.count))
        for members, form, zero in rows:
            print(f"{members}\t{form}\t{'zero' if zero else 'NONZERO'}")
        bad = sum(1 for row in rows if not row[2])
        if bad:
            raise CarlitzError(f"{bad} of {args.count} families violate the form")


def cmd_soddy(args):
    ks = [rational(x) for x in args.ks.split(",")]
    val = geometry.soddy_form(args.n, ks)
    emit(args, {"form": str(val), "zero": val == 0}, [str(val)])


def _parse_vertex(s: str, gf) -> geometry.TreeVertex:
    # format: level;series  (series in the T-digit format, possibly 0)
    level_s, _, ser_s = s.partition(";")
    level = integer(level_s)
    digits = {}
    if ser_s.strip() not in ("", "0"):
        ser = parse_series(ser_s, gf, InfLaurent)
        digits = dict(ser.terms())
    return geometry.TreeVertex(gf, level, digits)


def cmd_tree(args):
    gf = build_gf(args)
    if args.tree_cmd == "neighbors":
        v = _parse_vertex(args.vertex, gf)
        lines = [n.label() for n in geometry.tree_neighbors(v)]
        emit(args, {"neighbors": lines}, lines)
    elif args.tree_cmd == "distance":
        v1 = _parse_vertex(args.v1, gf)
        v2 = _parse_vertex(args.v2, gf)
        d = geometry.tree_distance(v1, v2)
        emit(args, {"distance": d}, [str(d)])
    else:  # export
        radius = args.radius
        check_cap(radius, "radius")
        base = geometry.TreeVertex.base(gf)
        seen = {base: 0}
        frontier = [base]
        edges = set()
        while frontier:
            v = frontier.pop()
            if seen[v] >= radius:
                continue
            for w in geometry.tree_neighbors(v):
                edges.add(tuple(sorted((v.label(), w.label()))))
                if w not in seen:
                    seen[w] = seen[v] + 1
                    frontier.append(w)
        print("graph tree {")
        for v in sorted(seen, key=lambda x: (seen[x], x.label())):
            print(f'  "{v.label()}";')
        for a, b in sorted(edges):
            print(f'  "{a}" -- "{b}";')
        print("}")


def cmd_ray(args):
    gf = build_gf(args)
    f = parse_fraction(args.f, gf)
    verts = geometry.geodesic_ray(f, args.steps)
    lines = [v.label() for v in verts]
    emit(args, {"ray": lines}, lines)


def cmd_normal_basis(args):
    gf = build_gf(args)
    data = geometry.normal_basis(gf)
    emit(
        args,
        {
            "theta": str(data.theta),
            "conjugates": [str(c) for c in data.conjugates],
            "matrix": [[gf.fmt_elem(e) for e in row] for row in data.change_matrix],
            "det_valuation": data.det_valuation,
        },
        [f"theta = {data.theta}"]
        + [f"sigma^{j}(theta) = {c}" for j, c in enumerate(data.conjugates)]
        + [f"matrix = {data.change_matrix}", f"det valuation = {data.det_valuation}"],
    )


def cmd_exp(args):
    gf = build_gf(args)
    z = parse_series(args.z, gf, VqElem)
    budget = analytic.SeriesBudget(
        term_count=args.terms, precision=args.prec if args.prec is not None else 24
    )
    val, cert = analytic.carlitz_exp(z, budget, with_certificate=True)
    cert_s = {str(k): str(v) for k, v in cert.items()}
    emit(
        args,
        {"value": str(val), "certificate": cert_s},
        [str(val), json.dumps(cert_s, sort_keys=True)],
    )


def cmd_period(args):
    gf = build_gf(args)
    prec = args.prec if args.prec is not None else 16
    ratfn, series = analytic.period_partial(gf, args.N, prec=prec)
    exact = _form_text(ratfn)
    emit(
        args,
        {"ratfn": exact, "series": str(series)},
        [f"exact = {exact}", f"series = {series}"],
    )


def cmd_eisenstein(args):
    gf = build_gf(args)
    basis = [parse_series(s, gf, VqElem) for s in args.basis.split(";")]
    L = analytic.Lattice(basis)
    budget = analytic.SeriesBudget(
        degree_bound=args.degree_bound, precision=args.prec if args.prec is not None else 24
    )
    val, cert = analytic.eisenstein(L, args.k, budget, with_certificate=True)
    cert_s = {str(k): str(v) for k, v in cert.items()}
    emit(
        args,
        {"value": str(val), "certificate": cert_s},
        [str(val), json.dumps(cert_s, sort_keys=True)],
    )


def _irreducible_counts(q: int, max_deg: int) -> dict:
    """The number of monic irreducibles of each degree 1..max_deg, from
    q^d = sum over e | d of e N(e)."""
    count = {}
    for d in range(1, max_deg + 1):
        count[d] = (q**d - sum(e * n for e, n in count.items() if d % e == 0)) // d
    return count


def cmd_sweep(args):
    gf = build_gf(args)
    kind = args.kind
    check_cap(args.max_deg, "sweep")
    bad = 0
    rows = []
    if kind == "reciprocity":
        # the divisors of q - 1 from its primes, in no order: the rows are sorted
        divisors = [1]
        for l in prime_divisors(gf.q - 1):
            powers = [l**k for k in range(1, gf.q.bit_length()) if (gf.q - 1) % l**k == 0]
            divisors += [d * e for d in divisors for e in powers]
        n = sum(_irreducible_counts(gf.q, args.max_deg).values())
        count = n * (n - 1) // 2 * len(divisors)
        if count > MAX_RECIPROCITY_ROWS:
            raise UsageError(
                f"sweep 'reciprocity' row count {count} is above the cap {MAX_RECIPROCITY_ROWS} "
                "(lower --max-deg or --q)"
            )
        irr = list(monic_irreducibles(gf, args.max_deg))
        for i, P in enumerate(irr):
            for Q in irr[i + 1 :]:
                # one norm each way: the d-th symbol is the (q-1)-th raised
                # to (q-1)/d (Euler's criterion)
                pq1 = reciprocity.residue_symbol(P, Q, gf.q - 1)
                qp1 = reciprocity.residue_symbol(Q, P, gf.q - 1)
                for d in divisors:
                    pq, qp = gf.pow(pq1, (gf.q - 1) // d), gf.pow(qp1, (gf.q - 1) // d)
                    _, rhs, holds = reciprocity.reciprocity_sides(P, Q, d, pq, qp)
                    rows.append(
                        (str(P), str(Q), str(d), gf.fmt_elem(pq), gf.fmt_elem(qp), gf.fmt_elem(rhs), str(holds))
                    )
                    if not holds:
                        bad += 1
    elif kind == "descartes":
        for members, form, zero in _descartes_rows(gf, args.seed, args.count):
            rows.append((members, form, str(zero)))
            if not zero:
                bad += 1
    elif kind == "torsion":
        for P in monic_irreducibles(gf, args.max_deg):
            ts = torsion.torsion_padic(P, args.N)
            expected = gf.q ** P.degree
            ok = len(ts) == expected
            rows.append((str(P), str(len(ts)), str(expected), str(ok)))
            if not ok:
                bad += 1
    elif kind == "splitting":
        from .residues import ddf

        count = _irreducible_counts(gf.q, args.max_deg)
        work = (sum(count.values()) - 1) * sum(n * (gf.q**d - 1) ** 2 for d, n in count.items())
        if work > MAX_SPLITTING_WORK:
            raise UsageError(
                f"sweep 'splitting' work estimate {work} is above the cap {MAX_SPLITTING_WORK} "
                "(lower --max-deg or --q)"
            )
        irr = list(monic_irreducibles(gf, args.max_deg))
        for P in irr:
            for A in irr:
                if P == A:
                    continue
                f = reciprocity.residue_degree_cyclotomic(P, A)
                psi = cyclotomic_poly(A, 1)
                degs = ddf(list(psi.coeffs), P)
                ok = all(d == f for d, _ in degs)
                rows.append((str(P), str(A), str(f), str(degs), str(ok)))
                if not ok:
                    bad += 1
    else:
        raise UsageError(f"unknown sweep kind {kind!r}")
    for row in sorted(rows):
        print("\t".join(row))
    if bad:
        raise CarlitzError(f"{bad} rows violate the law in sweep {kind!r}")


# ---------------------------------------------------------------- parser


# Every subcommand: (name, handler, setup, nested), nested being None or the
# dest and the entries of its own subcommands.
SUBCOMMANDS = [
    ("act", cmd_act, lambda sp: (sp.add_argument("--M", required=True), sp.add_argument("--u", required=True)), None),
    ("operator", cmd_operator, lambda sp: sp.add_argument("--M", required=True), None),
    ("cyclotomic", cmd_cyclotomic, lambda sp: (sp.add_argument("--P", required=True), sp.add_argument("--n", type=integer, default=1)), None),
    ("torsion-padic", cmd_torsion_padic, lambda sp: (sp.add_argument("--P", required=True), sp.add_argument("--N", type=integer, default=6)), None),
    ("torsion-vq", cmd_torsion_vq, lambda sp: sp.add_argument("--M", required=True), None),
    ("divide-t", cmd_divide_t, lambda sp: sp.add_argument("--u", required=True), None),
    ("completed-act", cmd_completed_act, lambda sp: (sp.add_argument("--M", required=True), sp.add_argument("--u", required=True)), None),
    ("dirichlet", cmd_dirichlet, lambda sp: (sp.add_argument("--target", required=True), sp.add_argument("--n", type=integer, required=True)), None),
    ("symbol", cmd_symbol, lambda sp: (sp.add_argument("--A", required=True), sp.add_argument("--P", required=True), sp.add_argument("--d", type=integer, required=True)), None),
    ("reciprocity", cmd_reciprocity, lambda sp: (sp.add_argument("--P", required=True), sp.add_argument("--Q", required=True), sp.add_argument("--d", type=integer, required=True)), None),
    ("split-kummer", cmd_split_kummer, lambda sp: (sp.add_argument("--A", required=True), sp.add_argument("--P", required=True), sp.add_argument("--d", type=integer, required=True)), None),
    ("split-cyclotomic", cmd_split_cyclotomic, lambda sp: (sp.add_argument("--P", required=True), sp.add_argument("--A", required=True)), None),
    ("xi", cmd_xi, lambda sp: sp.add_argument("--A", required=True), None),
    ("newton", cmd_newton, lambda sp: sp.add_argument("--A", required=True), None),
    ("kummer", cmd_kummer, None, ("kummer_cmd", [
        ("map", cmd_kummer, lambda sp: sp.add_argument("--u", required=True), None),
        ("solve", cmd_kummer, lambda sp: sp.add_argument("--M", required=True), None),
    ])),
    ("star", cmd_star, lambda sp: (sp.add_argument("--A", required=True), sp.add_argument("--nu", required=True)), None),
    ("tangent", cmd_tangent, lambda sp: (sp.add_argument("--f1", required=True), sp.add_argument("--f2", required=True)), None),
    ("family", cmd_family, lambda sp: (sp.add_argument("--f1", required=True), sp.add_argument("--f2", required=True)), None),
    ("descartes", cmd_descartes, None, ("descartes_cmd", [
        ("family", cmd_descartes, lambda sp: (sp.add_argument("--f1", required=True), sp.add_argument("--f2", required=True)), None),
        ("eval", cmd_descartes, lambda sp: sp.add_argument("--curvatures", required=True, help="semicolon-separated fractions"), None),
        ("sweep", cmd_descartes, lambda sp: sp.add_argument("--count", type=integer, default=20), None),
    ])),
    ("soddy", cmd_soddy, lambda sp: (sp.add_argument("--n", type=integer, default=2), sp.add_argument("--ks", required=True)), None),
    ("tree", cmd_tree, None, ("tree_cmd", [
        ("neighbors", cmd_tree, lambda sp: sp.add_argument("--vertex", required=True, help="level;series"), None),
        ("distance", cmd_tree, lambda sp: (sp.add_argument("--v1", required=True), sp.add_argument("--v2", required=True)), None),
        ("export", cmd_tree, lambda sp: sp.add_argument("--radius", type=integer, default=2), None),
    ])),
    ("ray", cmd_ray, lambda sp: (sp.add_argument("--f", required=True), sp.add_argument("--steps", type=integer, default=5)), None),
    ("normal-basis", cmd_normal_basis, None, None),
    ("exp", cmd_exp, lambda sp: (sp.add_argument("--z", required=True), sp.add_argument("--terms", type=integer, default=10)), None),
    ("period", cmd_period, lambda sp: sp.add_argument("--N", type=integer, required=True), None),
    ("eisenstein", cmd_eisenstein, lambda sp: (sp.add_argument("--basis", required=True, help="semicolon-separated series"), sp.add_argument("--k", type=integer, default=1), sp.add_argument("--degree-bound", type=integer, default=3)), None),
    ("sweep", cmd_sweep, lambda sp: (sp.add_argument("--kind", required=True, choices=("reciprocity", "descartes", "torsion", "splitting")), sp.add_argument("--max-deg", type=integer, default=2), sp.add_argument("--count", type=integer, default=20), sp.add_argument("--N", type=integer, default=4)), None),
]


def build_parser(argv=()):
    """The parser of ``carlitz``.  When argv starts with a subcommand's name,
    only that subcommand and its nested ones are added: argparse hands the
    rest of argv to that one alone.  Any other argv gets all of them."""
    top = argparse.ArgumentParser(
        prog="carlitz",
        description="Exact arithmetic for the Carlitz module over F_q(T).",
    )

    def common(sp):
        sp.add_argument("--q", type=integer, default=3, help="field size, a prime power")
        sp.add_argument("--modulus", help="comma-separated F_p coefficients of the field modulus (r > 1)")
        sp.add_argument("--prec", type=integer, default=None, help="working precision")
        sp.add_argument("--seed", type=integer, default=0, help="PRNG seed for randomized sweeps")
        sp.add_argument("--output", choices=("text", "json"), default="text")

    def add(parent, name, fn, setup, nested):
        sp = parent.add_parser(name)
        common(sp)
        if setup:
            setup(sp)
        sp.set_defaults(fn=fn)
        if nested:
            dest, entries = nested
            sub = sp.add_subparsers(dest=dest, required=True)
            for entry in entries:
                add(sub, *entry)

    names = [entry[0] for entry in SUBCOMMANDS]
    only = argv[0] if argv and argv[0] in names else None
    # the top-level usage line, printed with an unrecognized argument, lists
    # every subcommand however many were added
    sub = top.add_subparsers(dest="command", required=True, metavar="{" + ",".join(names) + "}" if only else None)
    for entry in SUBCOMMANDS:
        if only in (None, entry[0]):
            add(sub, *entry)
    return top


def _emit_error(args, code: str, exc: Exception) -> None:
    if getattr(args, "output", "text") == "json":
        ctx = {}
        if isinstance(exc, PrecisionError) and exc.needed is not None:
            ctx["needed_precision"] = exc.needed
        print(
            json.dumps({"code": code, "message": str(exc), "context": ctx}),
            file=sys.stderr,
        )
    else:
        print(f"error[{code}]: {exc}", file=sys.stderr)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        args.fn(args)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # a closed pipe: stdout to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (UsageError, ValueError) as e:
        _emit_error(args, "usage", e)
        return 2
    except PrecisionError as e:
        _emit_error(args, "precision", e)
        return 1
    except (CarlitzError, DomainError) as e:
        _emit_error(args, "domain", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
