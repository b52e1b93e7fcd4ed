"""Command-line frontend.

Every library operation is exposed as a subcommand with exact text/JSON
output; batch ``sweep`` commands drive the exhaustive law checks.  Exit codes:
0 success, 1 domain/computation error, 2 usage error.  Each subcommand takes
only the options it reads, and one that lists rows, points or vertices
refuses a count above its cap before it lists any.  Each text option names
its grammar as its argparse type (a reader); ``main`` builds the field and
reads every such option in it, so the handlers take values.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction as Rational
from functools import partial
from itertools import accumulate
from math import comb

from . import analytic, geometry, reciprocity, torsion
from .errors import CarlitzError, DomainError, PrecisionError
from .gf import GF, MAX_PRIME
from .operator import carlitz_act, carlitz_operator, cyclotomic_poly
from .poly import Poly, RatFn, monic_irreducibles, parse_int, parse_poly, prime_divisors
from .series import InfLaurent, VqElem, parse_series


class UsageError(Exception):
    pass


# The most work `sweep --kind splitting` takes on, in units of (x-degree of
# psi_A)^2 summed over the ordered pairs (P, A): --q 3 --max-deg 3 is 72956
# (about 0.5 s), --q 9 --max-deg 2 is about 10^7 (about 70 s for its 1980
# pairs run in one process; Python 3.11, 2-vCPU x86-64).
MAX_SPLITTING_WORK = 10**5

# The most rows `sweep --kind reciprocity` writes, one per pair of monic
# irreducibles and divisor d of q - 1: --q 101 --max-deg 1 is 45450 rows
# (about 0.9 s), --q 9 --max-deg 3 is 161880 (about 7 s), --q 65537
# --max-deg 1 would be about 3.6 * 10^10.
MAX_RECIPROCITY_ROWS = 2 * 10**5

# The most points `sweep --kind torsion` lists, q^(deg P) per prime P: --q 3
# --max-deg 6 is 97938 (about 2.2 s), --q 2 --max-deg 10 is 140872 (5.3 s).
MAX_TORSION_SWEEP_POINTS = 2 * 10**5

# The most vertices `tree export` or `tree neighbors` prints: --q 9 --radius
# 5 is 73811 (about 7.9 s), --q 101 --radius 3 is 1050907 (about a minute).
MAX_TREE_VERTICES = 10**5


def integer(text: str) -> int:
    """An integer option: ASCII digits with an optional leading minus."""
    return parse_int(text.strip(), signed=True)


def rational(text: str) -> Rational:
    """A rational entry: a or a/b in ASCII digits, a after an optional minus
    and b nonzero."""
    num, slash, den = text.strip().partition("/")
    a, b = parse_int(num, signed=True), parse_int(den) if slash else 1
    if b == 0:
        raise UsageError(f"zero denominator in {text.strip()!r}")
    return Rational(a, b)


def nonnegative(n: int, what: str) -> int:
    """A count of rows, degrees or steps, refused when negative."""
    if n < 0:
        raise UsageError(f"{what} {n} is negative")
    return n


def check_size(what: str, size: int, cap: int, hint: str, exact: bool = True):
    """Refuse work whose size, counted before any enumeration, is above cap;
    an inexact size is a lower bound, counted only until it passes cap."""
    if size > cap:
        raise UsageError(f"{what} {'' if exact else 'at least '}{size} is above the cap {cap} ({hint})")


def build_gf(args) -> GF:
    p, r = _prime_power(args.q)
    modulus = [integer(c) for c in args.modulus.split(",")] if args.modulus else None
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


def _parse_vertex(s: str, gf) -> geometry.TreeVertex:
    # format: level;series  (series in the T-digit format, possibly 0)
    level_s, _, ser_s = s.partition(";")
    level = integer(level_s)
    digits = {}
    if ser_s.strip() not in ("", "0"):
        ser = parse_series(ser_s, gf, InfLaurent)
        digits = dict(ser.terms())
    return geometry.TreeVertex(gf, level, digits)


def reader(read):
    """The argparse type of a text option: the option keeps its text, bound
    to read, until main reads it with read(text, gf) in the field it builds
    (None for a subcommand without one)."""
    return lambda text: partial(read, text)


POLY = reader(parse_poly)
VQ = reader(lambda s, gf: parse_series(s, gf, VqElem))
INF = reader(lambda s, gf: parse_series(s, gf, InfLaurent))
FRACTION = reader(parse_fraction)
FRACTIONS = reader(lambda s, gf: [parse_fraction(x, gf) for x in s.split(";")])
VQ_LIST = reader(lambda s, gf: [parse_series(x, gf, VqElem) for x in s.split(";")])
VERTEX = reader(_parse_vertex)
RATIONALS = reader(lambda s, gf: [rational(x) for x in s.split(",")])


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


def emit_value(args, key: str, out) -> None:
    """One value: {key: str(out)} in JSON, the line str(out) as text."""
    emit(args, {key: str(out)}, [str(out)])


def emit_certified(args, val, cert: dict) -> None:
    """A series value and the certificate of its digits."""
    cert_s = {str(k): str(v) for k, v in cert.items()}
    emit(args, {"value": str(val), "certificate": cert_s}, [str(val), json.dumps(cert_s, sort_keys=True)])


# ---------------------------------------------------------------- commands
# Each handler takes the parsed options and the field that main built.


def cmd_act(args, gf):
    emit_value(args, "result", carlitz_act(args.M, args.u))


def cmd_operator(args, gf):
    coeffs = [str(c) for c in carlitz_operator(args.M).coeffs]
    emit(args, {"coeffs": coeffs}, ["; ".join(coeffs)])


def cmd_cyclotomic(args, gf):
    emit_value(args, "poly", cyclotomic_poly(args.P, args.n))


def cmd_torsion_padic(args, gf):
    payload = json.loads(torsion.torsion_padic(args.P, args.N).to_json())
    emit(args, payload, payload["points"])


def cmd_torsion_vq(args, gf):
    prec = args.prec if args.prec is not None else torsion.min_separating_prec(args.M) + gf.q
    payload = json.loads(torsion.torsion_vq(args.M, prec).to_json())
    emit(args, payload, payload["points"])


def cmd_divide_t(args, gf):
    lines = [str(b) for b in torsion.divide_T(args.u, prec=args.prec)]
    emit(args, {"branches": lines}, lines)


def cmd_completed_act(args, gf):
    emit_value(args, "result", torsion.completed_action(args.M, args.u))


def cmd_dirichlet(args, gf):
    Mn, ln = torsion.dirichlet_approx(args.target, args.n)
    emit(args, {"M": str(Mn), "approximant": str(ln)}, [f"M_n = {Mn}", f"lambda_n = {ln}"])


def cmd_symbol(args, gf):
    emit_value(args, "symbol", gf.fmt_elem(reciprocity.residue_symbol(args.A, args.P, args.d)))


def cmd_reciprocity(args, gf):
    lhs, rhs, holds = reciprocity.check_reciprocity(args.P, args.Q, args.d)
    lhs, rhs = gf.fmt_elem(lhs), gf.fmt_elem(rhs)
    emit(args, {"lhs": lhs, "rhs": rhs, "holds": holds}, [f"lhs = {lhs}", f"rhs = {rhs}", f"holds = {holds}"])


def cmd_split_kummer(args, gf):
    f = reciprocity.residue_degree_kummer(args.A, args.P, args.d)
    emit(args, {"residue_degree": f}, [str(f)])


def cmd_split_cyclotomic(args, gf):
    f = reciprocity.residue_degree_cyclotomic(args.P, args.A)
    emit(args, {"residue_degree": f}, [str(f)])


def cmd_xi(args, gf):
    emit_value(args, "poly", reciprocity.xi_poly(args.A))


def cmd_newton(args, gf):
    np = reciprocity.newton_polygon(reciprocity.xi_poly(args.A))
    verts = [[int(x), int(y)] for x, y in np.vertices]
    segs = [[str(s), str(l)] for s, l in np.segments]
    emit(args, {"vertices": verts, "segments": segs}, [f"vertices: {verts}", f"segments (slope, length): {segs}"])


def cmd_kummer_map(args, gf):
    emit_value(args, "image", reciprocity.kummer_map(args.u))


def cmd_kummer_solve(args, gf):
    emit_value(args, "root", reciprocity.kummer_solve(args.M))


def cmd_star(args, gf):
    emit_value(args, "result", reciprocity.star_action(args.A, args.nu))


def cmd_tangent(args, gf):
    res = geometry.tangent(args.f1, args.f2)
    emit(args, {"tangent": res}, [str(res).lower()])


def cmd_family(args, gf):
    lines = [str(m) for m in geometry.tangent_family(args.f1, args.f2)]
    emit(args, {"members": lines}, lines)


def _descartes_rows(gf, seed: int, count: int):
    """(members, form, zero) for each of count random tangent families drawn
    from one seeded generator: the rows of both Descartes sweeps."""
    rng = random.Random(seed)
    for _ in range(nonnegative(count, "count")):
        fam = geometry.random_tangent_family(gf, rng)
        val = geometry.descartes_form(fam)
        yield ";".join(str(m) for m in fam), _form_text(val), val.is_zero()


def cmd_descartes_family(args, gf):
    fam = geometry.tangent_family(args.f1, args.f2)
    val = geometry.descartes_form(fam)
    members, form = [str(m) for m in fam], _form_text(val)
    emit(
        args,
        {"members": members, "form": form, "zero": val.is_zero()},
        members + [f"form = {form}", f"zero = {val.is_zero()}"],
    )


def cmd_descartes_eval(args, gf):
    val = geometry.descartes_form(args.curvatures)
    form = _form_text(val)
    emit(args, {"form": form, "zero": val.is_zero()}, [form])


def cmd_descartes_sweep(args, gf):
    rows = sorted(_descartes_rows(gf, args.seed, args.count))
    for members, form, zero in rows:
        print(f"{members}\t{form}\t{'zero' if zero else 'NONZERO'}")
    bad = sum(1 for row in rows if not row[2])
    if bad:
        raise CarlitzError(f"{bad} of {args.count} families violate the form")


def cmd_soddy(args, gf):
    val = geometry.soddy_form(args.n, args.ks)
    emit(args, {"form": str(val), "zero": val == 0}, [str(val)])


def cmd_tree_neighbors(args, gf):
    check_size("tree neighbors vertex count", gf.q + 1, MAX_TREE_VERTICES, "lower --q")
    lines = [n.label() for n in geometry.tree_neighbors(args.vertex)]
    emit(args, {"neighbors": lines}, lines)


def cmd_tree_distance(args, gf):
    d = geometry.tree_distance(args.v1, args.v2)
    emit(args, {"distance": d}, [str(d)])


def cmd_tree_export(args, gf):
    radius, q = nonnegative(args.radius, "radius degree"), gf.q
    # the ball has 1 + (q+1)(q^r - 1)/(q-1) >= 2^r vertices, so a radius past
    # the cap's bit length is counted only up to it
    r = min(radius, MAX_TREE_VERTICES.bit_length())
    size = 1 + (q + 1) * (q**r - 1) // (q - 1)
    check_size("tree export vertex count", size, MAX_TREE_VERTICES, "lower --radius or --q", exact=r == radius)
    # layer k: the neighbours of layer k - 1 outside the ball, one edge to each
    layer = [geometry.TreeVertex.base(gf)]
    seen, edges = {layer[0]: 0}, []
    for k in range(1, radius + 1):
        pairs = [(v, w) for v in layer for w in geometry.tree_neighbors(v) if w not in seen]
        layer = [w for _, w in pairs]
        seen.update(dict.fromkeys(layer, k))
        edges += [tuple(sorted((v.label(), w.label()))) for v, w in pairs]
    print("graph tree {")
    for v in sorted(seen, key=lambda x: (seen[x], x.label())):
        print(f'  "{v.label()}";')
    for a, b in sorted(edges):
        print(f'  "{a}" -- "{b}";')
    print("}")


def cmd_ray(args, gf):
    lines = [v.label() for v in geometry.geodesic_ray(args.f, args.steps)]
    emit(args, {"ray": lines}, lines)


def cmd_normal_basis(args, gf):
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


def cmd_exp(args, gf):
    budget = analytic.SeriesBudget(term_count=args.terms, precision=args.prec)
    emit_certified(args, *analytic.carlitz_exp(args.z, budget, with_certificate=True))


def cmd_period(args, gf):
    ratfn, series = analytic.period_partial(gf, args.N, prec=args.prec)
    exact = _form_text(ratfn)
    emit(args, {"ratfn": exact, "series": str(series)}, [f"exact = {exact}", f"series = {series}"])


def cmd_eisenstein(args, gf):
    L = analytic.Lattice(args.basis)
    budget = analytic.SeriesBudget(degree_bound=args.degree_bound, precision=args.prec)
    emit_certified(args, *analytic.eisenstein(L, args.k, budget, with_certificate=True))


def _check_sweep_size(q: int, max_deg: int, what: str, cap: int, size):
    """check_size on size(count) at each d <= max_deg, count[d] = N(d) the monic
    irreducibles of degree d (q^d = sum over e | d of e N(e)): size grows
    with d, so a huge max_deg is refused at the first d past cap."""
    count = {}
    for d in range(1, max_deg + 1):
        count[d] = (q**d - sum(e * n for e, n in count.items() if d % e == 0)) // d
        check_size(what, size(count), cap, "lower --max-deg or --q", exact=d == max_deg)


def cmd_sweep(args, gf):
    kind = args.kind
    nonnegative(args.max_deg, "sweep degree")
    bad = 0
    rows = []
    if kind == "reciprocity":
        # the divisors of q - 1 from its primes, in no order: the rows are sorted
        divisors = [1]
        for l in prime_divisors(gf.q - 1):
            powers = [l**k for k in range(1, gf.q.bit_length()) if (gf.q - 1) % l**k == 0]
            divisors += [d * e for d in divisors for e in powers]
        _check_sweep_size(gf.q, args.max_deg, "sweep 'reciprocity' row count", MAX_RECIPROCITY_ROWS,
                          lambda count: comb(sum(count.values()), 2) * len(divisors))
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
        _check_sweep_size(gf.q, args.max_deg, "sweep 'torsion' point count", MAX_TORSION_SWEEP_POINTS,
                          lambda count: sum(n * gf.q**d for d, n in count.items()))
        for P in monic_irreducibles(gf, args.max_deg):
            # distinct points: the listing has q^(deg P) entries by construction
            distinct = len(set(torsion.torsion_padic(P, args.N)))
            expected = gf.q ** P.degree
            ok = distinct == expected
            rows.append((str(P), str(distinct), str(expected), str(ok)))
            if not ok:
                bad += 1
    elif kind == "splitting":
        from .residues import ddf

        _check_sweep_size(gf.q, args.max_deg, "sweep 'splitting' work estimate", MAX_SPLITTING_WORK,
                          lambda count: (sum(count.values()) - 1) * sum(n * (gf.q**d - 1) ** 2 for d, n in count.items()))
        irr = list(monic_irreducibles(gf, args.max_deg))
        psis = {A: list(cyclotomic_poly(A, 1).coeffs) for A in irr}
        for P in irr:
            for A in irr:
                if P == A:
                    continue
                f = reciprocity.residue_degree_cyclotomic(P, A)
                degs = ddf(psis[A], P)
                ok = all(d == f for d, _ in degs)
                rows.append((str(P), str(A), str(f), str(degs), str(ok)))
                if not ok:
                    bad += 1
    for row in sorted(rows):
        print("\t".join(row))
    if bad:
        raise CarlitzError(f"{bad} rows violate the law in sweep {kind!r}")


# ---------------------------------------------------------------- parser


def field(sp):
    """The options of a subcommand that builds a field."""
    sp.add_argument("--q", type=integer, default=3, help="field size, a prime power")
    sp.add_argument("--modulus", help="comma-separated F_p coefficients of the field modulus (r > 1)")
    sp.add_argument("--output", choices=("text", "json"), default="text")


def prec(sp, default=None):
    sp.add_argument("--prec", type=integer, default=default, help="working precision")


def seed(sp):
    sp.add_argument("--seed", type=integer, default=0, help="PRNG seed for randomized sweeps")


# Every subcommand: (name, handler, setup, nested), nested being None or the
# dest and the entries of its own subcommands; setup declares every option
# the handler reads, and a parent of nested subcommands has none.
SUBCOMMANDS = [
    ("act", cmd_act, lambda sp: (field(sp), sp.add_argument("--M", type=POLY, required=True), sp.add_argument("--u", type=POLY, required=True)), None),
    ("operator", cmd_operator, lambda sp: (field(sp), sp.add_argument("--M", type=POLY, required=True)), None),
    ("cyclotomic", cmd_cyclotomic, lambda sp: (field(sp), sp.add_argument("--P", type=POLY, required=True), sp.add_argument("--n", type=integer, default=1)), None),
    ("torsion-padic", cmd_torsion_padic, lambda sp: (field(sp), sp.add_argument("--P", type=POLY, required=True), sp.add_argument("--N", type=integer, default=6)), None),
    ("torsion-vq", cmd_torsion_vq, lambda sp: (field(sp), prec(sp), sp.add_argument("--M", type=POLY, required=True)), None),
    ("divide-t", cmd_divide_t, lambda sp: (field(sp), prec(sp), sp.add_argument("--u", type=VQ, required=True)), None),
    ("completed-act", cmd_completed_act, lambda sp: (field(sp), sp.add_argument("--M", type=INF, required=True), sp.add_argument("--u", type=VQ, required=True)), None),
    ("dirichlet", cmd_dirichlet, lambda sp: (field(sp), sp.add_argument("--target", type=VQ, required=True), sp.add_argument("--n", type=integer, required=True)), None),
    ("symbol", cmd_symbol, lambda sp: (field(sp), sp.add_argument("--A", type=POLY, required=True), sp.add_argument("--P", type=POLY, required=True), sp.add_argument("--d", type=integer, required=True)), None),
    ("reciprocity", cmd_reciprocity, lambda sp: (field(sp), sp.add_argument("--P", type=POLY, required=True), sp.add_argument("--Q", type=POLY, required=True), sp.add_argument("--d", type=integer, required=True)), None),
    ("split-kummer", cmd_split_kummer, lambda sp: (field(sp), sp.add_argument("--A", type=POLY, required=True), sp.add_argument("--P", type=POLY, required=True), sp.add_argument("--d", type=integer, required=True)), None),
    ("split-cyclotomic", cmd_split_cyclotomic, lambda sp: (field(sp), sp.add_argument("--P", type=POLY, required=True), sp.add_argument("--A", type=POLY, required=True)), None),
    ("xi", cmd_xi, lambda sp: (field(sp), sp.add_argument("--A", type=POLY, required=True)), None),
    ("newton", cmd_newton, lambda sp: (field(sp), sp.add_argument("--A", type=POLY, required=True)), None),
    ("kummer", None, None, ("kummer_cmd", [
        ("map", cmd_kummer_map, lambda sp: (field(sp), sp.add_argument("--u", type=VQ, required=True)), None),
        ("solve", cmd_kummer_solve, lambda sp: (field(sp), sp.add_argument("--M", type=INF, required=True)), None),
    ])),
    ("star", cmd_star, lambda sp: (field(sp), sp.add_argument("--A", type=POLY, required=True), sp.add_argument("--nu", type=INF, required=True)), None),
    ("tangent", cmd_tangent, lambda sp: (field(sp), sp.add_argument("--f1", type=FRACTION, required=True), sp.add_argument("--f2", type=FRACTION, required=True)), None),
    ("family", cmd_family, lambda sp: (field(sp), sp.add_argument("--f1", type=FRACTION, required=True), sp.add_argument("--f2", type=FRACTION, required=True)), None),
    ("descartes", None, None, ("descartes_cmd", [
        ("family", cmd_descartes_family, lambda sp: (field(sp), sp.add_argument("--f1", type=FRACTION, required=True), sp.add_argument("--f2", type=FRACTION, required=True)), None),
        ("eval", cmd_descartes_eval, lambda sp: (field(sp), sp.add_argument("--curvatures", type=FRACTIONS, required=True, help="semicolon-separated fractions")), None),
        ("sweep", cmd_descartes_sweep, lambda sp: (field(sp), seed(sp), sp.add_argument("--count", type=integer, default=20)), None),
    ])),
    ("soddy", cmd_soddy, lambda sp: (sp.add_argument("--output", choices=("text", "json"), default="text"), sp.add_argument("--n", type=integer, default=2), sp.add_argument("--ks", type=RATIONALS, required=True)), None),
    ("tree", None, None, ("tree_cmd", [
        ("neighbors", cmd_tree_neighbors, lambda sp: (field(sp), sp.add_argument("--vertex", type=VERTEX, required=True, help="level;series")), None),
        ("distance", cmd_tree_distance, lambda sp: (field(sp), sp.add_argument("--v1", type=VERTEX, required=True), sp.add_argument("--v2", type=VERTEX, required=True)), None),
        ("export", cmd_tree_export, lambda sp: (field(sp), sp.add_argument("--radius", type=integer, default=2)), None),
    ])),
    ("ray", cmd_ray, lambda sp: (field(sp), sp.add_argument("--f", type=FRACTION, required=True), sp.add_argument("--steps", type=integer, default=5)), None),
    ("normal-basis", cmd_normal_basis, field, None),
    ("exp", cmd_exp, lambda sp: (field(sp), prec(sp, 24), sp.add_argument("--z", type=VQ, required=True), sp.add_argument("--terms", type=integer, default=10)), None),
    ("period", cmd_period, lambda sp: (field(sp), prec(sp, 16), sp.add_argument("--N", type=integer, required=True)), None),
    ("eisenstein", cmd_eisenstein, lambda sp: (field(sp), prec(sp, 24), sp.add_argument("--basis", type=VQ_LIST, required=True, help="semicolon-separated series"), sp.add_argument("--k", type=integer, default=1), sp.add_argument("--degree-bound", type=integer, default=3)), None),
    ("sweep", cmd_sweep, lambda sp: (field(sp), seed(sp), sp.add_argument("--kind", required=True, choices=("reciprocity", "descartes", "torsion", "splitting")), sp.add_argument("--max-deg", type=integer, default=2), sp.add_argument("--count", type=integer, default=20), sp.add_argument("--N", type=integer, default=4)), None),
]


def build_parser(argv=()):
    """The parser of ``carlitz``.  When argv starts with a subcommand's name,
    only that subcommand and its nested ones are added: argparse hands the
    rest of argv to that one alone.  Any other argv (none, an option such
    as -h, an unknown name) gets all of them, so top-level help and the
    invalid-choice error list every subcommand; the usage line of an
    unrecognized-argument error lists every one either way."""
    top = argparse.ArgumentParser(
        prog="carlitz",
        description="Exact arithmetic for the Carlitz module over F_q(T).",
    )

    def add(parent, name, fn, setup, nested):
        sp = parent.add_parser(name)
        if setup:
            setup(sp)
        if nested:
            dest, entries = nested
            sub = sp.add_subparsers(dest=dest, required=True)
            for entry in entries:
                add(sub, *entry)
        else:
            sp.set_defaults(fn=fn)

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
    if args.output == "json":
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
        gf = build_gf(args) if "q" in vars(args) else None
        # the namespace holds the options in declaration order, so the
        # first option that fails to read is the first one declared
        for dest, value in vars(args).items():
            if isinstance(value, partial):
                setattr(args, dest, value(gf))
        args.fn(args, gf)
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
    except CarlitzError as e:
        _emit_error(args, "domain", e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
