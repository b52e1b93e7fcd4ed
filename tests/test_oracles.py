"""Every fast path against its oracle, stated once.  Each row of ROWS is one
fast path and its definitional version: ``call`` and ``oracle`` take the same
input tuple, ``inputs`` draws such tuples (``max_examples`` of them) or is
None, and ``pins`` maps a test id to a function that lists fixed input
tuples (the @example inputs and parametrized cases).  On every input both
sides have one outcome (conftest.outcome): equal values, or the same library
error class.

test_matches_oracle[row] runs a row's draws and test_pin_matches_oracle[row-pin]
one of its pins.  A row keyed by a test id, "module::name", or
"module::name/pair" for a further pair of that test, runs under that id
instead: the module takes it from ``earlier_tests``, which keeps the ids of
the tests the rows replaced, and rows there that share one strategy share
its draws.  The oracles and the strategies live in tests/conftest.py;
tests/test_precision.py holds the precision contract."""

import functools
import math
import random
from collections import Counter
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _ddf_args, _padic_step, _rand, _rand_vq, _slot_args,
    _torsion_primes, _vq, _xp, act_args, all_monic, all_polys as polys_up_to, boundary_points,
    brute_shell_coeffs, capped_step_args, CoefficientOperator, completed_action_stepwise, completed_args,
    curvature_tuples, ddf_args,
    ddf_by_powering, DDF_PLANS, dense, dense_operator, descartes_form_stepwise, digit_vectors, dirichlet_args,
    divide_T_fixed_point, divide_T_frobenius_sum, ext_gcd_inverse, FIELDS, frac, FROB_FIELDS, frobenius_args,
    frobenius_product_args, frobenius_sum_args, full_eisenstein, geodesic_ray_stepwise, gf_tables_by_coordinates,
    inverse_args, inverse_then_power, kernel_torsion_vq, kummer_solve_newton, LARGE_FIELDS, lift_to_linear_prime,
    linear_divisor_pairs, modulus_args, modulus_pin, monic_power_sum, ORDER_FIELDS, outcome, pack_slots, padic_args, padic_elems,
    period_partial_multiplied, phi_by_trial, plain_pow, plan_reuse_args, planned_product, poly_pairs, rabin_known,
    rabin_pow_mod, raised, rand_poly, rank_one_args, residue_args, residue_divisions, residue_planned_product,
    RESIDUE_PLANS, rf_ddf, rf_divmod, scan_dirichlet, school_divmod, school_from_inf, school_mul, school_series,
    school_series_inverse, school_series_mul, school_to_inf, school_vector_ops, school_xdivmod, school_xmul,
    search_torsion_vq, seeded_modulus, series_pairs, slot_args, spread_carlitz_exp, step_args, step_mod_args, stepping_order,
    stepping_residue_order, tangent_families, TORSION_ORDERS, torsion_padic_by_class, tree_distance_by_dicts,
    table_loop_pairs, tstep_operator, unit_count, unpack_slots, vec_args, VEC_FIELDS, vec_series, vertex_pairs,
    wide_pairs, X_FIELDS, xpoly_pairs,
)
from carlitz.analytic import Lattice, SeriesBudget, _carlitz_e, _power_sum, _shell_coeffs, carlitz_exp, eisenstein, period_partial
from carlitz.errors import DomainError, PrecisionError
from carlitz.geometry import descartes_form, geodesic_ray, tangent, tree_distance
from carlitz.gf import GF
from carlitz.operator import AdditivePoly, XPoly, carlitz_act, carlitz_operator, cyclotomic_poly
from carlitz.padic import PadicCtx, PadicElem, hensel_lift
from carlitz.poly import (
    DIVISION_CROSSOVER, Modulus, Poly, RatFn, _pack, _slot_tables, _squarefree_parts, _unpack, all_polys, euler_phi,
    is_irreducible, monic_irreducibles, parse_poly, poly_gcd, pow_mod, square_multiply,
)
from carlitz.reciprocity import (
    _norm, kummer_solve, newton_polygon, residue_degree_cyclotomic, residue_degree_kummer, residue_symbol, xi_poly,
)
from carlitz.residues import ddf
from carlitz.series import InfLaurent, Series, VqElem, parse_series
from carlitz.torsion import completed_action, dirichlet_approx, divide_T, min_separating_prec, torsion_padic, torsion_vq


class Row(NamedTuple):
    call: Callable  # the fast path
    oracle: Callable  # its definitional version, on the same inputs
    inputs: st.SearchStrategy = None  # input tuples, or None: pins only
    max_examples: int = 100
    pins: dict = {}  # test id -> a function of no arguments listing input tuples


def check(row, args):
    assert outcome(row.call, *args) == outcome(row.oracle, *args), args


def draws(rows):
    """Draws of the rows' one input strategy, each checked on every row."""
    def check_all(args):
        for row in rows:
            check(row, args)

    settings(max_examples=rows[0].max_examples, deadline=None)(given(rows[0].inputs)(check_all))()


def run_pin(row, pin):
    for args in row.pins[pin]():
        check(row, args)


def examples(*cases):
    """Pins of one input tuple each, keyed by position."""
    return {str(i): functools.partial(lambda c: [c], c) for i, c in enumerate(cases)}


def per_case(build, cases):
    """Pins keyed as pytest keys a parametrized case: build(*case) lists its
    input tuples."""
    cases = [c if isinstance(c, tuple) else (c,) for c in cases]
    return {"-".join(map(str, c)): functools.partial(build, *c) for c in cases}


def one_case(build):
    """The pin of a test with no parameters."""
    return {"": build}


def earlier_tests(module):
    """The tests of the rows keyed "module::name" or "module::name/pair", by
    name: the pins and then the draws of every row under the name, rows of
    one strategy drawing together, or one test per pin when none draws."""
    groups = {}
    for key, row in ROWS.items():
        if key.startswith(module + "::"):
            groups.setdefault(key.split("::")[1].split("/")[0], []).append(row)
    return {name: _earlier_test(rows) for name, rows in groups.items()}


def _earlier_test(rows):
    pins = list(dict.fromkeys(pin for row in rows for pin in row.pins))

    def run(pin):
        for row in rows:
            if pin in row.pins:
                run_pin(row, pin)

    if all(row.inputs is None for row in rows) and pins != [""]:
        @pytest.mark.parametrize("pin", pins)
        def test(pin):
            run(pin)

        return test

    def test():
        for pin in pins:
            run(pin)
        by_inputs = {}
        for row in rows:
            if row.inputs is not None:
                by_inputs.setdefault(id(row.inputs), []).append(row)
        for drawn in by_inputs.values():
            draws(drawn)

    return test


def shown(x):
    """x's type, text and precision, for a fast path whose value must match
    its oracle's in all three."""
    return type(x), str(x), getattr(x, "prec", None)


# ---------------------------------------------------------------- F_q[T]


def phi_and_parts(m):
    """euler_phi(m), and the product of m's squarefree parts to their
    multiplicities, each part checked monic, squarefree and prime to the
    others."""
    gf, prod = m.gf, Poly.one(m.gf)
    parts = list(_squarefree_parts(m.monic()))
    for j, (g, i) in enumerate(parts):
        assert g.degree > 0 and g.is_monic() and i > 0, (m, g, i)
        assert poly_gcd(g, g.derivative()).degree == 0, (m, g)
        assert all(poly_gcd(g, h).degree == 0 for h, _ in parts[j + 1 :]), m
        prod = prod * g**i
    return euler_phi(m), prod


def phi_unit_cases(q):
    # |(F_q[T]/m)^*| by a gcd over every residue, deg m 1-4: all monic m
    # while there are at most 27, else a sample, with repeated factors and
    # a non-monic m added
    gf = FIELDS[q]
    rng = random.Random(q)
    T, one = Poly.T(gf), Poly.one(gf)
    P2 = next(f for f in all_monic(gf, 2) if is_irreducible(f))
    extra = {1: [], 2: [T * T], 3: [T**3, T * T * (T + one)], 4: [T**4, P2 * P2, T * T * (T + one) ** 2]}
    out = []
    for n in range(1, 5):
        ms = all_monic(gf, n)
        if len(ms) > 27:
            ms = rng.sample(ms, 27)
        out += [(m,) for m in ms + extra[n] + [_rand(gf, n + 1, rng.random())]]
    return out


def phi_trial_cases(q):
    # random non-monic products of deg <= 8, random m of degree 8,
    # constants, and the p-th power factors T^p, P^(p+1), P^(2p) and
    # P^(p^2) for P of degree 1, and of degree 2 while the power stays at
    # degree <= 16, alone and times a random cofactor
    gf = FIELDS[q]
    p = gf.p
    rng = random.Random(100 + q)
    T = Poly.T(gf)
    ms = [Poly.const(gf, c) for c in range(1, q)]
    for _ in range(16):
        m = Poly.const(gf, rng.randrange(1, q))
        while True:
            f = _rand(gf, rng.randint(2, 4), rng.random())
            if (m * f).degree > 8:
                break
            m = m * f
        ms.append(m)
    ms += [_rand(gf, 9, rng.random()) for _ in range(4)]
    P1 = T + Poly.one(gf)
    P2 = next(f for f in all_monic(gf, 2) if is_irreducible(f))
    for P in (T, P1, P2):
        for e in (p, p + 1, 2 * p, p * p):
            if P.degree == 1 or P.degree * e <= 16:
                c = Poly.const(gf, rng.randrange(1, q))
                ms += [(P**e).scale(c.lc), P**e * _rand(gf, 3, rng.random()) * c]
    return [(m,) for m in ms]


def divmod_and_back(a, b):
    quo, rem = divmod(a, b)
    return quo, rem, quo * b + rem


def school_divmod_and_back(a, b):
    return (*school_divmod(a, b), a)


def linear_cases():
    # an empty dividend, a constant one (no quotient digit), a 2-coefficient
    # one, divisors b1*T of root 0, and 300 digits q - 1 over F_(2^40 - 87)
    # divided by T + 1 and by a non-monic b, where c*s nears 2^80
    gf9, gf5, gf7, big = FIELDS[9], FIELDS[5], FIELDS[7], LARGE_FIELDS[2**40 - 87]
    top = Poly(big, [big.q - 1] * 300)
    return [
        (Poly.zero(gf9), Poly(gf9, [5, 7])),
        (Poly.const(gf9, 4), Poly(gf9, [5, 7])),
        (_rand(gf5, 2, 13), Poly(gf5, [3, 2])),
        (_rand(gf9, 40, 14), Poly(gf9, [0, 5])),
        (_rand(gf7, 40, 15), Poly(gf7, [0, 3])),
        (top, Poly(big, [1, 1])),
        (top, Poly(big, [big.q - 2, big.q - 1])),
    ]


def mul_and_square(a, b):
    return a * b, a * a


def school_mul_and_square(a, b):
    return school_mul(a, b), school_mul(a, a)


def divisor_cases(q):
    # constant and non-monic divisors of every leading coefficient
    gf = FIELDS[q]
    a = _rand(gf, 60, q)
    out = []
    for lc in range(1, gf.q):
        b = _rand(gf, 9, q + lc)
        out += [(a, Poly.const(gf, lc)), (a, Poly(gf, b.coeffs[:-1] + (lc,)))]
    return out


def top_cases(gf, n, kind, long):
    """Over F_p, n coefficients p - 1, which drive the middle slot of a*a to
    n(p-1)^2: their square and a product with random digits, or a quotient
    of ``long`` digits p - 1 and of random digits by such a divisor."""
    top = Poly(gf, [gf.p - 1] * n)
    if kind == "mul":
        return [(top, top), (_rand(gf, n, n), top)]
    return [(Poly(gf, [gf.p - 1] * long), top), (_rand(gf, long, n), _rand(gf, n + 1, -n))]


def gf13_cases(n, kind):
    # n(p-1)^2 crosses 2^8 between n = 1 and 2 and 2^16 between n = 455 and 456
    return top_cases(GF(13), n, kind, 2 * n + 1)


def quotient_lengths(gf, n):
    """n, and over F_{p^r} where n quotient digits by a divisor of degree n
    take the table loop, a length past DIVISION_CROSSOVER too: the packed
    loop's slot bound p-1 + min(nq, db) r (p-1)^2 is the same at both, so
    its slot edge is pinned on the packed loop as well."""
    return (n, DIVISION_CROSSOVER // n + 1) if gf.r > 1 and n * n <= DIVISION_CROSSOVER else (n,)


def field_edge_cases(q, kind):
    # q-1 has every coordinate p-1.  In a*a with n such coefficients the
    # middle slot of the middle group reaches n r (p-1)^2.  Dividing Q*b by
    # b, with every coefficient of b equal to q-1 and of Q to -(q-1), adds
    # r (p-1)^2 to a remainder slot once per quotient digit, up to n times.
    # Each pair of lengths straddles 2^8.
    gf = FIELDS[q]
    top, p = q - 1, gf.p
    per_term = gf.r * (p - 1) ** 2
    if kind == "mul":
        return [(Poly(gf, [top] * n),) * 2 for n in (255 // per_term, 255 // per_term + 1)]
    out = []
    for n in ((255 - (p - 1)) // per_term, (255 - (p - 1)) // per_term + 1):
        b = Poly(gf, [top] * (n + 1))
        out += [(Poly(gf, [gf.neg(top)] * m) * b, b) for m in quotient_lengths(gf, n)]
    return out


def division_edge_lengths(q):
    """The divisor lengths n at which the division's slot bound
    p-1 + min(nq, db) r (p-1)^2 straddles 2^8 and 2^16."""
    gf = FIELDS[q]
    per_term = gf.r * (gf.p - 1) ** 2
    return [n for edge in (2**8 - 1, 2**16 - 1) for n in ((edge - (gf.p - 1)) // per_term, (edge - (gf.p - 1)) // per_term + 1)]


def division_edge_cases(q):
    # a quotient with three nonzero digits keeps the schoolbook oracle at
    # three passes over the divisor
    gf = FIELDS[q]
    out = []
    for n in division_edge_lengths(q):
        b = _rand(gf, n + 1, n)
        for m in quotient_lengths(gf, n):
            quo = Poly(gf, [q - 1] + [0] * (m // 2 - 1) + [1] + [0] * (m - m // 2 - 2) + [gf.p])
            out.append((quo * b + _rand(gf, n, -n), b))
    return out


def crossover_cases(q):
    # nq db = C - 1, C and C + 1 for C = DIVISION_CROSSOVER, each split at
    # its divisor closest to the square root, so the table loop runs at and
    # below C and the packed loop above it
    gf = FIELDS[q]
    out = []
    for size in (DIVISION_CROSSOVER - 1, DIVISION_CROSSOVER, DIVISION_CROSSOVER + 1):
        db = max((d for d in range(2, math.isqrt(size) + 1) if size % d == 0), default=size)
        out.append((_rand(gf, db + size // db, size), _rand(gf, db + 1, -size)))
    return out


def wide64_cases(n, kind):
    # p = 2^32 + 15: one product of two coefficients already needs 65 bits
    return top_cases(LARGE_FIELDS[4294967311], n, kind, 3 * n)


def digit_order_cases(q):
    # code = sum c_j q^j for code = 0, 1, ...: the constant digit runs fastest
    return [(FIELDS[q], n, monic) for n in range(4) for monic in (False, True)]


def packed(gf, k, coeffs, x):
    if gf.p > 1 << 8 * k:
        return None
    return _pack(gf, coeffs, k), list(_unpack(gf, _pack(gf, coeffs, k), len(coeffs), k))


SLOT_INPUTS = slot_args()
SLOT_EXAMPLES = (
    # 2-byte slots read by byte lanes at p = 127 (lane sums up to 2 * 126 < 256),
    # slot by slot at 131, where two lanes could sum to 260
    _slot_args(127, 2, 40),
    _slot_args(131, 2, 40),
    _slot_args(2, 16, 40),  # byte lanes at the widest slot
)


# ---------------------------------------------------------------- F_q[T]/P^N and Barrett reduction


def padic_pow_cases(q, P, N, exponents=True):
    gf = FIELDS[q] if q in FIELDS else GF(q)
    ctx = PadicCtx(parse_poly(P, gf), N)
    rng = random.Random(q)
    x = ctx.elem(Poly(gf, [rng.randrange(gf.q) for _ in range(ctx.modulus.degree)]))
    if not exponents:
        return [(x,)]
    unit = x
    while unit.valuation_lower() > 0:
        unit = unit + ctx.one()
    return [(x, e) for e in range(3 * q * q + 1)] + [(unit, -e) for e in range(1, 2 * q + 2)]


PADIC_POW_CASES = [(2, "T^2+T+1", 5), (3, "T^2+1", 4), (4, "T+(w)", 6), (5, "T+2", 3), (9, "T+1", 2)]


def inverse_and_product(x):
    inv = x.inverse()
    return inv, x * inv


def reduce_each(f, polys):
    """One Modulus reducing each polynomial in turn."""
    mod = Modulus(f)
    return [mod.reduce(a) for a in polys]


def steps_mod(f, h, a, w):
    mod = Modulus(f)
    return mod.rho_T(h, a, w), mod.rho_T(h)


def steps_by_divmod(f, h, a, w):
    return (h.frobenius() + h.shift(1) + w.scale(a)) % f, (h.frobenius() + h.shift(1)) % f


def steps_by_pow_mod(f, h, a, w):
    """steps_by_divmod with h^q mod f by pow_mod, which spreads nothing."""
    step = (pow_mod(h, f.gf.q, f) + h.shift(1)) % f
    return step + w.scale(a), step


def plan_calls(f, calls):
    """The calls on one Modulus, in order."""
    mod = Modulus(f)
    return [mod.rho_T(h, *step) if kind == "rho_T" else mod.reduce(h) for kind, h, *step in calls]


def plan_calls_by_divmod(f, calls):
    return [(h.frobenius() + h.shift(1) + step[1].scale(step[0])) % f if kind == "rho_T" else h % f
            for kind, h, *step in calls]


# ---------------------------------------------------------------- series


def vector_ops(a, b, c):
    # a - a is an exact zero, or a zero truncated at a's precision
    return a + b, a - b, b - a, -a, a.scale(c), a - a, (a - a).is_zero()


INF_DIGITS = st.sampled_from(VEC_FIELDS[:-1]).flatmap(lambda gf: vec_series(gf, InfLaurent).map(lambda s: (gf, *s)))


def eisenstein_term(alpha, k, prec):
    """alpha^(-e), e = (q-1)k, as one inverse of alpha^e."""
    e = (alpha.gf.q - 1) * k
    return (alpha**e).inverse(prec=max(prec, 1 - e * alpha.v))


def divide_T_step(u, v):
    """divide_T's step: v^q - u shifted by q - 1."""
    return (v.frobenius() - u).shifted(u.gf.q - 1)


def step_by_inverse_T(u, v):
    """(u - v^q) times the exact monomial 1/T = -s^(q-1)."""
    gf = u.gf
    return (u - v.frobenius()) * VqElem.monomial(gf, gf.neg(1), gf.q - 1)


DIVIDE_ARGS = frobenius_sum_args()


def unit_lead(pair, lead):
    """b with its lead replaced by the unit constant lead, when b has a
    constant lead and lead < q."""
    a, b = pair
    if b.coeffs and b.coeffs[-1].degree == 0 and lead < a.gf.q:
        b = XPoly(b.gf, b.coeffs[:-1] + (Poly.const(b.gf, lead),))
    return a, b


def exp_cut_args(q, v, digits, prec, target):
    """z = s^v + ... with digits from ``digits`` and a precision, and a
    budget of 12 terms to ``target``."""
    gf = FIELDS[q]
    return VqElem(gf, v, [1] + [c % q for c in digits], prec), SeriesBudget(term_count=12, precision=target)


# ---------------------------------------------------------------- torsion and the Carlitz action


def listing(find):
    """find(M, prec) as its JSON and point texts, or the class of its
    PrecisionError and the precision it needs."""
    def run(M, prec):
        try:
            ts = find(M, prec)
        except PrecisionError as err:
            return PrecisionError, err.needed
        return ts.to_json(), [str(x) for x in ts]

    return run


def torsion_vq_and_kills(M, prec):
    """torsion_vq's JSON, and whether rho_M kills each basis point
    points[q^j], j < deg M, to its precision."""
    got = torsion_vq(M, prec)
    return got.to_json(), [carlitz_act(M, got.points[M.gf.q**j]).is_zero() for j in range(M.degree)]


def kernel_and_kills(M, prec):
    return kernel_torsion_vq(M, prec).to_json(), [True] * M.degree


def kernel_cases(q):
    gf = FIELDS[q]
    rng = random.Random(q)
    out = []
    for d in (0, 1, 2, 3):
        M = _rand(gf, d + 1, rng.random())
        sep = min_separating_prec(M)
        # 27^3 points: the two listings dominate, so every twentieth precision
        out += [(M, prec) for prec in range(sep, sep + 41, 20 if q**d > 729 else 1)]
    return out


def search_cases(q, d):
    # the extension fields q = 8 and 27 take two precisions each: the search
    # oracle over 27^2 points is the slowest case here; below
    # min_separating_prec = 0 a linear M is refused
    gf = FIELDS[q]
    rng = random.Random(100 * q + d)
    out = []
    for M in (Poly.one(gf).shift(d), _rand(gf, d + 1, rng.random())):
        sep = min_separating_prec(M)
        top = sep + 1 if q in (8, 27) else max(2 * sep, 4)
        out += [(M, prec) for prec in range(sep, top + 1)]
        if d == 1:
            out += [(M, -2), (M, -1)]
    return out


def with_texts(points):
    return points, [str(x) for x in points]


def per_class_cases(q):
    return [(P, N) for P in _torsion_primes(q) for N in (1, 2, 3, 8, 16)]


def closed_form_cases(q):
    # up to six primes of each degree 1-3
    gf = FIELDS[q]
    rng = random.Random(q)
    out = []
    for d in range(1, 4):
        irr = [f for f in all_polys(gf, d, monic=True) if is_irreducible(f)]
        out += [(P, N) for P in rng.sample(irr, min(6, len(irr))) for N in (1, 2, 3, 8)]
    return out


def basis_roots(P, N):
    """The points over T^i, i < deg P: residues() lists T^i at index q^i."""
    points = torsion_padic(P, N).points
    return [points[P.gf.q**i] for i in range(P.degree)]


def basis_roots_closed_form(P, N):
    # rho_P = tau^(deg P) mod P, so rho_P adds at least one P-adic digit to
    # the valuation of a multiple of P; the root b over T^i is fixed by
    # rho_P, and b - T^i is a multiple of P, so b = rho_(P^(N-1))(T^i) mod P^N
    ctx = PadicCtx(P, N)
    return [carlitz_act(P ** (N - 1), ctx.elem(Poly.T(P.gf) ** i)) for i in range(P.degree)]


def operator_cases(q):
    # deg M from -1 to 6, T^d and a random M of each degree
    gf = FIELDS[q]
    rng = random.Random(q)
    out = [(Poly.zero(gf),)]
    for d in range(7):
        out += [(Poly.one(gf).shift(d),), (_rand(gf, d + 1, rng.random()),)]
    return out


def additive_cases(q):
    # zero, then random sums of up to 3 terms with coefficients of T-degree < 6
    gf = FIELDS[q]
    rng = random.Random(q)

    def coeff():
        return Poly(gf, [rng.randrange(q) for _ in range(rng.randrange(6))])

    return [(AdditivePoly.from_poly(Poly.zero(gf)),)] + [
        (AdditivePoly(gf, [coeff() for _ in range(rng.randrange(1, 4))]),) for _ in range(40)
    ]


def frobenius_plus_T(f):
    """The dense f^q by Kronecker products plus the product by T."""
    return square_multiply(dense(f), f.gf.q) + XPoly(f.gf, [Poly.T(f.gf)]) * dense(f)


# the call of the dense row cuts at the dense value's precision, which its
# oracle then computes again for the same inputs
@functools.lru_cache(maxsize=1)
def dense_value(M, u):
    """Horner in x on the dense rho_M(x)."""
    return dense_operator(M).evaluate(u)


def modulus_of(u):
    return u.ctx.modulus if isinstance(u, PadicElem) else None


def at_precision_of(x, y):
    """x cut at y's precision when both are series: equal to y exactly when
    x agrees with y and certifies at least as many digits."""
    return x.truncate(y.prec) if isinstance(y, Series) and y.prec is not None else x


def steps(x, a, w):
    """Both forms of the Carlitz step."""
    return shown(x.rho_T()), shown(x.rho_T(a, w))


def steps_by_frobenius(x, a, w):
    """u^q + T*u, plus a*w."""
    gf = x.ctx.gf if isinstance(x, PadicElem) else x.gf
    step = x.frobenius() + x.from_poly(Poly.T(gf)) * x
    return shown(step), shown(step + w.scale(a) if a else step)


ACT_INPUTS = act_args()
ACT_EXAMPLES = (
    (Poly(FIELDS[3], []), VqElem(FIELDS[3], 2, [1, 2], 5)),  # M = 0 on a truncated series
    (Poly(FIELDS[4], [1, 0, 2]), VqElem(FIELDS[4], 3, [], 3)),  # truncated zero
    (Poly(FIELDS[5], [0, 1]), InfLaurent(FIELDS[5], 0, [], None)),  # exact zero
    (Poly(FIELDS[2], [1] * 7), InfLaurent(FIELDS[2], -2, [1, 0, 1], 1)),  # deg M = 6
)


# ---------------------------------------------------------------- x-polynomials and ddf


def cyclotomic_ddf_cases(q):
    # the splitting oracle's own inputs: psi_A mod P for deg A, deg P in 1..2
    gf = FIELDS[q]
    irr = [P for P in monic_irreducibles(gf, 2) if P.degree == 1][:3]
    irr += [P for P in monic_irreducibles(gf, 2) if P.degree == 2][:2]
    return [(list(cyclotomic_poly(A, 1).coeffs), P) for A in irr for P in irr if P != A]


def linear_prime_cases(plan, q):
    # the planned products of conftest, and "split": x^q - x, where
    # x^q = x mod f; a unit times f, coefficients lifted off T = a
    gf = FIELDS[q]
    rng = random.Random(f"{q}-{plan}")
    degrees = [1] * q if plan == "split" else DDF_PLANS[plan]
    f = planned_product(gf, degrees, rng)
    a = rng.randrange(q)
    return [(lift_to_linear_prime(f, a, rng, unit=rng.randrange(1, q)), Poly(gf, [gf.neg(a), 1]), degrees)]


def irreducible_40_cases(q):
    # degree 40: blocks of 7 up to degree 20, no gcd nontrivial
    gf = FIELDS[q]
    rng = random.Random(q)
    f = planned_product(gf, [40], rng)
    return [(lift_to_linear_prime(f, 1, rng, unit=q - 1), Poly(gf, [gf.neg(1), 1]), [40])]


# the builders shared by the powering row and the residue-loop row: each
# factor is checked irreducible by the residue loop, so they are built once
@functools.lru_cache(maxsize=None)
def residue_field_cases(deg_P, q):
    gf = FIELDS[q]
    rng = random.Random(f"{q}-{deg_P}")
    P = next(P for P in monic_irreducibles(gf, deg_P) if P.degree == deg_P)
    return [(residue_planned_product(P, plan, rng), P, plan) for plan in RESIDUE_PLANS]


@functools.lru_cache(maxsize=None)
def large_prime_ddf_cases():
    # q = 2^31 - 1: x^q and T^q are taken by square-and-multiply, never as a
    # dense list of q coefficients; T^2 + 1 is irreducible as q = 3 mod 4
    gf = GF(2**31 - 1)
    P = Poly(gf, [1, 0, 1])
    return [(residue_planned_product(P, [1, 2, 3], random.Random(0)), P, [1, 2, 3])]


def powering(f, P, degrees):
    return ddf_by_powering(f, P)


RESIDUE_FIELD_PINS = per_case(residue_field_cases, [(d, q) for d in (2, 3) for q in (2, 3, 4, 9)])


def planned_ddf(f, P, degrees):
    """The residue loop's ddf, checked against the degrees f was built from."""
    out = rf_ddf(f, P)
    assert out == sorted(Counter(degrees).items()), (out, degrees)
    return out


# ---------------------------------------------------------------- q-th powers mod f


def exhaustive_cases(q):
    # every monic f of degree n >= 2 with q^n <= 729, irreducible ones included
    gf = FIELDS[q]
    return [(f, None) for n in range(2, 10) if q**n <= 729 for f in all_monic(gf, n)]


def power_cases(q):
    # g^2, g h^2 and g(T^p) are reducible and not squarefree, with a factor
    # of degree <= deg f / 2; each, and the irreducible g, also times a unit
    gf = FIELDS[q]
    rng = random.Random(q)
    out = []
    for _ in range(30):
        while True:
            g = Poly(gf, [rng.randrange(q) for _ in range(rng.randrange(1, 4))] + [1])
            if rabin_pow_mod(g):
                break
        h = Poly(gf, [rng.randrange(q) for _ in range(rng.randrange(1, 3))] + [1])
        spread = [0] * (gf.p * g.degree + 1)
        spread[:: gf.p] = g.coeffs
        unit = rng.randrange(1, q)
        for base, irreducible in [(g, True), (g * g, False), (g * h * h, False), (Poly(gf, spread), False)]:
            out += [(base, irreducible), (base.scale(unit), irreducible)]
    return out


def large_prime_cases():
    # the spread h(T^q) would have degree q: above MAX_FROBENIUS_DEGREE;
    # -1 is a non-square as 4294967311 = 3 mod 4
    gf = LARGE_FIELDS[4294967311]
    T, one = Poly.T(gf), Poly.one(gf)
    return [(T * T + Poly.const(gf, c), None) for c in (1, 2, 3, 5)] + [(T * T + one, True), (T * T - one, False)]


FROB_INPUTS = frobenius_args()
FROB_EXAMPLES = (
    modulus_pin("frobenius", *seeded_modulus(7, 30, 1, monic=True)),  # slot sums near 30 * 36: two-byte slots
    modulus_pin("frobenius", *seeded_modulus(27, 30, 2, monic=True)),  # r = 3, slot sums near 30 * 12
    modulus_pin("frobenius", *seeded_modulus(5, 1, 3, monic=True)),  # deg f = 1: h^q = h
    (Poly(FIELDS[4], [1, 0, 1]), Poly(FIELDS[4], [])),  # h = 0
    # square-and-multiply: (2r - 1) q (deg f - 1) above SPREAD_CROSSOVER
    modulus_pin("frobenius", *seeded_modulus(257, 8, 4, monic=True)),
    modulus_pin("frobenius", *seeded_modulus(10007, 2, 5, monic=True)),
    modulus_pin("frobenius", *seeded_modulus(10007, 4, 6, monic=True)),
    modulus_pin("frobenius", *seeded_modulus(1000003, 3, 7, monic=True)),
    modulus_pin("frobenius", *seeded_modulus(4294967311, 2, 8, monic=True)),
    modulus_pin("frobenius", *seeded_modulus(4294967311, 4, 9, monic=True)),
)


def symbols(A, P):
    """(A/P)_d for every d | q - 1, as constants."""
    gf = P.gf
    return [Poly.const(gf, residue_symbol(A, P, d)) for d in range(1, gf.q) if (gf.q - 1) % d == 0]


def symbols_by_pow_mod(A, P):
    """A^((q^r - 1)/d) mod P, the definition, for every d | q - 1."""
    gf = P.gf
    return [pow_mod(A % P, (gf.q**P.degree - 1) // d, P) for d in range(1, gf.q) if (gf.q - 1) % d == 0]


# ---------------------------------------------------------------- Eisenstein series and power sums


def raised_as(fn, show):
    """fn(*args) shown by show, or the class and text of its error."""
    return lambda *args: raised(lambda: show(*fn(*args)))


def sum_shown(value, cert):
    return str(value), value.prec, cert


def orbit_cases(k, q):
    gf = FIELDS[q]
    rng = random.Random(10 * q + k)
    lattices = [
        (Lattice([VqElem.monomial(gf, 1, -1)]), 2),
        (Lattice([_rand_vq(gf, rng, rng.randrange(-1, 2), 3, 30)]), 2),
        (Lattice([_rand_vq(gf, rng, -1, 2, 30), _rand_vq(gf, rng, 0, 3, 30)]), 1),
        (Lattice([VqElem.monomial(gf, 1, -1), _rand_vq(gf, rng, 1, 2, None)]), 1),
    ]
    return [(L, k, SeriesBudget(degree_bound=degree_bound, precision=16)) for L, degree_bound in lattices]


def shells(gf, rank, m):
    """_shell_coeffs' repeats and set."""
    got = list(_shell_coeffs(gf, rank, m))
    return len(got) - len(set(got)), set(got)


def power_sum_digits(gf, m, n, prec):
    """S_m(n) from the coefficients of e_m, cut at prec (it must reach it)."""
    c, D = list(_carlitz_e(gf, n, m))[m]
    return _power_sum(c, D, n, prec).truncate(prec)


def monic_sum_digits(gf, m, n, prec):
    return InfLaurent.from_ratfn(monic_power_sum(gf, m, n), prec).truncate(prec)


def monic_sum_cases(q):
    # the exact sum over the 81 monic A of degree 2 over F_9 takes about a
    # minute, so q = 9 stops at degree 1; 12 digits from the valuation on
    gf = FIELDS[q]
    return [(gf, m, n, monic_power_sum(gf, m, n).valuation_inf() + 12)
            for m in range(3 if q <= 5 else 2) for n in range(1, 3 * (q - 1) + 1)]


def l_power(gf, m, k):
    """1/l_m^k, l_m = prod_{i=1..m} (T - T^(q^i))."""
    T, l_m = Poly.T(gf), Poly.one(gf)
    for i in range(1, m + 1):
        l_m = l_m * (T - Poly.one(gf).shift(gf.q**i))
    return RatFn(Poly.one(gf), l_m**k)


def l_power_digits(gf, m, k, prec):
    # S_m(k) = 1/l_m^k for 1 <= k <= q (Carlitz); the sum over the monic
    # polynomials says so too
    exact = l_power(gf, m, k)
    assert monic_power_sum(gf, m, k) == exact, k
    return InfLaurent.from_ratfn(exact, prec).truncate(prec)


def below_q_cases(m, q):
    # it fails at k = q + 1, so that k is not asked
    gf = FIELDS[q]
    return [(gf, m, k, l_power(gf, m, k).valuation_inf() + 12) for k in range(1, q + 1)]


def approximation_shown(Mn, best):
    return str(Mn), str(best), best.prec


# ---------------------------------------------------------------- the period product


def period_forms(gf, N):
    # the gcd finds nothing to cancel in the closed form's pair, and the
    # trusted constructor still makes a scaled denominator monic
    got = period_partial(gf, N)
    c = gf.q - 1
    pairs = [(got.num, got.den), (got.num.scale(c), got.den.scale(c))]
    return (got.num, got.den), str(got), [(RatFn.reduced(n, d), RatFn(n, d)) for n, d in pairs]


def period_forms_multiplied(gf, N):
    want = period_partial_multiplied(gf, N)
    return (want.num, want.den), str(want), [(want, want)] * 2


def period_shown(gf, N):
    got = period_partial(gf, N)
    return got, str(got)


def period_chained(gf, N):
    """One gcd-normalised RatFn product per factor (1 - [n]/[n+1])."""
    one = RatFn.from_poly(Poly.one(gf))
    bracket = [Poly.one(gf).shift(gf.q**n) - Poly.T(gf) for n in range(1, N + 2)]
    acc = one
    for n in range(N):
        acc = acc * (one - RatFn(bracket[n], bracket[n + 1]))
    return acc, str(acc)


def period_times_cofactor(gf, N):
    """P_N T^(q + ... + q^(N+1)) / [1]^((q^(N+1) - 1)/(q - 1))."""
    one, T, q = Poly.one(gf), Poly.T(gf), gf.q
    top = sum(q**i for i in range(1, N + 2))
    return period_partial(gf, N) * RatFn(one.shift(top), (one.shift(q) - T) ** ((q ** (N + 1) - 1) // (q - 1)))


def period_product(gf, N):
    """prod_{i=1}^{N+1} T^(q^i)/[i], reduced by RatFn's gcd at each factor."""
    one, T = Poly.one(gf), Poly.T(gf)
    lhs = RatFn.from_poly(one)
    for i in range(1, N + 2):
        lhs = lhs * RatFn(one.shift(gf.q**i), one.shift(gf.q**i) - T)
    return lhs


# ---------------------------------------------------------------- F_{p^r}, orders and residue degrees


def gf_tables(p, r):
    """The default modulus, every sum, negative, product and a * a^-1, the
    powers x^e and x^-e of one random x for e < 2q, and the packed kernel's
    digits, reduction table and elements packed in 2-byte slots."""
    gf = GF(p, r)
    x = random.Random(gf.q).randrange(1, gf.q)
    return (
        gf.modulus,
        [gf.neg(a) for a in range(gf.q)],
        [[gf.add(a, b) for b in range(gf.q)] for a in range(gf.q)],
        [[gf.mul(a, b) for b in range(gf.q)] for a in range(gf.q)],
        [gf.mul(a, gf.inv(a)) for a in range(1, gf.q)],
        [(gf.pow(x, e), gf.pow(x, -e)) for e in range(2 * gf.q)],
        _slot_tables(gf, 1)[2:4],
        _slot_tables(gf, 2)[4],
    )


def residue_order_cases(q):
    # A: every monic A of degree 1 (and 2 up to q = 5, a sample at q = 9), a
    # sample of degree 3, T^2, T^2 (T + 1), a non-monic A, a constant and
    # 0; P: random of degree <= 3, P = 1 mod A, P sharing a factor with A,
    # a constant and 0, so that both order 1 and the refusal occur
    gf = FIELDS[q]
    rng = random.Random(q)
    T, one = Poly.T(gf), Poly.one(gf)
    deg2 = [A for A in polys_up_to(gf, 2) if A.degree == 2 and A.is_monic()]
    As = [A for A in polys_up_to(gf, 1) if A.degree == 1 and A.is_monic()]
    As += deg2 if q <= 5 else rng.sample(deg2, 20)
    As += [Poly(gf, [rng.randrange(q) for _ in range(3)] + [1]) for _ in range(4)]
    As += [T * T, T * T * (T + one), (T * T + one).scale(gf.q - 1), Poly.const(gf, 1), Poly.zero(gf)]
    out = []
    for A in As:
        Ps = [rand_poly(gf, rng, 3) for _ in range(6)]
        out += [(P, A) for P in Ps + [A + one, A * T + T, Poly.const(gf, gf.q - 1), Poly.zero(gf)]]
    assert {1, DomainError} <= {outcome(stepping_residue_order, A + one, A) for A in As} | {
        outcome(stepping_residue_order, A * T + T, A) for A in As}
    return out


def at_T2_plus_1(*As):
    """(A, T^2 + 1) over F_3 for each A given as text."""
    return [(parse_poly(A, FIELDS[3]), parse_poly("T^2+1", FIELDS[3])) for A in As]


def torsion_valuations(A):
    """The valuations of the nonzero A-torsion points at infinity, at
    precision 12."""
    return sorted(p.valuation() for p in torsion_vq(A, 12) if not p.is_zero())


def newton_valuations(A):
    """The root valuations read off the Newton polygon of xi_A, each slope
    counted (q - 1) times its length."""
    q = A.gf.q
    return sorted(-slope for slope, length in newton_polygon(xi_poly(A)).segments for _ in range(int(length) * (q - 1)))


# ---------------------------------------------------------------- geometry


def _over(den, nums, q):
    """The fractions num/den over F_q."""
    return [frac(n, den, FIELDS[q]) for n in nums]


def form_shown(form):
    return (form.num, form.den), str(form)


def family_form(fam):
    """descartes_form on a tangent family, whose members are pairwise
    tangent, so the form is 0: pairwise tangency makes the denominators
    pairwise coprime, so their product is their lcm."""
    tangent_pairs = all(tangent(a, b) for i, a in enumerate(fam) for b in fam[i + 1 :])
    form = descartes_form(fam)
    return form_shown(form), form.is_zero(), tangent_pairs


def family_form_stepwise(fam):
    return form_shown(descartes_form_stepwise(fam)), True, True


def hensel_cases(q):
    # Newton on rho_{P-1} (derivative the constant P-1, evaluated by the
    # coefficient loop) against Newton on the dense x-polynomial, whose
    # derivative is formed and evaluated term by term, from every residue;
    # the dense x-polynomial has degree q^d, so q^d <= 125
    gf = FIELDS[q]
    out = []
    for d in (1, 2, 3):
        if q**d <= 125:
            P = [f for f in monic_irreducibles(gf, d) if f.degree == d][-1]
            ctx = PadicCtx(P, 5)
            out += [(ctx.elem(r),) for r in ctx.residues()]
    return out


def hensel_on_operator(a0):
    """The root over a0 by Newton on the coefficient loop, and whether the
    Horner action sends it to zero."""
    order = a0.ctx.P - Poly.one(a0.ctx.gf)
    a = hensel_lift(CoefficientOperator(order), a0, a0.ctx)
    return a, carlitz_act(order, a).is_zero()


def hensel_on_dense(a0):
    order = a0.ctx.P - Poly.one(a0.ctx.gf)
    return hensel_lift(dense_operator(order), a0, a0.ctx), True


def completed_polynomial_cases():
    gf = FIELDS[3]
    rng = random.Random(9)
    out = []
    for _ in range(10):
        M = rand_poly(gf, rng, 3)
        out.append((M, VqElem.from_poly(rand_poly(gf, rng, 2)).truncate(15)))
    return out


ROWS = {
    # ------------------------------------------------------------ F_q[T]
    "test_kernel::test_all_polys_in_digit_order": Row(
        lambda gf, n, monic: list(all_polys(gf, n, monic=monic)),
        lambda gf, n, monic: [Poly(gf, c + [1] if monic else c) for c in digit_vectors(gf.q, n)],
        pins=per_case(digit_order_cases, [2, 3, 4, 5, 9]),
    ),
    "test_kernel::test_euler_phi_counts_units": Row(
        phi_and_parts, lambda m: (unit_count(m), m.monic()),
        pins=per_case(phi_unit_cases, [2, 3, 4, 5]),
    ),
    "test_kernel::test_euler_phi_matches_trial_division": Row(
        phi_and_parts, lambda m: (phi_by_trial(m), m.monic()),
        pins=per_case(phi_trial_cases, [2, 3, 4, 5, 7, 8, 9]),
    ),
    "test_kernel::test_mul_matches_schoolbook": Row(
        mul_and_square, school_mul_and_square, poly_pairs(), 150,
        examples((_rand(FIELDS[27], 300, 1), _rand(FIELDS[27], 300, 2)), (_rand(FIELDS[7], 300, 3), _rand(FIELDS[7], 3, 4))),
    ),
    "test_kernel::test_divmod_matches_schoolbook": Row(
        divmod_and_back, school_divmod_and_back, poly_pairs(), 150,
        examples(
            (_rand(FIELDS[25], 300, 5), _rand(FIELDS[25], 120, 6)),
            (_rand(FIELDS[5], 300, 7), _rand(FIELDS[5], 299, 8)),
            (_rand(FIELDS[9], 40, 9), _rand(FIELDS[9], 41, 10)),  # divisor longer than dividend
            (_rand(FIELDS[7], 50, 11), Poly.const(FIELDS[7], 3)),  # constant divisors over F_p and F_{p^r}
            (_rand(FIELDS[9], 50, 12), Poly.const(FIELDS[9], 5)),
            (Poly.zero(FIELDS[4]), Poly.const(FIELDS[4], 3)),
        ),
    ),
    "test_kernel::test_divmod_constant_and_non_monic_divisors": Row(
        divmod_and_back, school_divmod_and_back, pins=per_case(divisor_cases, sorted(FIELDS)),
    ),
    "Poly.divmod/linear": Row(
        divmod_and_back, school_divmod_and_back, linear_divisor_pairs(), 150, examples(*linear_cases()),
    ),
    "Poly.divmod/table-loop": Row(
        divmod_and_back, school_divmod_and_back, table_loop_pairs(), 150, per_case(crossover_cases, [9, 27]),
    ),
    "Poly.mul/gf13-slots": Row(
        mul_and_square, school_mul_and_square, pins=per_case(functools.partial(gf13_cases, kind="mul"), [1, 2, 455, 456]),
    ),
    "Poly.divmod/gf13-slots": Row(
        divmod_and_back, school_divmod_and_back,
        pins=per_case(functools.partial(gf13_cases, kind="divmod"), [1, 2, 455, 456]),
    ),
    "test_kernel::test_slot_width_edges_all_fields": Row(
        mul_and_square, school_mul_and_square, pins=per_case(functools.partial(field_edge_cases, kind="mul"), sorted(FIELDS)),
    ),
    "test_kernel::test_slot_width_edges_all_fields/divmod": Row(
        divmod_and_back, school_divmod_and_back,
        pins=per_case(functools.partial(field_edge_cases, kind="divmod"), sorted(FIELDS)),
    ),
    "Poly.divmod/division-slots": Row(divmod_and_back, school_divmod_and_back, pins=per_case(division_edge_cases, [9, 25])),
    "Poly.mul/65-bit-slots": Row(
        mul_and_square, school_mul_and_square, pins=per_case(functools.partial(wide64_cases, kind="mul"), [1, 2, 17, 64]),
    ),
    "Poly.divmod/65-bit-slots": Row(
        divmod_and_back, school_divmod_and_back,
        pins=per_case(functools.partial(wide64_cases, kind="divmod"), [1, 2, 17, 64]),
    ),
    # slot sums above 2^64 take 16-byte slots, unpacked as pairs of 8-byte words
    "test_kernel::test_wide_slots_match_schoolbook": Row(
        mul_and_square, school_mul_and_square, pins=per_case(wide_pairs, [2**31 - 1, 2**40 - 87]),
    ),
    "test_kernel::test_wide_slots_match_schoolbook/divmod": Row(
        divmod_and_back, school_divmod_and_back, pins=per_case(wide_pairs, [2**31 - 1, 2**40 - 87]),
    ),
    "test_kernel::test_wide_slots_match_schoolbook/Modulus.reduce": Row(
        lambda a, b: Modulus(b).reduce(a), lambda a, b: school_divmod(a, b)[1],
        pins=per_case(wide_pairs, [2**31 - 1, 2**40 - 87]),
    ),
    "test_kernel::test_pack_and_unpack_match_the_slot_by_slot_kernel": Row(
        lambda gf, k, coeffs, x: list(_unpack(gf, x, len(coeffs), k)),
        lambda gf, k, coeffs, x: unpack_slots(gf, x, len(coeffs), k),
        SLOT_INPUTS, 400, examples(*SLOT_EXAMPLES),
    ),
    # _pack takes p <= 256^k, and its slots unpack to the coefficients
    "test_kernel::test_pack_and_unpack_match_the_slot_by_slot_kernel/_pack": Row(
        packed, lambda gf, k, coeffs, x: (pack_slots(gf, coeffs, k), coeffs) if gf.p <= 1 << 8 * k else None,
        SLOT_INPUTS, 400, examples(*SLOT_EXAMPLES),
    ),
    # ------------------------------------------------------------ F_q[T]/P^N
    "test_kernel::test_padic_pow_matches_square_and_multiply": Row(
        lambda x, e: x**e, lambda x, e: plain_pow(x, e) if e >= 0 else plain_pow(x.inverse(), -e),
        pins=per_case(padic_pow_cases, PADIC_POW_CASES),
    ),
    # a q-th power through Modulus.frobenius: over F_(2^31 - 1) the spread
    # of degree q deg P^N would pass the 2^24 cap
    "PadicElem.frobenius": Row(
        lambda x: x.frobenius(), lambda x: plain_pow(x, x.ctx.gf.q), padic_args().map(lambda a: a[:1]), 100,
        pins=per_case(functools.partial(padic_pow_cases, exponents=False), PADIC_POW_CASES + [(2**31 - 1, "T+1", 3)]),
    ),
    "test_kernel::test_padic_inverse_matches_ext_gcd": Row(
        functools.partial(raised, inverse_and_product), functools.partial(raised, lambda x: (ext_gcd_inverse(x), x.ctx.one())),
        padic_elems().map(lambda x: (x,)), 300,
        examples(
            (PadicCtx(Poly(FIELDS[2], [1, 1]), 16).one(),),
            (PadicCtx(Poly(FIELDS[9], [3, 1, 0, 1]), 16).elem(Poly(FIELDS[9], [8, 0, 5, 0, 1])),),
            (PadicCtx(Poly(FIELDS[3], [1, 0, 1]), 4).zero(),),
        ),
    ),
    "test_kernel::test_modulus_reduce_matches_divmod": Row(
        reduce_each, lambda f, polys: [a % f for a in polys], modulus_args(), 300,
        examples(
            modulus_pin("reduce", *seeded_modulus(3, 96, 1), lengths=(190, 5, 190)),  # deg P^N = 96 at q = 3, a Frobenius image
            modulus_pin("reduce", *seeded_modulus(25, 40, 2), lengths=(41, 200, 1001)),  # r = 2, each quotient longer
            modulus_pin("reduce", *seeded_modulus(9, 0, 3), lengths=(3, 1, 5)),  # a constant f
        ),
    ),
    "test_kernel::test_modulus_rho_T_matches_divmod": Row(
        steps_mod, steps_by_divmod, step_mod_args(), 200,
        examples(
            # the bound met: over F_2 with f = 1 + T + ... + T^254, this h gives a
            # quotient of 253 ones, so the slot at T^252 sums 253 quotient terms
            # and h_126 (the spread), h_251 (T*h) and w_252 to 256, one past
            # 1-byte slots
            (Poly(FIELDS[2], [1] * 255), Poly(FIELDS[2], [0] * 126 + [1, 0] + [1] * 126), 1, Poly(FIELDS[2], [1] * 254)),
            modulus_pin("rho_T", *seeded_modulus(25, 30, 3)),  # r = 2
            modulus_pin("rho_T", *seeded_modulus(27, 12, 4)),  # r = 3
            modulus_pin("rho_T", *seeded_modulus(2**40 - 87, 1, 5)),  # 16-byte slots; a larger deg f spreads past 2^24
            modulus_pin("rho_T", *seeded_modulus(7, 1, 6)),  # deg f = 1: T*h alone reaches T^1
            (Poly(FIELDS[9], [4, 0, 1]), Poly(FIELDS[9], []), 5, Poly(FIELDS[9], [1, 7])),  # h = 0
        ),
    ),
    # past the cap on q-th powers the step takes h^q by Modulus.frobenius;
    # steps_by_divmod spreads h, which is refused there
    "Modulus.rho_T/past-the-cap": Row(steps_mod, steps_by_pow_mod, capped_step_args(), 40),
    "test_kernel::test_modulus_plan_serves_steps_and_reductions_in_any_order": Row(
        plan_calls, plan_calls_by_divmod, plan_reuse_args(), 200,
        examples(
            # deg f = 253 and 254 over F_2 lie on the two sides of the plan's
            # 1-byte slots, M + 3 <= 255 (its slots reach 254 here) and 256
            modulus_pin("plan", Poly(FIELDS[2], [1] * 254), h=Poly(FIELDS[2], [0] * 126 + [1, 0] + [1] * 125)),
            modulus_pin("plan", Poly(FIELDS[2], [1] * 255), h=Poly(FIELDS[2], [0] * 126 + [1, 0] + [1] * 126)),
            # non-monic f: T*h's top digit h_0 T must not be folded in as h_0 (-f_low)
            modulus_pin("plan", Poly(FIELDS[7], [6, 5]), h=Poly(FIELDS[7], [6])),
        ),
    ),
    # ------------------------------------------------------------ series
    "test_kernel::test_series_pow_matches_bottom_up": Row(
        lambda x, e: x**e, lambda x, e: plain_pow(x, e, x.one(x.gf)),
        st.tuples(series_pairs(max_len=12), st.integers(0, 24)).map(lambda t: (t[0][0], t[1])), 200,
    ),
    "test_kernel::test_series_mul_matches_schoolbook": Row(
        lambda a, b: (a * b, a * a), lambda a, b: (school_series_mul(a, b), school_series_mul(a, a)), series_pairs(), 200,
        examples(
            (_vq(3, 0, [], 4), _vq(3, -2, [1, 2], None)),  # truncated zero: empty, keeps prec 2
            (_vq(3, 5, [], None), _vq(3, -2, [1, 2], 7)),  # exact zero
            (_vq(25, -3, [7] * 60, 50), _vq(25, 4, [3] * 70, None)),
        ),
    ),
    "test_kernel::test_series_inverse_matches_schoolbook": Row(
        lambda x, prec: x.inverse(prec), school_series_inverse, inverse_args(), 200,
        examples(
            (_vq(3, 2, [1, 1, 2], 9), -1),  # n = 1
            (_vq(4, -3, [2], None), None),  # exact single term
            (_vq(9, -3, [2, 1, 0, 5] * 20, None), 7),  # 80 digits, n = 4
            (_vq(5, 1, [3, 0, 0], 3), 4),  # own precision below the request
        ),
    ),
    "test_kernel::test_poly_vector_ops_match_digit_loops": Row(
        vector_ops, school_vector_ops, vec_args(Poly), 300,
        examples(
            (Poly(GF(2**40 - 87), [2**40 - 88, 5, 0]), Poly(GF(2**40 - 87), [1, 2**40 - 92]), 2**40 - 88),
            (Poly(FIELDS[9], [3, 0, 7]), Poly(FIELDS[9], [6, 1, 7]), 0),  # the top digits cancel
        ),
    ),
    "test_kernel::test_series_vector_ops_match_digit_loops": Row(
        vector_ops, school_vector_ops, vec_args(Series), 250,
        examples(
            (_vq(3, 0, [], None), _vq(3, -2, [0, 1, 2, 0], 5), 2),  # exact zero
            (_vq(4, 0, [], 4), _vq(4, 7, [1, 2], None), 3),  # truncated zero
            (_vq(25, -8, [7] * 20, 10), _vq(25, 8, [3] * 20, None), 24),  # disjoint spans
            (_vq(5, -3, [1, 2, 3], None), _vq(5, -3, [4, 3], None), 1),  # leading digits cancel
        ),
    ),
    "test_kernel::test_series_constructor_matches_digit_loop": Row(
        lambda gf, v, digits, prec: (VqElem(gf, v, digits, prec), VqElem(gf, v, tuple(digits), prec)),
        lambda gf, v, digits, prec: (school_series(VqElem, gf, v, digits, prec),) * 2,
        st.sampled_from(VEC_FIELDS).flatmap(lambda gf: vec_series(gf, VqElem).map(lambda s: (gf, *s))), 200,
        examples(
            (FIELDS[3], -2, [0, 0, 1, 0, 2, 0, 0], 1),  # zeros trimmed at both ends and by prec
            (FIELDS[3], 4, [0, 0, 0], 9),  # all zeros: a truncated zero
            (FIELDS[3], 4, [1, 2], 2),  # prec below v: a truncated zero
        ),
    ),
    **{
        name: Row(
            call, oracle, INF_DIGITS, 200,
            examples(
                (FIELDS[3], -3, [1, 2, 0, 1], 1),  # odd v, truncated
                (FIELDS[5], -3, [2, 2, 4, 1, 3], None),  # odd v, exact
                (FIELDS[2], 1, [1, 1], None),  # q = 2: ramification 1 and -1 = 1
                (FIELDS[9], 0, [], 3),  # truncated zero
            ),
        )
        for name, call, oracle in [
            (
                "test_kernel::test_from_inf_and_to_inf_match_dict_versions",
                lambda gf, v, d, p: (VqElem.from_inf(InfLaurent(gf, v, d, p)), VqElem.from_inf(InfLaurent(gf, v, d, p)).to_inf()),
                lambda gf, v, d, p: (school_from_inf(InfLaurent(gf, v, d, p)), InfLaurent(gf, v, d, p)),
            ),
            # a precision off the lattice rounds up; a digit off it is refused
            ("test_kernel::test_from_inf_and_to_inf_match_dict_versions/to_inf", lambda gf, v, d, p: VqElem(gf, v, d, p).to_inf(), lambda gf, v, d, p: school_to_inf(VqElem(gf, v, d, p))),
            (
                "test_kernel::test_from_inf_and_to_inf_match_dict_versions/from_poly",
                lambda gf, v, d, p: (InfLaurent.from_poly(Poly(gf, d)), VqElem.from_poly(Poly(gf, d))),
                lambda gf, v, d, p: (
                    InfLaurent.from_terms(gf, {-i: c for i, c in enumerate(Poly(gf, d).coeffs) if c}),
                    school_from_inf(InfLaurent.from_terms(gf, {-i: c for i, c in enumerate(Poly(gf, d).coeffs) if c})),
                ),
            ),
        ]
    },
    # alpha^(-e) as one inverse of alpha^e claims exactly the digits of the
    # inverse of alpha at the longer precision raised to the e-th power
    "test_kernel::test_eisenstein_term_matches_inverse_then_power": Row(
        eisenstein_term, inverse_then_power,
        st.tuples(inverse_args(max_len=12), st.integers(1, 3), st.integers(-4, 30)).map(lambda t: (t[0][0], t[1], t[2])), 200,
        examples(
            (_vq(3, -1, [1], None), 1, 16),  # exact single term
            (_vq(3, -1, [1, 2, 1], 30), 2, 16),  # truncated multi-term
            (_vq(5, 2, [3, 1], 4), 1, 20),  # alpha's own precision binds: O(s^-6)
        ),
    ),
    # divide_T's step against the product by 1/T, digits and precision alike
    "test_kernel::test_divide_T_step_matches_product_by_inverse_T": Row(
        divide_T_step, step_by_inverse_T, series_pairs(40, (VqElem,)), 200,
        examples(
            (_vq(3, 0, [], None), _vq(3, 0, [], None)),  # exact zeros
            (_vq(3, 0, [], 4), _vq(3, -2, [1, 2], None)),  # truncated zero u
            (_vq(5, 0, [], 2), _vq(5, 0, [], 1)),  # truncated zeros
            (_vq(4, -3, [1, 0, 2], 6), _vq(4, -1, [3, 1], 2)),  # truncated, v^q binds
        ),
    ),
    "test_kernel::test_completed_action_matches_stepwise": Row(
        functools.partial(raised, completed_action), functools.partial(raised, completed_action_stepwise), completed_args(), 300,
        examples(
            (InfLaurent.zero(FIELDS[3]), _vq(3, -1, [1, 0, 2], 9)),  # M exact zero
            (InfLaurent.zero(FIELDS[3], -2), _vq(3, -1, [1, 0, 2], 9)),  # truncated zero, prec < 0
            (InfLaurent(FIELDS[4], -2, [1, 0, 3], None), _vq(4, 1, [2, 1], None)),  # polynomial only
            (InfLaurent(FIELDS[5], 1, [2, 0, 1], None), _vq(5, 1, [3], 12)),  # principal only
            (InfLaurent(FIELDS[2], -1, [1, 1, 1, 1], 0), _vq(2, 0, [1, 1], 8)),  # prec 0 cuts the tail
        ),
    ),
    # the digit placement has the Frobenius sum's and the fixed point's
    # digits and precision
    **{
        name: Row(
            divide_T, oracle, DIVIDE_ARGS, 300,
            examples(
                (_vq(3, 0, [], None), None),  # exact zero: exact zero branch
                (_vq(3, 0, [], None), 4),  # exact zero at a working precision
                (_vq(5, 2, [], 2), None),  # truncated zero
                (_vq(4, -3, [1, 2, 3], None), None),  # exact, v(u) = -q + 1
                (_vq(9, 0, [1] * 20, 20), -9),  # working precision -q: nothing certified
                (_vq(2, -1, [1, 1], 40), None),  # v(w) = 0: every Frobenius image kept
                # characteristic 2: w's digits at 0 and q - 1 meet at q - 1, q^2 - 1, ... and cancel
                (_vq(4, -3, [2, 0, 0, 2], 20), None),
                (_vq(8, -7, [1, 0, 0, 0, 0, 0, 0, 1], 70), None),
                (_vq(3, -2, [1], 7), None),  # w = s^0 at P = 9: q^2 (0+1) - 1 is the last slot
            ),
        )
        for name, oracle in [("test_kernel::test_divide_T_matches_fixed_point", divide_T_frobenius_sum), ("test_kernel::test_divide_T_matches_fixed_point/fixed-point", divide_T_fixed_point)]
    },
    # the Frobenius product has Newton's digits and precision, and the same errors
    "test_kernel::test_kummer_solve_matches_newton": Row(
        functools.partial(raised, kummer_solve), functools.partial(raised, kummer_solve_newton),
        frobenius_product_args().map(lambda M: (M,)), 300,
        examples(
            (InfLaurent(FIELDS[2], 3, [1, 1, 0, 1], None),),  # q = 2: the root is U itself
            (InfLaurent(FIELDS[3], -2, [1], 1),),  # prec - m = 3 = q: one factor
            (InfLaurent(FIELDS[3], 0, [1, 2, 2, 1], 4),),  # prec 4 > q: two factors
            (InfLaurent(FIELDS[9], 1, [2, 5, 3], None),),  # exact, leading digit -1 at odd m: working precision 16
            (InfLaurent(FIELDS[9], 1, [8, 5, 3], None),),  # U has residue w+1: no root
        ),
    ),
    # only the digits of z^(q^n) below ceil(prec/q) reach the next term's
    # digits below prec, whatever the sign of prec
    "test_kernel::test_carlitz_exp_cuts_each_power_before_the_frobenius": Row(
        carlitz_exp, spread_carlitz_exp,
        st.tuples(
            st.sampled_from([2, 3, 4, 5, 9]), st.integers(-3, 4), st.lists(st.integers(0, 8), min_size=1, max_size=30),
            st.none() | st.integers(-12, 60), st.integers(1, 80),
        ).map(lambda t: exp_cut_args(*t)),
        200,
    ),
    # ------------------------------------------------------------ torsion and the Carlitz action
    "test_kernel::test_torsion_vq_matches_the_kernel_matrix": Row(
        torsion_vq_and_kills, kernel_and_kills, pins=per_case(kernel_cases, [2, 3, 4, 5, 7, 8, 9, 27]),
    ),
    "test_kernel::test_torsion_vq_matches_per_candidate_search": Row(
        listing(torsion_vq), listing(search_torsion_vq), pins=per_case(search_cases, TORSION_ORDERS),
    ),
    "test_kernel::test_torsion_padic_matches_per_class_lifts": Row(
        lambda P, N: with_texts(torsion_padic(P, N).points), lambda P, N: with_texts(torsion_padic_by_class(P, N)),
        pins=per_case(per_class_cases, [2, 3, 4, 5, 7, 9]),
    ),
    "test_kernel::test_torsion_padic_roots_match_the_closed_form": Row(
        basis_roots, basis_roots_closed_form, pins=per_case(closed_form_cases, [2, 3, 4, 5, 7, 9]),
    ),
    "test_kernel::test_operator_coefficients_match_t_steps": Row(
        carlitz_operator, lambda M: AdditivePoly(M.gf, tstep_operator(M)), pins=per_case(operator_cases, X_FIELDS),
    ),
    "test_kernel::test_additive_rho_T_is_frobenius_plus_T": Row(
        lambda f: dense(f.rho_T()), frobenius_plus_T, pins=per_case(additive_cases, X_FIELDS),
    ),
    "test_kernel::test_carlitz_act_matches_operator": Row(
        lambda M, u: shown(carlitz_act(M, u)), lambda M, u: shown(CoefficientOperator(M, modulus_of(u)).evaluate(u)),
        ACT_INPUTS, 300, examples(*ACT_EXAMPLES),
    ),
    # Horner in x on the dense rho_M(x), which takes no rho_T step: on a
    # truncated series each product by u costs precision, so there it
    # agrees on every digit it certifies and certifies no more
    "test_kernel::test_carlitz_act_matches_operator/dense": Row(
        lambda M, u: shown(at_precision_of(carlitz_act(M, u), dense_value(M, u))), lambda M, u: shown(dense_value(M, u)),
        ACT_INPUTS, 300, examples(*ACT_EXAMPLES),
    ),
    "test_kernel::test_rho_T_matches_frobenius_plus_T_times": Row(
        steps, steps_by_frobenius, step_args(), 300,
        examples(
            (InfLaurent(FIELDS[3], 0, [], None), 2, InfLaurent(FIELDS[3], -1, [1, 2], 3)),  # exact zero
            (VqElem(FIELDS[4], 0, [], None), 3, VqElem(FIELDS[4], 0, [], None)),
            (InfLaurent(FIELDS[5], 2, [], 2), 1, InfLaurent(FIELDS[5], 0, [4], None)),  # truncated zero
            (VqElem(FIELDS[9], -1, [], 3), 0, VqElem(FIELDS[9], -12, [1], -10)),  # a = 0 keeps x's precision
            (VqElem(FIELDS[2], -2, [1, 0, 1], 4), 1, VqElem(FIELDS[2], -1, [1], 0)),  # q = 2: T = s^-1
            (VqElem(FIELDS[3], -3, [2, 1], None), 1, VqElem(FIELDS[3], 0, [1, 1], None)),  # exact
            (Poly(FIELDS[2], []), 1, Poly(FIELDS[2], [1, 1])),
            (PadicCtx(Poly(FIELDS[9], [3, 1, 0, 1]), 4).zero(), 5, PadicCtx(Poly(FIELDS[9], [3, 1, 0, 1]), 4).one()),
            (PadicCtx(Poly(FIELDS[3], [1, 1]), 1).elem(Poly(FIELDS[3], [2])), 2, PadicCtx(Poly(FIELDS[3], [1, 1]), 1).one()),  # deg P^N = 1
            # 2-byte Barrett slots: q = 5 at deg P^N = 32, q = 3 at deg P^N = 96
            _padic_step(5, [1, 1], 32, 1),
            _padic_step(3, [1, 0, 1], 48, 2),
            _padic_step(4, [2, 1, 1], 5, 3),  # extension fields
            _padic_step(9, [5, 0, 1], 7, 4),
            (PadicCtx(Poly(GF(2**32 + 15), [0, 1]), 3).elem(Poly(GF(2**32 + 15), [0, 1])), 1,
             PadicCtx(Poly(GF(2**32 + 15), [0, 1]), 3).one()),
        ),
    ),
    # ------------------------------------------------------------ x-polynomials and ddf
    "test_kernel::test_xpoly_mul_matches_dict_multiply": Row(
        lambda a, b: (a * b, a * a), lambda a, b: (school_xmul(a, b), school_xmul(a, a)), xpoly_pairs(), 200,
        examples(
            (_xp(3), _xp(3, [1, 2])),  # zero operand
            (_xp(9, [5]), _xp(9, [0, 1], [], [8, 0, 7])),  # constant operand
            (_xp(5, *[[4] * 9] * 7), _xp(5, *[[4] * 9] * 7)),  # full slots
        ),
    ),
    "test_kernel::test_xpoly_divmod_matches_schoolbook": Row(
        divmod, school_xdivmod, st.tuples(xpoly_pairs(), st.integers(1, 8)).map(lambda t: unit_lead(*t)), 200,
        examples(
            unit_lead((_xp(3, [1], [2, 1]), _xp(3, [0, 1], [1, 1])), 1),  # non-constant lead
            unit_lead((_xp(4, [1]), _xp(4)), 1),  # zero divisor
        ),
    ),
    "test_kernel::test_xpoly_divmod_mod_matches_residue_loop": Row(
        lambda a, b, P: a.divmod(b, P),
        lambda a, b, P: tuple(XPoly(a.gf, v) for v in rf_divmod(list(a.coeffs), list(b.coeffs), P)),
        residue_divisions(), 200,
        examples(
            # a lead of T-degree 2 mod T^3 + T + w over q = 9
            (_xp(9, [1] * 6, [], [2, 3, 4, 5], [8] * 5), _xp(9, [0, 1], [4, 0, 7]), Poly(FIELDS[9], [3, 1, 0, 1])),
            (_xp(2, [1, 1]), _xp(2), Poly(FIELDS[2], [1, 1])),  # zero divisor
        ),
    ),
    "test_kernel::test_ddf_matches_residue_loop": Row(
        ddf, rf_ddf, ddf_args(), 300,
        examples(
            _ddf_args(3, [1, 0, 1], [2, 0, 1], [], [1]),  # x^2 + T^2 + 2 mod T^2 + 1
            _ddf_args(5, [2, 1], [1], [2], [1]),  # (x + 1)^2: not squarefree
            _ddf_args(3, [2, 0, 1], [1], [], [1]),  # P = T^2 + 2 = (T + 1)(T + 2)
            _ddf_args(4, [2, 1], [1, 2, 3]),  # constant f
            _ddf_args(9, [1, 1], [0, 1], [1, 1], [1, 1]),  # leading coefficient T + 1 vanishes mod P
            _ddf_args(3, [0, 1], [0, 2], [], [1]),  # x^2 + 2T: squarefree over F_3(T), not mod P = T
            # f over F_q, whose norm f^n is not squarefree: x^2 + 1 and x^3 + 2x + 1 mod T^2 + 1
            _ddf_args(3, [1, 0, 1], [1], [], [1]),
            _ddf_args(3, [1, 0, 1], [1], [2], [], [1]),
            _ddf_args(2, [1, 1, 0, 0, 1], [1], [1], [1]),  # x^2 + x + 1 mod T^4 + T + 1: gcd(e, n) = 2
        ),
    ),
    "test_kernel::test_ddf_of_cyclotomic_polys_matches_residue_loop": Row(
        ddf, rf_ddf, pins=per_case(cyclotomic_ddf_cases, X_FIELDS),
    ),
    "test_kernel::test_blocked_ddf_at_a_linear_prime_matches_residue_loop": Row(
        lambda f, P, degrees: ddf(f, P), planned_ddf,
        pins=per_case(linear_prime_cases, [(plan, q) for plan in sorted(DDF_PLANS) + ["split"] for q in X_FIELDS]),
    ),
    "test_kernel::test_blocked_ddf_of_an_irreducible_matches_residue_loop": Row(
        lambda f, P, degrees: ddf(f, P), planned_ddf, pins=per_case(irreducible_40_cases, [2, 4]),
    ),
    **{
        name: Row(lambda f, P, degrees: ddf(f, P), oracle, pins=pins)
        for name, oracle, pins in [
            ("test_kernel::test_ddf_by_q_powers_matches_powering_and_residue_loop", powering, RESIDUE_FIELD_PINS),
            ("test_kernel::test_ddf_by_q_powers_matches_powering_and_residue_loop/residue-loop", planned_ddf, RESIDUE_FIELD_PINS),
            ("test_kernel::test_ddf_by_q_powers_over_a_large_prime_field", powering, one_case(large_prime_ddf_cases)),
            ("test_kernel::test_ddf_by_q_powers_over_a_large_prime_field/residue-loop", planned_ddf, one_case(large_prime_ddf_cases)),
        ]
    },
    # ------------------------------------------------------------ q-th powers mod f, irreducibility, symbols
    "test_kernel::test_modulus_frobenius_matches_pow_mod": Row(
        lambda f, h: Modulus(f).frobenius(h), lambda f, h: pow_mod(h, f.gf.q, f), FROB_INPUTS, 300,
        examples(*FROB_EXAMPLES),
    ),
    "test_kernel::test_modulus_frobenius_matches_pow_mod/is_irreducible": Row(
        lambda f, h: is_irreducible(f), lambda f, h: rabin_pow_mod(f), FROB_INPUTS, 300,
        examples(*FROB_EXAMPLES),
    ),
    # an irreducibility known in advance (True or False) is asserted of Rabin's test too
    "test_kernel::test_is_irreducible_matches_rabin_pow_mod_exhaustive": Row(
        lambda f, known: is_irreducible(f), rabin_known, pins=per_case(exhaustive_cases, [2, 3, 4, 5, 7, 8, 9, 25, 27]),
    ),
    "test_kernel::test_is_irreducible_matches_rabin_pow_mod_on_powers": Row(
        lambda f, known: is_irreducible(f), rabin_known, pins=per_case(power_cases, [2, 4, 9]),
    ),
    "test_kernel::test_is_irreducible_at_a_large_prime": Row(
        lambda f, known: is_irreducible(f), rabin_known, pins=one_case(large_prime_cases),
    ),
    # the resultant Res(P, a) against N(a) = a^((q^r - 1)/(q - 1)) mod P
    "test_kernel::test_norm_matches_pow_mod": Row(
        lambda a, P: Poly.const(P.gf, _norm(a, P)), lambda a, P: pow_mod(a, (P.gf.q**P.degree - 1) // (P.gf.q - 1), P),
        # a nonzero and reduced mod P of degree 1-8, up to q = 2^40 - 87
        residue_args(FROB_FIELDS + [2**40 - 87], lambda q: 8, lambda n: n), 200,
        examples(
            (Poly(FIELDS[9], [5]), Poly(FIELDS[9], [1, 2, 0, 1])),  # a constant: c^r
            (Poly(FIELDS[27], [26] * 3), Poly(FIELDS[27], [1, 3, 0, 1])),
        ),
    ),
    "test_kernel::test_residue_symbol_matches_pow_mod": Row(
        symbols, symbols_by_pow_mod, residue_args(), 200, examples((Poly(FIELDS[27], [26] * 7), Poly(FIELDS[27], [1, 3, 0, 1]))),
    ),
    "test_reciprocity::test_residue_degree_cyclotomic_matches_stepping": Row(
        functools.partial(raised, residue_degree_cyclotomic), functools.partial(raised, stepping_residue_order),
        pins=per_case(residue_order_cases, [2, 3, 4, 5, 9]),
    ),
    "test_reciprocity::test_residue_degrees_match_ddf": Row(
        lambda A, P: {residue_degree_kummer(A, P, 2)},
        lambda A, P: {d for d, _ in ddf([A.scale(P.gf.neg(1)), Poly.zero(P.gf), Poly.one(P.gf)], P)},
        # radical side: the order of the symbol is the degree of every factor of x^2 - A mod P
        pins=one_case(functools.partial(at_T2_plus_1, "T", "T+1", "T^2+T+2")),
    ),
    "test_reciprocity::test_residue_degrees_match_ddf/cyclotomic": Row(
        lambda A, P: {residue_degree_cyclotomic(P, A)}, lambda A, P: {d for d, _ in ddf(list(cyclotomic_poly(A, 1).coeffs), P)},
        # division-point side: the order of P mod A is the degree of every
        # factor of the division polynomial of A reduced mod P
        pins=one_case(functools.partial(at_T2_plus_1, "T", "T+1")),
    ),
    "test_reciprocity::test_newton_polygon_matches_torsion_valuations": Row(
        newton_valuations, torsion_valuations,
        pins=one_case(lambda: [(parse_poly(text, FIELDS[3]),) for text in ("T^2", "T^2+1", "T^2+T")]),
    ),
    "test_algebra::test_gf_order_matches_stepping": Row(
        lambda gf: [gf.order(a) for a in range(1, gf.q)], lambda gf: [stepping_order(gf, a) for a in range(1, gf.q)],
        pins=per_case(lambda q: [(GF(*ORDER_FIELDS[q][:2]),)], sorted(ORDER_FIELDS)),
    ),
    # q in {4, 8, 9, 16, 25, 27, 49, 256}: against coordinates and the
    # schoolbook F_p polynomials
    "test_kernel::test_gf_add_neg_tables_match_coordinates": Row(
        gf_tables, gf_tables_by_coordinates,
        pins=per_case(lambda p, r: [(p, r)], [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 8)]),
    ),
    # ------------------------------------------------------------ Eisenstein series and power sums
    "test_kernel::test_eisenstein_orbit_sum_matches_full_enumeration": Row(
        raised_as(functools.partial(eisenstein, with_certificate=True), sum_shown), raised_as(full_eisenstein, sum_shown),
        pins=per_case(orbit_cases, [(k, q) for k in (1, 2) for q in (2, 3, 4, 5, 9)]),
    ),
    "test_kernel::test_rank_one_power_sums_match_full_enumeration": Row(
        raised_as(functools.partial(eisenstein, with_certificate=True), sum_shown), raised_as(full_eisenstein, sum_shown),
        rank_one_args(), 150,
        examples(
            (Lattice([VqElem(FIELDS[3], 1, [1, 0, 2], 4)]), 2, SeriesBudget(degree_bound=3, precision=40)),
            (Lattice([VqElem(FIELDS[9], -2, [5, 1], None)]), 3, SeriesBudget(degree_bound=3, precision=8)),
        ),
    ),
    "test_kernel::test_shell_coeffs_matches_rule": Row(
        shells, lambda gf, rank, m: (0, set(brute_shell_coeffs(gf, rank, m))),
        pins=per_case(lambda m, rank, q: [(FIELDS[q], rank, m)], [(m, rank, q) for m in (0, 1, 2) for rank in (1, 2, 3) for q in (2, 3, 4)]),
    ),
    "test_kernel::test_power_sums_match_the_sum_over_monic_polynomials": Row(
        power_sum_digits, monic_sum_digits, pins=per_case(monic_sum_cases, [2, 3, 4, 5, 9]),
    ),
    "test_kernel::test_power_sums_below_q_are_powers_of_one_over_l": Row(
        power_sum_digits, l_power_digits, pins=per_case(below_q_cases, [(m, q) for m in (0, 1, 2) for q in (2, 3, 4, 5)]),
    ),
    "test_kernel::test_dirichlet_descent_matches_scan": Row(
        raised_as(dirichlet_approx, approximation_shown), raised_as(scan_dirichlet, approximation_shown), dirichlet_args(), 150,
        examples(
            # the leads at s^3 and s^5 lie past lam's precision and take digit
            # 0: 2*s + O(s^6), where a substitution that stops at lam's
            # precision leaves 2*s + 2*s^5 + O(s^6)
            (parse_series("2*s + O(s^3)", FIELDS[3], VqElem), 4),
            (parse_series("1 + O(s^4)", FIELDS[2], VqElem), 6),  # 1 + O(s^5)
        ),
    ),
    # ------------------------------------------------------------ the period product
    "test_kernel::test_period_partial_closed_form_matches_multiplied_out": Row(
        period_forms, period_forms_multiplied,
        pins=per_case(lambda q, N: [(FIELDS[q], N)], [(q, N) for q in (2, 3, 4) for N in range(1, 6)]
                      + [(q, N) for q in (5, 7, 8, 9) for N in range(1, 4)] + [(3, 6), (3, 7)]),
    ),
    "test_kernel::test_period_partial_matches_chained_factors": Row(
        period_shown, period_chained, pins=per_case(lambda q: [(FIELDS[q], N) for N in range(1, 4)], [2, 3, 4, 5, 7, 8, 9]),
    ),
    # prod_{i=1}^{N+1} T^(q^i)/[i] = P_N T^(q + ... + q^(N+1)) / [1]^((q^(N+1) - 1)/(q - 1))
    "test_kernel::test_period_partial_is_the_truncated_period_product": Row(
        period_times_cofactor, period_product, pins=per_case(lambda q: [(FIELDS[q], N) for N in range(1, 4)], [2, 3, 4, 5, 9]),
    ),
    # ------------------------------------------------------------ other modules
    "test_carlitz::test_hensel_on_the_operator_matches_the_xpoly": Row(
        hensel_on_operator, hensel_on_dense, pins=per_case(hensel_cases, [2, 3, 4, 5, 9]),
    ),
    # on a polynomial M, against rho_M by its operator coefficients
    "test_carlitz::test_completed_action_matches_polynomial_action": Row(
        completed_action, lambda M, u: CoefficientOperator(M).evaluate(u), pins=one_case(completed_polynomial_cases),
    ),
    "test_carlitz::test_completed_action_matches_polynomial_action/series": Row(
        lambda M, u: completed_action(InfLaurent.from_poly(M), u).truncate(10),
        lambda M, u: CoefficientOperator(M).evaluate(u).truncate(10),
        pins=one_case(completed_polynomial_cases),
    ),
    "test_geometry::test_descartes_form_matches_stepwise_on_tangent_families": Row(
        family_form, family_form_stepwise, tangent_families().map(lambda fam: (fam,)), 80,
    ),
    "test_geometry::test_descartes_form_matches_stepwise_on_tuples": Row(
        lambda xs: form_shown(descartes_form(xs)), lambda xs: form_shown(descartes_form_stepwise(xs)),
        curvature_tuples().map(lambda xs: (xs,)), 120,
        examples(
            # the product of the denominators exceeds their lcm: one shared
            # denominator at q = 3, 4 and 5, and denominators with a common
            # factor beside a Poly
            (_over("T^2+1", ["1", "T", "T+1", "2"], 3),),
            ([frac("1", "T", FIELDS[3]), frac("1", "T^2+T", FIELDS[3]), frac("T", "T+1", FIELDS[3]), parse_poly("T+2", FIELDS[3])],),
            (_over("T^3+T+1", ["1", "T", "T^2", "T+1", "w*T"], 4),),
            (_over("T^2+2", ["1", "T", "2*T+1", "3", "T^2+4", "4*T"], 5),),
            # denominators of degree 0 enter no product: every member a Poly
            # (D = 1), one fraction among polynomials, and a repeated
            # denominator beside unit ones
            ([parse_poly(t, FIELDS[3]) for t in ["T", "T^2+1", "2", "T+2"]],),
            ([frac("T", "T^2+3", FIELDS[5])] + [parse_poly(t, FIELDS[5]) for t in ["1", "T", "T^2+4", "2*T+1", "3"]],),
            ([frac("1", "T^2+w", FIELDS[4]), parse_poly("T", FIELDS[4]), frac("T", "T^2+w", FIELDS[4]),
              frac("w", "1", FIELDS[4]), parse_poly("T+1", FIELDS[4])],),
        ),
    ),
    "test_geometry::test_geodesic_ray_matches_stepwise": Row(
        lambda f, steps: (len(geodesic_ray(f, steps)), geodesic_ray(f, steps)),
        lambda f, steps: (steps + 1, geodesic_ray_stepwise(f, steps)),
        st.tuples(boundary_points(), st.integers(0, 12)), 200,
        examples(
            (RatFn.infinity(FIELDS[2]), 0),
            (RatFn.zero(FIELDS[3]), 12),
            (frac("T^14", "1", FIELDS[3]), 12),  # v(f) = -14 < -steps
            (frac("1", "T^3+1", FIELDS[4]), 7),  # v(f) = 3 > 0
            (frac("1", "T^7+1", FIELDS[3]), 5),  # v(f) = 7 > steps
        ),
    ),
    "test_geometry::test_tree_distance_matches_digit_by_digit": Row(
        lambda v1, v2: (tree_distance(v1, v2), tree_distance(v2, v1)),
        lambda v1, v2: (tree_distance_by_dicts(v1, v2),) * 2,
        vertex_pairs(), 300,
    ),
}


GENERIC = {name: row for name, row in ROWS.items() if "::" not in name}


@pytest.mark.parametrize("name", [name for name, row in GENERIC.items() if row.inputs is not None])
def test_matches_oracle(name):
    draws([ROWS[name]])


@pytest.mark.parametrize(
    "name, pin", [pytest.param(name, pin, id=f"{name}-{pin}" if pin else name) for name, row in GENERIC.items() for pin in row.pins]
)
def test_pin_matches_oracle(name, pin):
    run_pin(ROWS[name], pin)
