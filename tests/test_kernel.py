"""The packed F_q[T] kernel against the schoolbook definitions, series
multiply and inverse on that kernel against the digit loops, Poly and
Series add, subtract, negate and scale by coefficient vectors against the
per-digit loops, the T-division step as a shift against the product by 1/T, the
completed action against its term-by-term reading of the digits, T-division
by digit placement against the Frobenius sum and the fixed-point loop, the
Kummer root as a Frobenius product against Newton's iteration, the
exponential's cut powers against the full ones, the V_q torsion by the
exponential against the per-candidate digit search and the kernel matrix,
the orbit Eisenstein sum and the rank-one shells as power sums against the
sum over every nonzero lattice element, the power sums against the sum over the monic
polynomials, the shell enumeration against its rule, the Dirichlet
descent of the echelon basis against the scan of every torsion point,
the period product reduced once against one reduction per factor, top-down powers against bottom-up square-and-multiply,
powers in F_q[T]/P^N against bottom-up square-and-multiply and the
Newton inverse there against the extended gcd, each ring's rho_T step
against u^q + T*u, the Horner Carlitz action against the operator
coefficients of the T-step recursion and the operator coefficients by
Horner against that recursion, the x-polynomial kernel against its
coefficient-by-coefficient loops, ddf by the norm to F_q against the
degree-by-degree loop over the residue field and against square-and-multiply
by the residue field's order, the q-th power mod f,
irreducibility, the norm and the residue symbol against pow_mod, the polynomial
enumeration against the base-q digit loop, euler_phi against a count of
units and against a trial-division factorization, the ring axioms of each
ring as properties, a Poly and its RatFn as one value (equal both ways, one
hash), the F_{p^r} modulus and tables against coordinates and
schoolbook F_p polynomials, the packed slots against their slot-by-slot
reading, Barrett reduction and the Carlitz step on one modulus against the
division loop, P-adic
torsion by Newton on the Horner action against one Hensel lift of the
coefficient-loop operator per residue class, against the closed form
rho_(P^(N-1))(T^i), and at N against N' <= N.
The precision contract of each certified function is
tests/test_precision.py."""

import functools
import json
import math
import random
import re
from collections import Counter
from itertools import product, zip_longest

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import DDF_PLANS, echelon, lift_to_linear_prime, pack_slots, planned_product, span, unpack_slots
from carlitz import operator as operator_module
from carlitz import torsion as torsion_module
from carlitz.analytic import (
    Lattice,
    SeriesBudget,
    _carlitz_e,
    _power_sum,
    _shell_coeffs,
    carlitz_exp,
    eisenstein,
    period_partial,
)
from carlitz.errors import BelowPrecision, CarlitzError, DomainError, PrecisionError
from carlitz.gf import GF
from carlitz.operator import AdditivePoly, D_sequence, XPoly, carlitz_act, carlitz_operator, cyclotomic_poly
from carlitz.padic import PadicCtx, PadicElem, hensel_lift
from carlitz.poly import (
    Modulus,
    Poly,
    RatFn,
    _pack,
    _slot_bytes,
    _squarefree_parts,
    _unpack,
    all_polys,
    euler_phi,
    inv_mod,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
    poly_ext_gcd,
    poly_gcd,
    pow_mod,
    square_multiply,
)
from carlitz.reciprocity import _norm, kummer_solve, residue_symbol
from carlitz.residues import ddf
from carlitz.series import INF, InfLaurent, Series, VqElem, _min_prec, parse_series
from carlitz.torsion import (
    TorsionSetPadic,
    TorsionSetVq,
    completed_action,
    dirichlet_approx,
    divide_T,
    division_chain,
    min_separating_prec,
    torsion_padic,
    torsion_vq,
)

FIELDS = {
    2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7),
    8: GF(2, 3), 9: GF(3, 2), 25: GF(5, 2), 27: GF(3, 3),
}


# ---------------------------------------------------------------- oracles


def school_mul(a: Poly, b: Poly) -> Poly:
    gf = a.gf
    if a.is_zero() or b.is_zero():
        return Poly.zero(gf)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                if y:
                    out[i + j] = gf.add(out[i + j], gf.mul(x, y))
    return Poly(gf, out)


def school_divmod(a: Poly, b: Poly):
    gf = a.gf
    rem = list(a.coeffs)
    db = b.degree
    inv_lc = gf.inv(b.lc)
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            f = gf.mul(c, inv_lc)
            quo[i - db] = f
            for j, y in enumerate(b.coeffs):
                rem[i - db + j] = gf.add(rem[i - db + j], gf.neg(gf.mul(f, y)))
    return Poly(gf, quo), Poly(gf, rem)


def plain_pow(x, e, one=None):
    """x^e from the bottom bit of e up, starting from the ring's one."""
    res, base = x.ctx.one() if one is None else one, x
    while e:
        if e & 1:
            res = res * base
        base = base * base
        e >>= 1
    return res


# ---------------------------------------------------------------- strategies


@st.composite
def poly_pairs(draw, max_len=300):
    """(a, b) over one field; b is often longer than a, constant or non-monic."""
    gf = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    elem = st.integers(0, gf.q - 1)
    a = Poly(gf, draw(st.lists(elem, max_size=max_len)))
    b = Poly(gf, draw(st.lists(elem, max_size=max_len)))
    return a, b


def check_mul(a, b):
    assert a * b == school_mul(a, b)
    assert a * a == school_mul(a, a)


def check_divmod(a, b):
    if b.is_zero():
        return
    quo, rem = divmod(a, b)
    assert (quo, rem) == school_divmod(a, b)
    assert quo * b + rem == a


def _rand(gf, n, seed):
    rng = random.Random(seed)
    return Poly(gf, [rng.randrange(gf.q) for _ in range(n - 1)] + [rng.randrange(1, gf.q)])


# ---------------------------------------------------------------- Poly


def digit_vectors(q, n):
    """The base-q digits, constant digit first, of the codes 0 .. q^n - 1:
    the enumeration loop the library used before all_polys."""
    return [[code // q**j % q for j in range(n)] for code in range(q**n)]


def test_poly_times_int_is_refused():
    # an F_q scalar multiplies by scale or by a constant Poly
    T = Poly.T(FIELDS[3])
    with pytest.raises(TypeError, match="cannot combine Poly with int"):
        T * 2
    with pytest.raises(TypeError, match="cannot combine Poly with int"):
        2 * T
    assert T.scale(2) == T * Poly.const(FIELDS[3], 2)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_all_polys_in_digit_order(q):
    # code = sum c_j q^j for code = 0, 1, ...: the constant digit runs fastest
    gf = FIELDS[q]
    for n in range(4):
        vectors = digit_vectors(q, n)
        assert list(all_polys(gf, n)) == [Poly(gf, c) for c in vectors]
        assert list(all_polys(gf, n, monic=True)) == [Poly(gf, c + [1]) for c in vectors]


def check_squarefree_parts(m: Poly):
    """m's squarefree parts rebuild m.monic(), and are squarefree and
    pairwise coprime."""
    gf = m.gf
    parts = list(_squarefree_parts(m.monic()))
    prod = Poly.one(gf)
    for g, i in parts:
        assert g.degree > 0 and g.is_monic() and i > 0, (m, g, i)
        assert poly_gcd(g, g.derivative()).degree == 0, (m, g)
        prod = prod * g**i
    assert prod == m.monic(), m
    for j, (g, _) in enumerate(parts):
        assert all(poly_gcd(g, h).degree == 0 for h, _ in parts[j + 1 :]), m


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_euler_phi_counts_units(q):
    # |(F_q[T]/m)^*| by a gcd over every residue, deg m 1-4: all monic m
    # while there are at most 27, else a sample, with repeated factors and
    # a non-monic m added
    gf = FIELDS[q]
    rng = random.Random(q)
    T, one = Poly.T(gf), Poly.one(gf)
    P2 = next(f for f in all_monic(gf, 2) if is_irreducible(f))
    extra = {1: [], 2: [T * T], 3: [T**3, T * T * (T + one)], 4: [T**4, P2 * P2, T * T * (T + one) ** 2]}
    for n in range(1, 5):
        ms = all_monic(gf, n)
        if len(ms) > 27:
            ms = rng.sample(ms, 27)
        ms += extra[n] + [_rand(gf, n + 1, rng.random())]
        residues = [Poly(gf, c) for c in digit_vectors(q, n)]
        for m in ms:
            units = sum(1 for a in residues if not a.is_zero() and poly_gcd(a, m).degree == 0)
            assert euler_phi(m) == units, m
            check_squarefree_parts(m)


def trial_factor(m: Poly) -> dict:
    """{monic irreducible: multiplicity} of m by trial division by every
    monic polynomial of each degree d <= deg m / 2, the factorization
    euler_phi used before squarefree parts: when degree d is tried every
    factor of lower degree is gone, so a monic divisor of degree d is
    irreducible."""
    m = m.monic()
    factors, d = {}, 1
    while m.degree > 0:
        if d > m.degree // 2:
            factors[m] = factors.get(m, 0) + 1
            break
        for p in all_polys(m.gf, d, monic=True):
            while (m % p).is_zero():
                m = m // p
                factors[p] = factors.get(p, 0) + 1
        d += 1
    return factors


def phi_from_factors(gf, factors: dict) -> int:
    return math.prod(gf.q ** (p.degree * (k - 1)) * (gf.q**p.degree - 1) for p, k in factors.items())


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_euler_phi_matches_trial_division(q):
    # random non-monic products of deg <= 8, random m of degree 8,
    # constants, and the p-th power factors T^p, P^(p+1), P^(2p) and
    # P^(p^2) for P of degree 1, and of degree 2 while the power stays at
    # degree <= 16, alone and times a random cofactor; the gcd count of
    # units joins while q^deg m <= 729
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
    for m in ms:
        want = phi_from_factors(gf, trial_factor(m))
        assert euler_phi(m) == want, m
        check_squarefree_parts(m)
        if 1 <= m.degree and q**m.degree <= 729:
            residues = [Poly(gf, c) for c in digit_vectors(q, m.degree)]
            assert want == sum(1 for a in residues if not a.is_zero() and poly_gcd(a, m).degree == 0), m


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
@example((_rand(FIELDS[27], 300, 1), _rand(FIELDS[27], 300, 2)))
@example((_rand(FIELDS[7], 300, 3), _rand(FIELDS[7], 3, 4)))
def test_mul_matches_schoolbook(pair):
    check_mul(*pair)


@settings(max_examples=150, deadline=None)
@given(poly_pairs())
@example((_rand(FIELDS[25], 300, 5), _rand(FIELDS[25], 120, 6)))
@example((_rand(FIELDS[5], 300, 7), _rand(FIELDS[5], 299, 8)))
@example((_rand(FIELDS[9], 40, 9), _rand(FIELDS[9], 41, 10)))  # divisor longer than dividend
@example((_rand(FIELDS[7], 50, 11), Poly.const(FIELDS[7], 3)))  # constant divisors over F_p and F_{p^r}
@example((_rand(FIELDS[9], 50, 12), Poly.const(FIELDS[9], 5)))
@example((Poly.zero(FIELDS[4]), Poly.const(FIELDS[4], 3)))
def test_divmod_matches_schoolbook(pair):
    check_divmod(*pair)


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_divmod_constant_and_non_monic_divisors(q):
    gf = FIELDS[q]
    a = _rand(gf, 60, q)
    for lc in range(1, gf.q):
        check_divmod(a, Poly.const(gf, lc))
        b = _rand(gf, 9, q + lc)
        check_divmod(a, Poly(gf, b.coeffs[:-1] + (lc,)))


@pytest.mark.parametrize("n", [1, 2, 455, 456])
def test_slot_width_edges_gf13(n):
    # all coefficients p - 1 drive the middle slot of a*a to n(p-1)^2, which
    # crosses 2^8 between n = 1 and 2 and 2^16 between n = 455 and 456
    gf = GF(13)
    top = Poly(gf, [12] * n)
    assert _slot_bytes(n * 12**2) == {1: 1, 2: 2, 455: 2, 456: 4}[n]
    check_mul(top, top)
    check_divmod(Poly(gf, [12] * (2 * n + 1)), top)
    check_mul(_rand(gf, n, n), top)
    check_divmod(_rand(gf, 2 * n + 1, n), _rand(gf, n + 1, -n))


@pytest.mark.parametrize("q", sorted(FIELDS))
def test_slot_width_edges_all_fields(q):
    # q-1 has every coordinate p-1.  In a*a with n such coefficients the
    # middle slot of the middle group reaches n r (p-1)^2.  Dividing Q*b by
    # b, with every coefficient of b equal to q-1 and of Q to -(q-1), adds
    # r (p-1)^2 to a remainder slot once per quotient digit.  Each pair of
    # lengths straddles 2^8.
    gf = FIELDS[q]
    top, p = q - 1, gf.p
    per_term = gf.r * (p - 1) ** 2
    for n in (255 // per_term, 255 // per_term + 1):
        a = Poly(gf, [top] * n)
        check_mul(a, a)
    for n in ((255 - (p - 1)) // per_term, (255 - (p - 1)) // per_term + 1):
        b = Poly(gf, [top] * (n + 1))
        check_divmod(Poly(gf, [gf.neg(top)] * n) * b, b)


@pytest.mark.parametrize("q", [9, 25])
def test_division_slot_width_edges_extension_fields(q):
    # The division's slot bound p-1 + min(nq, db) r (p-1)^2 straddles 2^8
    # and 2^16 at these lengths, so the quotient digits are read from 1-, 2-
    # and 4-byte slots.  A quotient with three nonzero digits keeps the
    # schoolbook oracle at three passes over the divisor.
    gf = FIELDS[q]
    p = gf.p
    per_term = gf.r * (p - 1) ** 2
    widths = []
    for edge in (2**8 - 1, 2**16 - 1):
        for n in ((edge - (p - 1)) // per_term, (edge - (p - 1)) // per_term + 1):
            widths.append(_slot_bytes(p - 1 + n * per_term))
            b = _rand(gf, n + 1, n)
            quo = Poly(gf, [q - 1] + [0] * (n // 2 - 1) + [1] + [0] * (n - n // 2 - 2) + [gf.p])
            check_divmod(quo * b + _rand(gf, n, -n), b)
    assert widths == [1, 2, 2, 4]


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_slots_wider_than_64_bits(n):
    # p = 2^32 + 15: one product of two coefficients already needs 65 bits
    gf = GF(4294967311)
    top = Poly(gf, [gf.p - 1] * n)
    assert _slot_bytes(gf.p - 1 + n * (gf.p - 1) ** 2) > 8
    check_mul(top, top)
    check_mul(_rand(gf, n, n), top)
    check_divmod(Poly(gf, [gf.p - 1] * (3 * n)), top)
    check_divmod(_rand(gf, 3 * n, n), _rand(gf, n + 1, -n))


# prime fields on both sides of 256 and of k (p - 1) < 256 at k = 2 (127
# and 131), extension fields of order up to 2^8, and the widest primes
PACK_FIELDS = [(p, r) for p in (2, 3, 5, 7, 127, 131, 257, 2**31 - 1, 2**40 - 87) for r in (1, 2, 3) if r == 1 or p**r <= 256]


@functools.lru_cache(maxsize=None)
def _pack_field(p, r):
    return GF(p, r)


@st.composite
def slot_args(draw):
    """(gf, k, coeffs, x): 0-40 elements of gf, and the int of as many
    groups of k-byte slots, each slot random or at the slot maximum."""
    gf = _pack_field(*draw(st.sampled_from(PACK_FIELDS)))
    k, n = draw(st.sampled_from([1, 2, 4, 8, 16])), draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = (1 << 8 * k) - 1
    slots = [top if rng.random() < 0.3 else rng.randrange(top + 1) for _ in range(n * (2 * gf.r - 1))]
    x = int.from_bytes(b"".join(s.to_bytes(k, "little") for s in slots), "little")
    return gf, k, [rng.randrange(gf.q) for _ in range(n)], x


def _slot_args(p, k, n):
    """n coefficients p - 1 over F_p, and n slots whose byte j is the b with
    b 256^j = p - 1 mod p, so every byte lane reads p - 1: the largest lane
    sums (over F_2, where 256 = 0, every byte is 255)."""
    slot = bytes((p - 1) * pow(256, -j, p) % p for j in range(k)) if p > 2 else b"\xff" * k
    return _pack_field(p, 1), k, [p - 1] * n, int.from_bytes(slot * n, "little")


@settings(max_examples=400, deadline=None)
@given(slot_args())
# 2-byte slots read by byte lanes at p = 127 (lane sums up to 2 * 126 < 256),
# slot by slot at 131, where two lanes could sum to 260
@example(_slot_args(127, 2, 40))
@example(_slot_args(131, 2, 40))
@example(_slot_args(2, 16, 40))  # byte lanes at the widest slot
def test_pack_and_unpack_match_the_slot_by_slot_kernel(args):
    gf, k, coeffs, x = args
    n = len(coeffs)
    assert list(_unpack(gf, x, n, k)) == unpack_slots(gf, x, n, k)
    if gf.p <= 1 << 8 * k:
        packed = _pack(gf, coeffs, k)
        assert packed == pack_slots(gf, coeffs, k)
        assert list(_unpack(gf, packed, n, k)) == coeffs


# ---------------------------------------------------------------- F_q[T]/P^N


@pytest.mark.parametrize("q, P, N", [(2, "T^2+T+1", 5), (3, "T^2+1", 4), (4, "T+(w)", 6), (5, "T+2", 3), (9, "T+1", 2)])
def test_padic_pow_matches_square_and_multiply(q, P, N):
    gf = FIELDS[q]
    ctx = PadicCtx(parse_poly(P, gf), N)
    rng = random.Random(q)
    n = ctx.modulus.degree
    x = ctx.elem(Poly(gf, [rng.randrange(gf.q) for _ in range(n)]))
    unit = x
    while unit.valuation_lower() > 0:
        unit = unit + ctx.one()
    for e in range(3 * q * q + 1):
        assert x ** e == plain_pow(x, e)
    assert x.frobenius() == plain_pow(x, q)
    for e in range(1, 2 * q + 2):
        assert unit ** -e == plain_pow(unit.inverse(), e)


# ---------------------------------------------------------------- Series


def school_series_mul(a: Series, b: Series) -> Series:
    gf = a.gf
    if (a.is_zero() and a.prec is None) or (b.is_zero() and b.prec is None):
        return a.zero(gf)
    pa = a.prec if a.prec is not None else INF
    pb = b.prec if b.prec is not None else INF
    prec = min(a._veff() + pb, b._veff() + pa)
    prec = None if prec == INF else prec
    if a.is_zero() or b.is_zero():
        return a.zero(gf, prec)
    out = {}
    for i, x in a.terms():
        for j, y in b.terms():
            k = i + j
            if prec is not None and k >= prec:
                continue
            out[k] = gf.add(out.get(k, 0), gf.mul(x, y))
    return a.from_terms(gf, out, prec)


def school_series_inverse(x: Series, prec=None) -> Series:
    if x.is_zero():
        raise DomainError("cannot invert (a truncation of) zero")
    gf = x.gf
    v = x.v
    own = None if x.prec is None else x.prec - 2 * v
    target = _min_prec(own, prec)
    if target is None:
        if len(x.coeffs) == 1:
            return x.monomial(gf, gf.inv(x.coeffs[0]), -v)
        raise PrecisionError("inverse of an exact multi-term series needs an explicit precision")
    n = int(target) + v
    if n <= 0:
        raise DomainError("requested inverse precision is vacuous")
    c = [x.digit(v + i) if (x.prec is None or v + i < x.prec) else 0 for i in range(n)]
    y = [0] * n
    inv0 = gf.inv(c[0])
    y[0] = inv0
    for m in range(1, n):
        acc = 0
        for i in range(1, m + 1):
            if i < len(c) and c[i] and y[m - i]:
                acc = gf.add(acc, gf.mul(c[i], y[m - i]))
        y[m] = gf.neg(gf.mul(inv0, acc))
    return x._new(-v, y, target)


SERIES_FIELDS = [2, 3, 4, 5, 9, 25]


@st.composite
def series(draw, gf, cls, max_len=80, nonzero=False):
    """An exact or truncated series with a valuation in -8..8; a precision at
    or below the first digit gives a truncated zero."""
    v = draw(st.integers(-8, 8))
    digits = draw(st.lists(st.integers(0, gf.q - 1), max_size=max_len))
    if nonzero:
        digits = [draw(st.integers(1, gf.q - 1))] + digits
    prec = draw(st.none() | st.integers(v - 3, v + len(digits) + 6))
    if nonzero and prec is not None:
        prec = max(prec, v + 1)
    return cls(gf, v, digits, prec)


@st.composite
def series_pairs(draw, max_len=80):
    gf = FIELDS[draw(st.sampled_from(SERIES_FIELDS))]
    cls = draw(st.sampled_from([InfLaurent, VqElem]))
    return draw(series(gf, cls, max_len)), draw(series(gf, cls, max_len))


@st.composite
def inverse_args(draw, max_len=80):
    """A nonzero series and a requested precision (None or at most 120 digits)."""
    gf = FIELDS[draw(st.sampled_from(SERIES_FIELDS))]
    x = draw(series(gf, draw(st.sampled_from([InfLaurent, VqElem])), max_len, nonzero=True))
    return x, draw(st.none() | st.integers(-x.v - 2, -x.v + 120))


@settings(max_examples=200, deadline=None)
@given(series_pairs(max_len=12), st.integers(0, 24))
def test_series_pow_matches_bottom_up(pair, e):
    # ** squares from the top bit of e down and so multiplies in another
    # order than the bottom-up loop; that must not change a digit
    x = pair[0]
    assert x ** e == plain_pow(x, e, x.one(x.gf))


def outcome(f, *args):
    """f(*args), or the type of the library error it raises."""
    try:
        return f(*args)
    except (DomainError, PrecisionError) as err:
        return type(err)


def _vq(q, v, digits, prec):
    return VqElem(FIELDS[q], v, digits, prec)


@settings(max_examples=200, deadline=None)
@given(series_pairs())
@example((_vq(3, 0, [], 4), _vq(3, -2, [1, 2], None)))  # truncated zero: empty, keeps prec 2
@example((_vq(3, 5, [], None), _vq(3, -2, [1, 2], 7)))  # exact zero
@example((_vq(25, -3, [7] * 60, 50), _vq(25, 4, [3] * 70, None)))
def test_series_mul_matches_schoolbook(pair):
    a, b = pair
    assert a * b == school_series_mul(a, b)
    assert a * a == school_series_mul(a, a)


@settings(max_examples=200, deadline=None)
@given(inverse_args())
@example((_vq(3, 2, [1, 1, 2], 9), -1))  # n = 1
@example((_vq(4, -3, [2], None), None))  # exact single term
@example((_vq(9, -3, [2, 1, 0, 5] * 20, None), 7))  # 80 digits, n = 4
@example((_vq(5, 1, [3, 0, 0], 3), 4))  # own precision below the request
def test_series_inverse_matches_schoolbook(args):
    x, prec = args
    assert outcome(x.inverse, prec) == outcome(school_series_inverse, x, prec)


# ---------------------------------------------------------------- coefficient vectors

# F_2 .. F_25 and the largest prime field under the cap
VEC_FIELDS = [FIELDS[q] for q in (2, 3, 4, 5, 8, 9, 25)] + [GF(2**40 - 87)]


def school_series(cls, gf, v, coeffs, prec):
    """cls(gf, v, coeffs, prec) normalized by the digit loop: cut at prec,
    pop leading zeros one at a time, then trailing zeros."""
    coeffs = list(coeffs)
    if prec is not None and prec - v < len(coeffs):
        coeffs = coeffs[: max(prec - v, 0)]
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        v += 1
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    x = cls.__new__(cls)
    x.gf, x.v, x.coeffs, x.prec = gf, v if coeffs else 0, tuple(coeffs), prec
    return x


def school_add(a, b):
    """a + b by one gf.add per digit: the shorter Poly vector added into a
    copy of the longer one, or both series' terms scattered into one vector."""
    gf = a.gf
    if isinstance(a, Poly):
        x, y = (a.coeffs, b.coeffs) if len(a.coeffs) >= len(b.coeffs) else (b.coeffs, a.coeffs)
        out = list(x)
        for i, c in enumerate(y):
            out[i] = gf.add(out[i], c)
        return Poly(gf, out)
    prec = _min_prec(a.prec, b.prec)
    if a.is_zero():
        return school_series(type(a), gf, b.v, b.coeffs, prec)
    if b.is_zero():
        return school_series(type(a), gf, a.v, a.coeffs, prec)
    lo = min(a.v, b.v)
    vec = [0] * (max(a.v + len(a.coeffs), b.v + len(b.coeffs)) - lo)
    for k, c in a.terms():
        vec[k - lo] = c
    for k, c in b.terms():
        vec[k - lo] = gf.add(vec[k - lo], c)
    return school_series(type(a), gf, lo, vec, prec)


def school_neg(a):
    gf = a.gf
    out = [gf.neg(c) for c in a.coeffs]
    return Poly(gf, out) if isinstance(a, Poly) else school_series(type(a), gf, a.v, out, a.prec)


def school_scale(c, a):
    gf = a.gf
    out = [gf.mul(c, x) for x in a.coeffs]
    return Poly(gf, out) if isinstance(a, Poly) else school_series(type(a), gf, a.v, out, a.prec)


def school_from_inf(x: InfLaurent) -> VqElem:
    """VqElem.from_inf through a dict of exponents, one gf.neg per odd one."""
    gf = x.gf
    e = gf.q - 1
    out = {}
    for k, c in x.terms():
        out[e * k] = gf.neg(c) if k % 2 else c
    prec = None if x.prec is None else e * x.prec
    if not out:
        return school_series(VqElem, gf, 0, (), prec)
    lo = min(out)
    vec = [0] * (max(out) - lo + 1)
    for k, c in out.items():
        vec[k - lo] = c
    return school_series(VqElem, gf, lo, vec, prec)


def school_to_inf(x: VqElem) -> InfLaurent:
    """VqElem.to_inf through a dict of exponents, one gf.neg per odd one."""
    gf = x.gf
    e = gf.q - 1
    out = {}
    for k, c in x.terms():
        if k % e:
            raise DomainError(f"digit at s-exponent {k} is outside the base-field lattice")
        out[k // e] = gf.neg(c) if k // e % 2 else c
    return InfLaurent.from_terms(gf, out, None if x.prec is None else -(-x.prec // e))


def vec_digits(gf, max_len):
    """Digits that often start or end in zeros and reach 0, 1 and q - 1."""
    elem = st.sampled_from([0, 1, gf.q - 1]) | st.integers(0, gf.q - 1)
    zeros = st.lists(st.just(0), max_size=4)
    return st.tuples(zeros, st.lists(elem, max_size=max_len), zeros).map(lambda t: t[0] + t[1] + t[2])


@st.composite
def vec_series(draw, gf, cls, max_len=40):
    """A series with a valuation in -8..8: exact, truncated, or a zero of
    either kind, before the constructor trims its zeros."""
    v = draw(st.integers(-8, 8))
    digits = draw(vec_digits(gf, max_len))
    prec = draw(st.none() | st.integers(v - 3, v + len(digits) + 6))
    return v, digits, prec


@st.composite
def vec_args(draw, kind):
    """Two operands of one type over one field, and a scalar."""
    gf = draw(st.sampled_from(VEC_FIELDS))
    c = draw(st.sampled_from([0, 1, gf.q - 1]) | st.integers(0, gf.q - 1))
    if kind is Poly:
        return Poly(gf, draw(vec_digits(gf, 40))), Poly(gf, draw(vec_digits(gf, 40))), c
    cls = draw(st.sampled_from([InfLaurent, VqElem]))
    return cls(gf, *draw(vec_series(gf, cls))), cls(gf, *draw(vec_series(gf, cls))), c


def check_vector_ops(a, b, c):
    assert a + b == school_add(a, b)
    assert a - b == school_add(a, school_neg(b))
    assert b - a == school_add(b, school_neg(a))
    assert -a == school_neg(a)
    assert a.scale(c) == school_scale(c, a)
    # cancellation: an exact zero, or a zero truncated at a's precision
    assert a - a == school_add(a, school_neg(a))
    assert (a - a).is_zero()


@settings(max_examples=300, deadline=None)
@given(vec_args(Poly))
@example((Poly(GF(2**40 - 87), [2**40 - 88, 5, 0]), Poly(GF(2**40 - 87), [1, 2**40 - 92]), 2**40 - 88))
@example((Poly(FIELDS[9], [3, 0, 7]), Poly(FIELDS[9], [6, 1, 7]), 0))  # the top digits cancel
def test_poly_vector_ops_match_digit_loops(args):
    check_vector_ops(*args)


@settings(max_examples=250, deadline=None)
@given(vec_args(Series))
@example((_vq(3, 0, [], None), _vq(3, -2, [0, 1, 2, 0], 5), 2))  # exact zero
@example((_vq(4, 0, [], 4), _vq(4, 7, [1, 2], None), 3))  # truncated zero
@example((_vq(25, -8, [7] * 20, 10), _vq(25, 8, [3] * 20, None), 24))  # disjoint spans
@example((_vq(5, -3, [1, 2, 3], None), _vq(5, -3, [4, 3], None), 1))  # leading digits cancel
def test_series_vector_ops_match_digit_loops(args):
    check_vector_ops(*args)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VEC_FIELDS).flatmap(lambda gf: st.tuples(st.just(gf), vec_series(gf, VqElem))))
@example((FIELDS[3], (-2, [0, 0, 1, 0, 2, 0, 0], 1)))  # zeros trimmed at both ends and by prec
@example((FIELDS[3], (4, [0, 0, 0], 9)))  # all zeros: a truncated zero
@example((FIELDS[3], (4, [1, 2], 2)))  # prec below v: a truncated zero
def test_series_constructor_matches_digit_loop(args):
    gf, (v, digits, prec) = args
    assert VqElem(gf, v, digits, prec) == school_series(VqElem, gf, v, digits, prec)
    assert VqElem(gf, v, tuple(digits), prec) == school_series(VqElem, gf, v, digits, prec)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(VEC_FIELDS[:-1]).flatmap(lambda gf: st.tuples(st.just(gf), vec_series(gf, InfLaurent))))
@example((FIELDS[3], (-3, [1, 2, 0, 1], 1)))  # odd v, truncated
@example((FIELDS[5], (-3, [2, 2, 4, 1, 3], None)))  # odd v, exact
@example((FIELDS[2], (1, [1, 1], None)))  # q = 2: ramification 1 and -1 = 1
@example((FIELDS[9], (0, [], 3)))  # truncated zero
def test_from_inf_and_to_inf_match_dict_versions(args):
    gf, (v, digits, prec) = args
    x = InfLaurent(gf, v, digits, prec)
    assert VqElem.from_inf(x) == school_from_inf(x)
    assert VqElem.from_inf(x).to_inf() == x
    # a precision off the lattice rounds up; a digit off it raises
    y = VqElem(gf, v, digits, prec)
    assert outcome(y.to_inf) == outcome(school_to_inf, y)
    f = Poly(gf, digits)
    assert InfLaurent.from_poly(f) == InfLaurent.from_terms(gf, {-i: c for i, c in enumerate(f.coeffs) if c})
    assert VqElem.from_poly(f) == school_from_inf(InfLaurent.from_poly(f))


@settings(max_examples=200, deadline=None)
@given(inverse_args(max_len=12), st.integers(1, 3), st.integers(-4, 30))
@example((_vq(3, -1, [1], None), None), 1, 16)  # exact single term
@example((_vq(3, -1, [1, 2, 1], 30), None), 2, 16)  # truncated multi-term
@example((_vq(5, 2, [3, 1], 4), None), 1, 20)  # alpha's own precision binds: O(s^-6)
def test_eisenstein_term_matches_inverse_then_power(args, k, prec):
    # alpha^(-e) as one inverse of alpha^e claims exactly the digits of the
    # inverse of alpha at the longer precision raised to the e-th power
    alpha = args[0]
    e = (alpha.gf.q - 1) * k
    old = outcome(lambda: alpha.inverse(prec=max(prec + (e - 1) * alpha.v, -alpha.v + 1)) ** e)
    new = outcome(lambda: (alpha**e).inverse(prec=max(prec, 1 - e * alpha.v)))
    assert new == old


@st.composite
def vq_pairs(draw, max_len=40):
    gf = FIELDS[draw(st.sampled_from(SERIES_FIELDS))]
    return draw(series(gf, VqElem, max_len)), draw(series(gf, VqElem, max_len))


@settings(max_examples=200, deadline=None)
@given(vq_pairs())
@example((_vq(3, 0, [], None), _vq(3, 0, [], None)))  # exact zeros
@example((_vq(3, 0, [], 4), _vq(3, -2, [1, 2], None)))  # truncated zero u
@example((_vq(5, 0, [], 2), _vq(5, 0, [], 1)))  # truncated zeros
@example((_vq(4, -3, [1, 0, 2], 6), _vq(4, -1, [3, 1], 2)))  # truncated, v^q binds
def test_divide_T_step_matches_product_by_inverse_T(pair):
    # divide_T's step (v^q - u) shifted by q - 1 against (u - v^q) times the
    # exact monomial 1/T = -s^(q-1), digits and precision alike
    u, v = pair
    gf = u.gf
    inv_T = VqElem.monomial(gf, gf.neg(1), gf.q - 1)
    assert (v.frobenius() - u).shifted(gf.q - 1) == (u - v.frobenius()) * inv_T


def completed_action_stepwise(M, u):
    """The completed action with the polynomial part gathered term by term,
    each tail digit and valuation read through its checks, and the bound on
    M's unknown terms taken one rho_T step at a time: the oracle for
    completed_action's single read of M's digits."""
    gf = u.gf
    if isinstance(M, Poly):
        return carlitz_act(M, u)
    acc = VqElem.zero(gf)
    poly_coeffs = {}
    depth = 0
    for k, c in M.terms():
        if k <= 0:
            poly_coeffs[-k] = c
        else:
            depth = max(depth, k)
    if poly_coeffs:
        n = max(poly_coeffs)
        vec = [poly_coeffs.get(i, 0) for i in range(n + 1)]
        acc = acc + carlitz_act(Poly(gf, vec), u)
    if depth:
        chain = division_chain(u, depth)
        prev_val = None
        for k in range(1, depth + 1):
            a = M.digit(k) if (M.prec is None or k < M.prec) else 0
            vk = chain[k - 1]
            try:
                val = vk.valuation()
            except BelowPrecision:
                val = vk.prec
            if prev_val is not None and val is not None and val < prev_val:
                raise CarlitzError(
                    f"tail term {k} has valuation {val} < previous {prev_val}; "
                    "division tail fails to converge"
                )
            prev_val = val
            if a:
                acc = acc + vk.scale(a)
    if M.prec is None:
        return acc
    # the unknown a_k T^-k, k >= max(p, 1), and, when p <= 0, the unknown
    # a_-j rho_{T^j}(u), 0 <= j <= -p
    q, b = gf.q, u._veff()
    bounds = [b + (q - 1) * max(M.prec, 1)]
    for j in range(-M.prec + 1):
        bounds.append(b)
        b = min(q * b, b - (q - 1))
    return acc.truncate(min(bounds))


@st.composite
def completed_args(draw):
    """M at infinity, zero, polynomial-only, principal-only or both, exact or
    truncated (at a precision that may be <= 0); u in V_q with v(u) from
    -q to 6, exact or truncated."""
    gf = FIELDS[draw(st.sampled_from([2, 3, 4, 5]))]
    digit = st.integers(0, gf.q - 1)
    exps = draw(st.sampled_from([None, (-3, 0), (1, 4), (-3, 4)]))
    terms = {} if exps is None else draw(st.dictionaries(st.integers(*exps), digit, max_size=5))
    M = InfLaurent.from_terms(gf, terms, draw(st.none() | st.integers(-5, 6)))
    v = draw(st.integers(-gf.q, 6))
    digits = draw(st.lists(digit, max_size=10))
    u = VqElem(gf, v, digits, draw(st.none() | st.integers(v - 2, v + len(digits) + 6)))
    return M, u


def raised(f, *args):
    """f(*args), or the type and message of the library error it raises."""
    try:
        return f(*args)
    except CarlitzError as err:
        return type(err), str(err)


@settings(max_examples=300, deadline=None)
@given(completed_args())
@example((InfLaurent.zero(FIELDS[3]), _vq(3, -1, [1, 0, 2], 9)))  # M exact zero
@example((InfLaurent.zero(FIELDS[3], -2), _vq(3, -1, [1, 0, 2], 9)))  # truncated zero, prec < 0
@example((InfLaurent(FIELDS[4], -2, [1, 0, 3], None), _vq(4, 1, [2, 1], None)))  # polynomial only
@example((InfLaurent(FIELDS[5], 1, [2, 0, 1], None), _vq(5, 1, [3], 12)))  # principal only
@example((InfLaurent(FIELDS[2], -1, [1, 1, 1, 1], 0), _vq(2, 0, [1, 1], 8)))  # prec 0 cuts the tail
def test_completed_action_matches_stepwise(args):
    assert raised(completed_action, *args) == raised(completed_action_stepwise, *args)


# ---------------------------------------------------------------- closed forms at infinity


def divide_T_fixed_point(u: VqElem, prec=None) -> list:
    """divide_T by iterating v <- (v^q - u) s^(q-1) from 0 until v is stable,
    within a cap read off the precision: an oracle for the digit placement."""
    gf = u.gf
    q = gf.q
    vu = u._veff()
    if vu <= -q:
        raise PrecisionError(
            f"argument valuation {vu} <= -{q}; the contraction does not converge"
        )
    if u.prec is None and not u.is_zero():
        work = prec if prec is not None else u.v + 10 * (q - 1)
        u = u.truncate(work)
    elif prec is not None:
        u = u.truncate(prec)
    budget = 2 if u.prec is None else u.prec - min(vu, 0) + q + 2
    v = VqElem.zero(gf)
    for _ in range(max(budget, 4)):
        v_new = (v.frobenius() - u).shifted(q - 1)
        if v_new == v:
            break
        v = v_new
    return [v] + [v + VqElem.monomial(gf, z, -1) for z in range(1, q)]


def divide_T_frobenius_sum(u: VqElem, prec=None) -> list:
    """divide_T as the series sum of w^(q^k) s^(q^k - 1), w = u/T, each
    Frobenius image cut to the digits its successor needs before it is
    spread: the oracle for the digit placement."""
    gf = u.gf
    q = gf.q
    vu = u._veff()
    if vu <= -q:
        raise PrecisionError(
            f"argument valuation {vu} <= -{q}; the contraction does not converge"
        )
    if u.prec is None and not u.is_zero():
        work = prec if prec is not None else u.v + 10 * (q - 1)
        u = u.truncate(work)
    elif prec is not None:
        u = u.truncate(prec)
    w = (-u).shifted(q - 1)
    v, image, e = VqElem.zero(gf, w.prec), w, 0
    while image.coeffs:
        v = v + image.shifted((q - 1) * e)
        # the next term keeps the digits of image^q below w.prec - (q-1) e_(k+1)
        e = q * e + 1
        image = image.truncate(-((e * (q - 1) - w.prec) // q)).frobenius()
    return [v] + [v + VqElem.monomial(gf, z, -1) for z in range(1, q)]


def kummer_solve_newton(M: InfLaurent) -> VqElem:
    """kummer_solve by Newton's iteration for Y^(q-1) = U from Y = 1: the
    oracle for the Frobenius product."""
    gf = M.gf
    q = gf.q
    if M.is_zero():
        raise DomainError("zero has no nonzero (q-1)-st root; kappa(0) = 0")
    m = M.v
    U = M.shifted(-m).scale(gf.neg(1) if m % 2 else 1)
    eta = U.coeffs[0]
    if eta != 1:
        raise CarlitzError(
            f"residue {gf.fmt_elem(eta)} is not a (q-1)-st power in F_q; "
            "no root exists in this completion"
        )
    prec = U.prec
    if prec is None:
        prec = max(10, 2 * (q - 1))
        U = U.truncate(prec)
    # g(Y) = Y^(q-1) - U, g'(Y) = -Y^(q-2) as q - 1 = -1 mod p
    Y = InfLaurent.one(gf, prec)
    for _ in range(prec + 2):
        g = Y ** (q - 1) - U
        if g.is_zero():
            break
        dg = (Y ** (q - 2)).scale(gf.neg(1)) if q > 2 else InfLaurent.one(gf, prec)
        Y = Y - g / dg
    return VqElem.from_inf(Y).shifted(m)


CLOSED_FORM_FIELDS = [2, 3, 4, 5, 7, 8, 9]


@st.composite
def frobenius_sum_args(draw, working=lambda q, v: st.none() | st.integers(-q, v + 24)):
    """u in V_q with v(u) from -q + 1 to 6, exact, truncated or truncated to
    zero (then possibly at or below -q), and a working precision or None
    drawn by ``working`` from q and v."""
    gf = FIELDS[draw(st.sampled_from(CLOSED_FORM_FIELDS))]
    q = gf.q
    v = draw(st.integers(-q + 1, 6))
    digits = draw(st.lists(st.integers(0, q - 1), max_size=20))
    u = VqElem(gf, v, digits, draw(st.none() | st.integers(v - 3, v + len(digits) + 6)))
    return u, draw(working(q, v))


@settings(max_examples=300, deadline=None)
@given(frobenius_sum_args())
@example((_vq(3, 0, [], None), None))  # exact zero: exact zero branch
@example((_vq(3, 0, [], None), 4))  # exact zero at a working precision
@example((_vq(5, 2, [], 2), None))  # truncated zero
@example((_vq(4, -3, [1, 2, 3], None), None))  # exact, v(u) = -q + 1
@example((_vq(9, 0, [1] * 20, 20), -9))  # working precision -q: nothing certified
@example((_vq(2, -1, [1, 1], 40), None))  # v(w) = 0: every Frobenius image kept
# characteristic 2: w's digits at 0 and q - 1 meet at q - 1, q^2 - 1, ... and cancel
@example((_vq(4, -3, [2, 0, 0, 2], 20), None))
@example((_vq(8, -7, [1, 0, 0, 0, 0, 0, 0, 1], 70), None))
@example((_vq(3, -2, [1], 7), None))  # w = s^0 at P = 9: q^2 (0+1) - 1 is the last slot
def test_divide_T_matches_fixed_point(args):
    # the digit placement has the Frobenius sum's and the fixed point's
    # digits and precision
    new = outcome(divide_T, *args)
    assert new == outcome(divide_T_frobenius_sum, *args)
    assert new == outcome(divide_T_fixed_point, *args)


@pytest.mark.parametrize("q", [3, 4])
def test_divide_T_spreads_no_series(q, monkeypatch):
    # each branch is built from one digit list: no Frobenius image and no
    # series sum, in one T-division or a chain of them
    calls = []
    gf = FIELDS[q]
    rng = random.Random(q)
    us = []
    for _ in range(20):
        v = rng.randint(-q + 1, 6)
        digits = [rng.randrange(1, q)] + [rng.randrange(q) for _ in range(rng.randint(0, 12))]
        us.append(VqElem(gf, v, digits, rng.choice([None, v + len(digits) + rng.randint(0, 20)])))

    def counted(name):
        method = getattr(Series, name)

        def wrapper(*args):
            calls.append(name)
            return method(*args)

        return wrapper

    for name in ("frobenius", "_combine"):
        monkeypatch.setattr(Series, name, counted(name))
    for u in us:
        assert len(divide_T(u)) == q
        assert len(division_chain(u, 4)) == 4
    assert calls == []


def test_divide_T_at_large_q_is_the_quotient_by_T():
    # at q = 4099, q (j + 1) - 1 >= q^2 - q - 1 lies past P for every digit
    # of w, so the canonical branch is w = -u*s^(q-1) itself
    gf = GF(4099)
    u = VqElem(gf, -1, [1, 0, 3], 10)
    (canon,) = division_chain(u, 1)
    assert canon == (-u).shifted(gf.q - 1) and canon.prec == 10 + gf.q - 1


@pytest.mark.parametrize(
    "u, prec, refused",
    [
        (_vq(3, -1, [1], None), 2**24 - 1, False),  # P - v(w) = 2^24, at the cap
        (_vq(3, -1, [1], None), 2**24, True),
        (_vq(9, 0, [1], None), 2**27 // 9 - 9, False),  # 9 (P + 1) = 2^27 - 8
        (_vq(9, 0, [1], None), 2**27 // 9 - 8, True),
    ],
)
def test_divide_T_caps(u, prec, refused, monkeypatch):
    # the caps are read off P and v(w), before any digit list is built
    def no_sum(w):
        raise AssertionError("digit list built")

    monkeypatch.setattr(torsion_module, "_frobenius_sum", no_sum)
    if refused:
        with pytest.raises(DomainError, match="above the supported maximum"):
            divide_T(u, prec)
    else:
        with pytest.raises(AssertionError, match="digit list built"):
            divide_T(u, prec)


@settings(max_examples=100, deadline=None)
@given(frobenius_sum_args(working=lambda q, v: st.integers(-q - 8, -q - 1)))
def test_divide_T_below_minus_q_is_vacuous_and_finer(args):
    # a working precision below -q certifies no digit of any branch (the
    # canonical one has valuation >= 0); the sum reports O(s^(prec + q - 1)),
    # where the fixed point's precision fell by a factor of q per step
    u, prec = args
    new, old = outcome(divide_T, u, prec), outcome(divide_T_fixed_point, u, prec)
    if not isinstance(old, list):
        assert new is old is PrecisionError
        return
    for n, o in zip(new, old):
        assert n.is_zero() and n.prec == prec + u.gf.q - 1
        assert n.agrees(o) and n.prec >= o.prec


@st.composite
def frobenius_product_args(draw):
    """M at infinity with valuation -6..6, exact, truncated or truncated to
    zero, whose unit part has residue 1 or, now and then, another one."""
    gf = FIELDS[draw(st.sampled_from(CLOSED_FORM_FIELDS))]
    m = draw(st.integers(-6, 6))
    residue = draw(st.sampled_from([1] * 4 + list(range(2, gf.q))))
    digits = [gf.neg(residue) if m % 2 else residue] + draw(st.lists(st.integers(0, gf.q - 1), max_size=30))
    return InfLaurent(gf, m, digits, draw(st.none() | st.integers(m - 1, m + len(digits) + 6)))


@settings(max_examples=300, deadline=None)
@given(frobenius_product_args())
@example(InfLaurent(FIELDS[2], 3, [1, 1, 0, 1], None))  # q = 2: the root is U itself
@example(InfLaurent(FIELDS[3], -2, [1], 1))  # prec - m = 3 = q: one factor
@example(InfLaurent(FIELDS[3], 0, [1, 2, 2, 1], 4))  # prec 4 > q: two factors
@example(InfLaurent(FIELDS[9], 1, [2, 5, 3], None))  # exact, leading digit -1 at odd m: working precision 16
@example(InfLaurent(FIELDS[9], 1, [8, 5, 3], None))  # U has residue w+1: no root
def test_kummer_solve_matches_newton(M):
    # the Frobenius product has Newton's digits and precision, and the same
    # errors
    assert raised(kummer_solve, M) == raised(kummer_solve_newton, M)


@settings(max_examples=200, deadline=None)
@given(frobenius_sum_args(working=lambda q, v: st.none()), st.integers(1, 8))
def test_division_chain_valuations_rise_by_q_minus_1(args, depth):
    # each T-division raises the valuation by exactly q - 1: its leading term
    # is w = u/T and every later one is strictly higher; so completed_action
    # needs no check that its tail converges
    u = args[0]
    assume(u._veff() > -u.gf.q)
    vals = [x._veff() for x in [u] + division_chain(u, depth)]
    assert all(b == a + u.gf.q - 1 for a, b in zip(vals, vals[1:]))


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(CLOSED_FORM_FIELDS),
    st.integers(-16, 12),
    st.none() | st.integers(1, 60),
    st.integers(1, 10),
    st.integers(1, 80),
)
def test_carlitz_exp_certificate_never_falls_after_it_rises(q, v, rel, terms, prec):
    # the term valuations q^n (v + (q-1) n) fall, staying at or below v, then
    # rise for good; so e(z) needs no check that they keep rising, and the
    # first one at or past the cutoff certifies the tail
    gf = FIELDS[q]
    z = VqElem.monomial(gf, 1, v, None if rel is None else v + rel)
    budget = SeriesBudget(term_count=terms, precision=prec)
    try:
        _, cert = carlitz_exp(z, budget, with_certificate=True)
    except CarlitzError as err:
        assert str(err).startswith(f"term budget {terms} exhausted")
        return
    vals = list(cert.values())
    steps = [b - a for a, b in zip(vals, vals[1:])]
    rise = next((i for i, d in enumerate(steps) if d > 0), len(steps))
    assert all(d <= 0 for d in steps[:rise]) and all(d > 0 for d in steps[rise:])
    assert all(x <= v for x in vals[: rise + 1])


def test_carlitz_exp_at_precision_300():
    # five divisions by D_n with up to about 1300 digits: quadratic with the
    # digit loop (over a minute), a few hundredths of a second by reversal
    gf = FIELDS[3]
    z = parse_series("s^-1 + 2 + s^3 + O(s^300)", gf, VqElem)
    budget = SeriesBudget(precision=300, term_count=40)
    e, cert = carlitz_exp(z, budget, with_certificate=True)
    assert (e.v, e.prec, cert) == (-1, 300, {0: -1, 1: 3, 2: 27, 3: 135, 4: 567})
    # e(z) = e(T w) = rho_T(e(w)) for w = z / T; w has valuation 1, where the
    # exponential's terms increase from the first one on (T z would not: its
    # first two terms tie at valuation -3)
    T = Poly.T(gf)
    w = z * VqElem.monomial(gf, gf.neg(1), gf.q - 1)
    rhs = carlitz_act(T, carlitz_exp(w, budget))
    assert rhs.prec >= e.prec - 2 and e.agrees(rhs)


def spread_carlitz_exp(z: VqElem, budget: SeriesBudget) -> VqElem:
    """carlitz_exp with each z^(q^n) taken in full before it is cut."""
    gf = z.gf
    q = gf.q
    prec = min(budget.precision, z.prec) if z.prec is not None else budget.precision
    if z.is_zero() and z.prec is None:
        return VqElem.zero(gf)
    if z.is_zero():
        # O(s^p) reaches the least q^n (p + (q-1) n) of its terms, n <= -p
        return VqElem.zero(gf, min([prec] + [q**n * (z.prec + (q - 1) * n) for n in range(-z.prec + 1)]))
    v = z.valuation()
    acc, zq, Ds = VqElem.zero(gf), z, D_sequence(gf)
    for n in range(budget.term_count):
        if q**n * (v + (q - 1) * n) >= prec:
            return acc.truncate(prec)
        acc = acc + zq.truncate(prec) / VqElem.from_poly(next(Ds))
        zq = zq.frobenius()
    raise CarlitzError(f"term budget {budget.term_count} exhausted")


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 4, 5, 9]),
    st.integers(-3, 4),
    st.lists(st.integers(0, 8), min_size=1, max_size=30),
    st.none() | st.integers(-12, 60),
    st.integers(1, 80),
)
def test_carlitz_exp_cuts_each_power_before_the_frobenius(q, v, digits, prec, target):
    # only the digits of z^(q^n) below ceil(prec/q) reach the next term's
    # digits below prec, whatever the sign of prec
    gf = FIELDS[q]
    z = VqElem(gf, v, [1] + [c % q for c in digits], prec)
    budget = SeriesBudget(term_count=12, precision=target)
    assert carlitz_exp(z, budget) == spread_carlitz_exp(z, budget)


def test_carlitz_exp_of_a_long_gap_answers():
    # z^3 in full would reach s^27000, and z^9 past the 2^24 cap; only the
    # digits below 20000 are kept, where e(s^9000) is s^9000 alone
    gf = FIELDS[3]
    budget = SeriesBudget(term_count=10, precision=20000)
    gap = VqElem.monomial(gf, 1, 9000)
    e = carlitz_exp(VqElem.monomial(gf, 1, 1) + gap, budget)
    assert e == carlitz_exp(VqElem.monomial(gf, 1, 1), budget) + gap.truncate(20000)


def test_carlitz_exp_of_a_truncated_zero_stops_at_the_cap():
    # over F_2, O(s^p) reaches 2^n (p + n), least at n = -p - 2: -2^(-p-1),
    # found without a loop over n or a power past the cap
    gf = FIELDS[2]
    assert carlitz_exp(VqElem.zero(gf, -25)) == VqElem.zero(gf, -(2**24))
    for p in (-26, -(10**9)):
        with pytest.raises(DomainError, match="below the supported -2"):
            carlitz_exp(VqElem.zero(gf, p))


# ---------------------------------------------------------------- torsion search


def _slope_data(M: Poly):
    """s-valuations of the operator coefficients c_i, indexed by Frobenius
    power, and the c_i."""
    cs = carlitz_operator(M).coeffs
    return [(i, -(M.gf.q - 1) * c.degree) for i, c in enumerate(cs) if not c.is_zero()], cs


def search_torsion_vq(M: Poly, prec: int) -> TorsionSetVq:
    """torsion_vq with the digit image rebuilt for every candidate, and each
    T^j read as (-1)^j s^(-(q-1) j)."""
    gf = M.gf
    q = gf.q
    coeff_vals, cs = _slope_data(M)
    cands = [({}, {})]
    for k in range(-1, prec):
        floor_next = min(v + (q ** i) * (k + 1) for i, v in coeff_vals)
        contrib = []
        for i, _ in coeff_vals:
            c = cs[i]
            terms = [
                ((q - 1) * (-j) + k * (q ** i), (1 if (j % 2 == 0) else -1), cj)
                for j, cj in enumerate(c.coeffs)
                if cj
            ]
            contrib.append((i, terms))
        nxt = []
        for digits, image in cands:
            for a in range(q):
                if a == 0:
                    new_digits, new_image = digits, image
                else:
                    new_digits = dict(digits)
                    new_digits[k] = a
                    new_image = dict(image)
                    for i, terms in contrib:
                        apow = gf.pow(a, q ** i)
                        for exp, sgn, cj in terms:
                            val = gf.mul(cj, apow)
                            if sgn < 0:
                                val = gf.neg(val)
                            cur = gf.add(new_image.get(exp, 0), val)
                            if cur:
                                new_image[exp] = cur
                            else:
                                new_image.pop(exp, None)
                if all(e >= floor_next for e in new_image):
                    nxt.append((new_digits, new_image))
        cands = nxt
    if len(cands) != q ** M.degree:
        raise PrecisionError(
            f"found {len(cands)} root truncations, expected {q ** M.degree}; "
            f"increase precision beyond {prec}",
            needed=max(prec + 1, min_separating_prec(M)),
        )
    return TorsionSetVq(M, prec, [VqElem.from_terms(gf, digs, prec) for digs, _ in cands])


def kernel_torsion_vq(M: Poly, prec: int) -> TorsionSetVq:
    """torsion_vq as the kernel of rho_M on digit vectors.

    With rho_M(x) = sum c_i x^(q^i) and E_i = VqElem.from_poly(c_i), a
    truncation x = sum_{k=-1}^{prec-1} a_k s^k is a root exactly when
    rho_M(x) has no digit below F = min_i (v(E_i) + q^i * prec).  rho_M is
    F_q-linear on the digit vector, so the roots are the kernel of the map
    taking s^k to the digits of sum_i E_i s^(k q^i) below F, found by
    reducing the rows (image of s^k | unit vector k)."""
    gf = M.gf
    q, d = gf.q, M.degree
    if d == 0:
        return TorsionSetVq(M, prec, [VqElem.zero(gf, prec)])
    width = prec + 1
    E = [(q**i, list(VqElem.from_poly(c).terms())) for i, c in enumerate(carlitz_operator(M).coeffs)]
    floor = min(digits[0][0] + Q * prec for Q, digits in E)
    images = []
    for k in range(-1, prec):
        image = {}
        for Q, digits in E:
            for exp, c in digits:
                exp += k * Q
                if exp >= floor:
                    break
                image[exp] = gf.add(image.get(exp, 0), c)
        images.append(image)
    exps = sorted(set().union(*images))
    n = len(exps)
    rows = [[im.get(e, 0) for e in exps] + [int(j == k) for j in range(width)] for k, im in enumerate(images)]
    basis = [row[n:] for row in echelon(gf, rows, n + width) if not any(row[:n])]
    assert len(basis) == d
    return TorsionSetVq(M, prec, [VqElem(gf, -1, p, prec) for p in span(gf, basis, width)])


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 27])
def test_torsion_vq_matches_the_kernel_matrix(q):
    gf = FIELDS[q]
    rng = random.Random(q)
    for d in (0, 1, 2, 3):
        M = _rand(gf, d + 1, rng.random())
        sep = min_separating_prec(M)
        # 27^3 points: the two listings dominate, so every twentieth precision
        for prec in range(sep, sep + 41, 20 if q**d > 729 else 1):
            got = torsion_vq(M, prec)
            assert got.to_json() == kernel_torsion_vq(M, prec).to_json()
            # the basis is points[q^j], j < d; rho_M kills each to its precision
            for j in range(d):
                assert carlitz_act(M, got.points[q**j]).is_zero()


# the extension fields q = 8 and 27 take two precisions each: the search
# oracle over 27^2 points is the slowest case here
TORSION_ORDERS = [
    (q, d) for q in (2, 3, 4, 5, 9) for d in (1, 2, 3) if q ** d <= 243
] + [(8, 1), (8, 2), (27, 1), (27, 2)]


@pytest.mark.parametrize("q, d", TORSION_ORDERS)
def test_torsion_vq_matches_per_candidate_search(q, d):
    gf = FIELDS[q]
    rng = random.Random(100 * q + d)
    for M in (Poly.one(gf).shift(d), _rand(gf, d + 1, rng.random())):
        sep = min_separating_prec(M)
        top = sep + 1 if q in (8, 27) else max(2 * sep, 4)
        for prec in range(sep, top + 1):
            got, want = torsion_vq(M, prec), search_torsion_vq(M, prec)
            assert got.to_json() == want.to_json()
            assert [str(x) for x in got] == [str(x) for x in want]
        if d == 1:
            # min_separating_prec is 0 for d = 1: below that the truncation
            # cannot hold q roots, and the one rule for every d refuses it
            for prec in (-2, -1):
                with pytest.raises(PrecisionError) as got:
                    torsion_vq(M, prec)
                with pytest.raises(PrecisionError) as want:
                    search_torsion_vq(M, prec)
                assert str(got.value) == f"precision {prec} cannot separate the roots; need at least 0"
                # the least precision that holds the q roots is 0 = sep
                needed = got.value.needed
                assert needed == want.value.needed == sep == 0
                assert len(torsion_vq(M, needed)) == q
                with pytest.raises(PrecisionError):
                    torsion_vq(M, needed - 1)


def test_torsion_vq_refuses_huge_sets():
    # 256^6 = 2^48 points; refused before rho_M is built
    gf = GF(2, 8)
    with pytest.raises(DomainError, match="above the supported maximum 2"):
        torsion_vq(Poly.one(gf).shift(6), 10)
    gf = GF(2)
    with pytest.raises(DomainError):
        torsion_vq(Poly.one(gf).shift(17), 20)
    assert len(torsion_vq(Poly.one(gf).shift(3), 4)) == 8


# (q, P, N, M, prec) -> the two sets' to_json(), key order included, and
# the position of each point, in iteration order, among the sorted "points"
TORSION_SET_CONTRACT = {
    (2, "T^2+T+1", 2, "T^2", 2): (
        '{"q": 2, "P": "T^2+T+1", "order": "T^2+T", "precision": 2, "points": ["0", "1", "T", "T+1"]}',
        [0, 1, 2, 3],
        '{"q": 2, "M": "T^2", "precision": 2, "points": ["1 + s + O(s^2)", "O(s^2)", "s^-1 + 1 + s + O(s^2)", '
        '"s^-1 + O(s^2)"]}',
        [1, 0, 3, 2],
    ),
    (3, "T^2+1", 2, "T^2+1", 3): (
        '{"q": 3, "P": "T^2+1", "order": "T^2", "precision": 2, "points": ["0", "2*T^2+2*T+2", "2*T^3+2", '
        '"2*T^3+2*T^2+2*T+1", "2*T^3+T^2+T", "T^2+T+1", "T^3+1", "T^3+2*T^2+2*T", "T^3+T^2+T+2"]}',
        [0, 8, 3, 5, 7, 2, 1, 6, 4],
        '{"q": 3, "M": "T^2+1", "precision": 3, "points": ["2*s + O(s^3)", "2*s^-1 + 2*s + O(s^3)", '
        '"2*s^-1 + O(s^3)", "2*s^-1 + s + O(s^3)", "O(s^3)", "s + O(s^3)", "s^-1 + 2*s + O(s^3)", '
        '"s^-1 + O(s^3)", "s^-1 + s + O(s^3)"]}',
        [4, 5, 0, 7, 8, 6, 2, 3, 1],
    ),
    (4, "T+w", 2, "T+w", 1): (
        '{"q": 4, "P": "T+w", "order": "T+(w+1)", "precision": 2, "points": ["(w+1)*T+w", "0", "T+(w+1)", '
        '"w*T+1"]}',
        [1, 2, 3, 0],
        '{"q": 4, "M": "T+w", "precision": 1, "points": ["(w+1)*s^-1 + O(s^1)", "O(s^1)", "s^-1 + O(s^1)", '
        '"w*s^-1 + O(s^1)"]}',
        [1, 2, 3, 0],
    ),
    (9, "T+w", 2, "T", 1): (
        '{"q": 9, "P": "T+w", "order": "T+(w+2)", "precision": 2, "points": ["(2*w+1)*T+2", "(2*w+2)*T+w", '
        '"(w+1)*T+2*w", "(w+2)*T+1", "0", "2*T+(2*w+2)", "2*w*T+(2*w+1)", "T+(w+1)", "w*T+(w+2)"]}',
        [4, 7, 5, 8, 2, 3, 6, 0, 1],
        '{"q": 9, "M": "T", "precision": 1, "points": ["(2*w+1)*s^-1 + O(s^1)", "(2*w+2)*s^-1 + O(s^1)", '
        '"(w+1)*s^-1 + O(s^1)", "(w+2)*s^-1 + O(s^1)", "2*s^-1 + O(s^1)", "2*w*s^-1 + O(s^1)", "O(s^1)", '
        '"s^-1 + O(s^1)", "w*s^-1 + O(s^1)"]}',
        [6, 7, 4, 8, 2, 3, 5, 0, 1],
    ),
}


@pytest.mark.parametrize("key", sorted(TORSION_SET_CONTRACT))
def test_torsion_sets_keep_their_contract(key):
    # what a caller of either set relies on, byte for byte: the JSON, the
    # iteration order and length, membership, and a rebuild from a point list
    q, P, N, M, prec = key
    gf = FIELDS[q]
    P = parse_poly(P, gf)
    padic, vq = torsion_padic(P, N), torsion_vq(parse_poly(M, gf), prec)
    padic_json, padic_order, vq_json, vq_order = TORSION_SET_CONTRACT[key]
    # a point plus P^(N-1) lies over the same residue class, whose one root it
    # is not; a point plus s^(prec-1) is no truncation of a root, as prec > sep
    bumps = [padic.ctx.elem(P ** (N - 1)), VqElem.monomial(gf, 1, prec - 1, prec)]
    for ts, want, order, bump in ((padic, padic_json, padic_order, bumps[0]), (vq, vq_json, vq_order, bumps[1])):
        assert ts.to_json() == want
        points = json.loads(want)["points"]
        assert [points.index(str(x)) for x in ts] == order
        assert len(ts) == len(order) == q ** ts.order.degree
        assert all(x in ts for x in ts)
        assert ts.points[1] + bump not in ts
    rebuilt = TorsionSetPadic(padic.ctx, padic.order, list(padic.points))
    assert isinstance(rebuilt, TorsionSetPadic) and not isinstance(rebuilt, TorsionSetVq)
    assert (rebuilt.ctx, rebuilt.order, rebuilt.points) == (padic.ctx, padic.order, padic.points)
    assert rebuilt.to_json() == padic_json
    rebuilt = TorsionSetVq(vq.order, vq.prec, list(vq.points))
    assert isinstance(rebuilt, TorsionSetVq) and not isinstance(rebuilt, TorsionSetPadic)
    assert (rebuilt.order, rebuilt.prec, [str(x) for x in rebuilt]) == (vq.order, prec, [str(x) for x in vq])
    assert rebuilt.to_json() == vq_json


# ---------------------------------------------------------------- x-polynomials


def dict_xmul(a: XPoly, b: XPoly) -> XPoly:
    """The product with one F_q[T] product per pair of nonzero coefficients."""
    if a.is_zero() or b.is_zero():
        return XPoly.zero(a.gf)
    out = {}
    zero = Poly.zero(a.gf)
    for i, x in enumerate(a.coeffs):
        if x.is_zero():
            continue
        for j, y in enumerate(b.coeffs):
            if y.is_zero():
                continue
            out[i + j] = out.get(i + j, zero) + x * y
    return XPoly.from_terms(a.gf, out)


def school_xdivmod(a: XPoly, b: XPoly):
    """Exact division; the divisor's leading coefficient must be a unit constant."""
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    lead = b.coeffs[-1]
    if lead.degree != 0:
        raise DomainError("divisor leading coefficient must be a nonzero constant")
    linv = a.gf.inv(lead.coeffs[0])
    rem = list(a.coeffs)
    dq = a.deg() - b.deg()
    if dq < 0:
        return XPoly.zero(a.gf), a
    quo = [Poly.zero(a.gf)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[b.deg() + k].scale(linv)
        quo[k] = c
        if not c.is_zero():
            for j, y in enumerate(b.coeffs):
                rem[j + k] = rem[j + k] - c * y
    return XPoly(a.gf, quo), XPoly(a.gf, rem)


# ddf with polynomials in x as lists of reduced coefficients, every product
# of two coefficients reduced mod P


def rf_trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def rf_mul(a, b, P):
    if not a or not b:
        return []
    out = [Poly.zero(P.gf)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in enumerate(b):
                if not y.is_zero():
                    out[i + j] = out[i + j] + (x * y) % P
    return rf_trim([c % P for c in out])


def rf_divmod(a, b, P):
    if not b:
        raise DomainError("division by zero over residue field")
    rem = [c % P for c in a]
    db = len(b) - 1
    inv_lc = inv_mod(b[-1], P)
    quo = [Poly.zero(P.gf)] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c.is_zero():
            f = (c * inv_lc) % P
            quo[i - db] = f
            for j, y in enumerate(b):
                rem[i - db + j] = (rem[i - db + j] - (f * y) % P) % P
    return rf_trim(quo), rf_trim(rem)


def rf_gcd(a, b, P):
    a, b = rf_trim(list(a)), rf_trim(list(b))
    while b:
        a, b = b, rf_divmod(a, b, P)[1]
    if a:
        inv_lc = inv_mod(a[-1], P)
        a = [(c * inv_lc) % P for c in a]
    return a


def rf_powmod_x(base, e, mod, P):
    res = [Poly.one(P.gf)]
    base = rf_divmod(base, mod, P)[1]
    while e:
        if e & 1:
            res = rf_divmod(rf_mul(res, base, P), mod, P)[1]
        base = rf_divmod(rf_mul(base, base, P), mod, P)[1]
        e >>= 1
    return res


def rf_ddf(f, P):
    if not P.is_monic() or not is_irreducible(P):
        raise DomainError("residue field modulus must be monic irreducible")
    gf, order = P.gf, P.gf.q ** P.degree
    f = rf_trim([c % P for c in f])
    if len(f) < 2:
        raise DomainError("ddf requires a nonconstant polynomial")
    fp = rf_trim([f[i].scale(i % gf.p) for i in range(1, len(f))])
    if not fp or len(rf_gcd(f, fp, P)) > 1:
        raise DomainError("ddf input must be squarefree over the residue field")
    out = []
    x = [Poly.zero(gf), Poly.one(gf)]
    h, d, rest = x, 0, f
    while len(rest) - 1 >= 2 * (d + 1):
        d += 1
        h = rf_powmod_x(h, order, rest, P)
        diff = rf_trim([a - b for a, b in zip_longest(h, x, fillvalue=Poly.zero(gf))])
        g = rf_gcd(rest, diff, P) if diff else list(rest)
        if len(g) > 1:
            out.append((d, (len(g) - 1) // d))
            rest, r = rf_divmod(rest, g, P)
            assert not r
            h = rf_divmod(h, rest, P)[1]
    if len(rest) > 1:
        out.append((len(rest) - 1, 1))
    return out


X_FIELDS = [2, 3, 4, 5, 9]


@st.composite
def xpolys(draw, gf, max_deg=6, max_tdeg=5, nonzero=False):
    """An x-polynomial with sparse, zero and non-constant coefficients; with
    nonzero, of x-degree >= 1 and a leading coefficient of any T-degree."""
    elem = st.integers(0, gf.q - 1)
    coeff = st.just(Poly.zero(gf)) | st.lists(elem, max_size=max_tdeg + 1).map(lambda c: Poly(gf, c))
    coeffs = draw(st.lists(coeff, min_size=int(nonzero), max_size=max_deg + 1 - int(nonzero)))
    if nonzero:
        coeffs.append(Poly(gf, draw(st.lists(elem, max_size=max_tdeg)) + [draw(st.integers(1, gf.q - 1))]))
    return XPoly(gf, coeffs)


@st.composite
def moduli(draw, gf, irreducible=True):
    """A monic P of degree 1-3, irreducible unless asked otherwise."""
    d = draw(st.integers(1, 3))
    P = Poly(gf, draw(st.lists(st.integers(0, gf.q - 1), min_size=d, max_size=d)) + [1])
    if irreducible:
        assume(is_irreducible(P))
    return P


@st.composite
def xpoly_pairs(draw):
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    return draw(xpolys(gf)), draw(xpolys(gf))


def _xp(q, *rows):
    gf = FIELDS[q]
    return XPoly(gf, [Poly(gf, r) for r in rows])


@settings(max_examples=200, deadline=None)
@given(xpoly_pairs())
@example((_xp(3), _xp(3, [1, 2])))  # zero operand
@example((_xp(9, [5]), _xp(9, [0, 1], [], [8, 0, 7])))  # constant operand
@example((_xp(5, *[[4] * 9] * 7), _xp(5, *[[4] * 9] * 7)))  # full slots
def test_xpoly_mul_matches_dict_multiply(pair):
    a, b = pair
    assert a * b == dict_xmul(a, b)
    assert a * a == dict_xmul(a, a)


@pytest.mark.parametrize("q", X_FIELDS)
def test_additive_rho_T_is_frobenius_plus_T(q):
    # the step on the coefficients of sum c_i x^(q^i) against the dense
    # f^q by Kronecker products plus the product by T, zero first
    gf = FIELDS[q]
    rng = random.Random(q)
    T = XPoly(gf, [Poly.T(gf)])

    def dense(f):
        return XPoly.from_terms(gf, {q**i: c for i, c in enumerate(f.coeffs)})

    def coeff():
        return Poly(gf, [rng.randrange(q) for _ in range(rng.randrange(6))])

    cases = [AdditivePoly.from_poly(Poly.zero(gf))]
    cases += [AdditivePoly(gf, [coeff() for _ in range(rng.randrange(1, 4))]) for _ in range(40)]
    for f in cases:
        assert dense(f.rho_T()) == square_multiply(dense(f), q) + T * dense(f), f


@settings(max_examples=200, deadline=None)
@given(xpoly_pairs(), st.integers(1, 8))
@example((_xp(3, [1], [2, 1]), _xp(3, [0, 1], [1, 1])), 1)  # non-constant lead
@example((_xp(4, [1]), _xp(4)), 1)  # zero divisor
def test_xpoly_divmod_matches_schoolbook(pair, lead):
    a, b = pair
    if b.coeffs and b.coeffs[-1].degree == 0 and lead < a.gf.q:
        b = XPoly(b.gf, b.coeffs[:-1] + (Poly.const(b.gf, lead),))  # a unit constant lead
    assert outcome(divmod, a, b) == outcome(school_xdivmod, a, b)


def test_xpoly_divmod_mod_takes_no_inverse_without_a_quotient(monkeypatch):
    # a dividend below the divisor's x-degree is its own remainder, reduced
    # mod P, and the divisor's leading coefficient is not inverted
    gf = FIELDS[3]
    P = Poly(gf, [1, 0, 1])
    calls = []
    monkeypatch.setattr(operator_module, "inv_mod", lambda a, m: calls.append(a) or inv_mod(a, m))
    a = _xp(3, [1, 2, 1, 1], [0, 1])
    b = _xp(3, [1], [2], [1, 1])
    assert a.divmod(b, P) == (XPoly(gf, []), XPoly(gf, [c % P for c in a.coeffs]))
    assert calls == []
    assert b.divmod(b, P) == (XPoly(gf, [Poly.one(gf)]), XPoly(gf, []))
    assert len(calls) == 1


@st.composite
def residue_divisions(draw):
    """(a, b, P): b reduced mod P, a with coefficients up to T-degree 2 deg P."""
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    P = draw(moduli(gf))
    a = draw(xpolys(gf, max_deg=8, max_tdeg=2 * P.degree))
    b = draw(xpolys(gf, max_deg=4, max_tdeg=P.degree - 1, nonzero=draw(st.integers(0, 7)) > 0))
    return a, XPoly(gf, [c % P for c in b.coeffs]), P


@settings(max_examples=200, deadline=None)
@given(residue_divisions())
# a lead of T-degree 2 mod T^3 + T + w over q = 9
@example((_xp(9, [1] * 6, [], [2, 3, 4, 5], [8] * 5), _xp(9, [0, 1], [4, 0, 7]), Poly(FIELDS[9], [3, 1, 0, 1])))
@example((_xp(2, [1, 1]), _xp(2), Poly(FIELDS[2], [1, 1])))  # zero divisor
def test_xpoly_divmod_mod_matches_residue_loop(args):
    a, b, P = args
    want = outcome(rf_divmod, list(a.coeffs), list(b.coeffs), P)
    if isinstance(want, tuple):
        want = tuple(XPoly(a.gf, v) for v in want)
    assert outcome(a.divmod, b, P) == want


@st.composite
def ddf_args(draw):
    """(f, P): P monic of degree 1-3, mostly irreducible; f with dense
    coefficients of T-degree <= 3, sometimes times a square."""
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    P = draw(moduli(gf, irreducible=draw(st.integers(0, 7)) > 0))
    # uniform coefficients: Hypothesis's own draws favour zeros, which make
    # most f constant or not squarefree
    rng = random.Random(draw(st.integers(0, 2**32)))
    f = XPoly(gf, [Poly(gf, [rng.randrange(gf.q) for _ in range(4)]) for _ in range(rng.randrange(1, 9))])
    if draw(st.integers(0, 3)) == 0:
        g = draw(xpolys(gf, max_deg=2, max_tdeg=2, nonzero=True))
        f = f * g * g
    return list(f.coeffs), P


def _ddf_args(q, P, *rows):
    gf = FIELDS[q]
    return [Poly(gf, r) for r in rows], Poly(gf, P)


@settings(max_examples=300, deadline=None)
@given(ddf_args())
@example(_ddf_args(3, [1, 0, 1], [2, 0, 1], [], [1]))  # x^2 + T^2 + 2 mod T^2 + 1
@example(_ddf_args(5, [2, 1], [1], [2], [1]))  # (x + 1)^2: not squarefree
@example(_ddf_args(3, [2, 0, 1], [1], [], [1]))  # P = T^2 + 2 = (T + 1)(T + 2)
@example(_ddf_args(4, [2, 1], [1, 2, 3]))  # constant f
@example(_ddf_args(9, [1, 1], [0, 1], [1, 1], [1, 1]))  # leading coefficient T + 1 vanishes mod P
@example(_ddf_args(3, [0, 1], [0, 2], [], [1]))  # x^2 + 2T: squarefree over F_3(T), not mod P = T
# f over F_q, whose norm f^n is not squarefree: x^2 + 1 and x^3 + 2x + 1 mod T^2 + 1
@example(_ddf_args(3, [1, 0, 1], [1], [], [1]))
@example(_ddf_args(3, [1, 0, 1], [1], [2], [], [1]))
@example(_ddf_args(2, [1, 1, 0, 0, 1], [1], [1], [1]))  # x^2 + x + 1 mod T^4 + T + 1: gcd(e, n) = 2
def test_ddf_matches_residue_loop(args):
    assert outcome(ddf, *args) == outcome(rf_ddf, *args)


@pytest.mark.parametrize("q", X_FIELDS)
def test_ddf_of_cyclotomic_polys_matches_residue_loop(q):
    # the splitting oracle's own inputs: psi_A mod P for deg A, deg P in 1..2
    gf = FIELDS[q]
    irr = [P for P in monic_irreducibles(gf, 2) if P.degree == 1][:3]
    irr += [P for P in monic_irreducibles(gf, 2) if P.degree == 2][:2]
    for A in irr:
        psi = list(cyclotomic_poly(A, 1).coeffs)
        for P in irr:
            if P != A:
                assert ddf(psi, P) == rf_ddf(psi, P)


@pytest.mark.parametrize("q", X_FIELDS)
@pytest.mark.parametrize("plan", sorted(DDF_PLANS) + ["split"])
def test_blocked_ddf_at_a_linear_prime_matches_residue_loop(q, plan):
    # the planned products of conftest, and "split": x^q - x, where
    # x^q = x mod f; a unit times f, coefficients lifted off T = a
    gf = FIELDS[q]
    rng = random.Random(f"{q}-{plan}")
    degrees = [1] * q if plan == "split" else DDF_PLANS[plan]
    f = planned_product(gf, degrees, rng)
    a = rng.randrange(q)
    coeffs = lift_to_linear_prime(f, a, rng, unit=rng.randrange(1, q))
    P = Poly(gf, [gf.neg(a), 1])
    assert ddf(coeffs, P) == rf_ddf(coeffs, P) == sorted(Counter(degrees).items())


@pytest.mark.parametrize("q", [2, 4])
def test_blocked_ddf_of_an_irreducible_matches_residue_loop(q):
    # degree 40: blocks of 7 up to degree 20, no gcd nontrivial
    gf = FIELDS[q]
    rng = random.Random(q)
    f = planned_product(gf, [40], rng)
    coeffs = lift_to_linear_prime(f, 1, rng, unit=q - 1)
    P = Poly(gf, [gf.neg(1), 1])
    assert ddf(coeffs, P) == rf_ddf(coeffs, P) == [(40, 1)]


def ddf_by_powering(f, P):
    """ddf at a prime P of degree >= 2 over the residue field itself, with
    h = x^(Q^d) mod the unsplit part by square-and-multiply by
    Q = q^(deg P); f is a squarefree list of Poly coefficients."""
    gf = P.gf

    def gcd(a, b):
        while not b.is_zero():
            a, b = b, a.divmod(b, P)[1]
        return a

    Q = gf.q**P.degree
    out = []
    x = XPoly(gf, [Poly.zero(gf), Poly.one(gf)])
    h, d, rest = x, 0, XPoly(gf, [c % P for c in f])
    while rest.deg() >= 2 * (d + 1):
        d += 1
        h = square_multiply(h, Q, lambda a, b: (a * b).divmod(rest, P)[1])
        g = gcd(rest, h - x)
        if g.deg() > 0:
            out.append((d, g.deg() // d))
            rest = rest.divmod(g, P)[0]
            h = h.divmod(rest, P)[1]
    if rest.deg() > 0:
        out.append((rest.deg(), 1))
    return out


# x-degrees of the factors of planned products over F_q[T]/P; in each, a
# factor splits off and the loop over F_q[T]/P goes on (rest.deg() >= 2 (d + 1))
RESIDUE_PLANS = [[1, 2, 3], [1, 1, 2, 3, 3], [2, 2, 3, 3]]


def residue_planned_product(P, degrees, rng):
    """A product of distinct monic irreducibles over F_q[T]/P, one of each
    listed x-degree, drawn at random and kept when rf_ddf finds them
    irreducible; a list of reduced Poly coefficients."""
    gf = P.gf
    chosen = []
    for e in degrees:
        while True:
            g = [Poly(gf, [rng.randrange(gf.q) for _ in range(P.degree)]) for _ in range(e)] + [Poly.one(gf)]
            if g not in chosen and outcome(rf_ddf, g, P) == [(e, 1)]:
                chosen.append(g)
                break
    prod = XPoly(gf, [Poly.one(gf)])
    for g in chosen:
        prod = XPoly(gf, [c % P for c in (prod * XPoly(gf, g)).coeffs])
    return list(prod.coeffs)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("deg_P", [2, 3])
def test_ddf_by_q_powers_matches_powering_and_residue_loop(q, deg_P):
    gf = FIELDS[q]
    rng = random.Random(f"{q}-{deg_P}")
    P = next(P for P in monic_irreducibles(gf, deg_P) if P.degree == deg_P)
    for plan in RESIDUE_PLANS:
        f = residue_planned_product(P, plan, rng)
        assert ddf(f, P) == ddf_by_powering(f, P) == rf_ddf(f, P) == sorted(Counter(plan).items())


def test_ddf_by_q_powers_over_a_large_prime_field():
    # q = 2^31 - 1: x^q and T^q are taken by square-and-multiply, never as a
    # dense list of q coefficients; T^2 + 1 is irreducible as q = 3 mod 4
    gf = GF(2**31 - 1)
    P = Poly(gf, [1, 0, 1])
    f = residue_planned_product(P, [1, 2, 3], random.Random(0))
    assert ddf(f, P) == ddf_by_powering(f, P) == rf_ddf(f, P) == [(1, 1), (2, 1), (3, 1)]


# ---------------------------------------------------------------- Newton inverse in F_q[T]/P^N


def ext_gcd_inverse(x):
    """The inverse in F_q[T]/P^N by the extended gcd with P^N, as it was
    computed before the Newton lift."""
    ctx = x.ctx
    if x.valuation_lower() > 0:
        raise DomainError(f"{x.rep} is not a unit (divisible by {ctx.P})")
    g, a, _ = poly_ext_gcd(x.rep, ctx.modulus)
    if g.degree != 0:
        raise DomainError(f"{x.rep} is not invertible mod {ctx.P}^{ctx.N}")
    return ctx.elem(a.scale(ctx.gf.inv(g.coeffs[0])))


def inverse_outcome(f, x):
    """f(x), or the text of the DomainError it raises."""
    try:
        return f(x)
    except DomainError as err:
        return str(err)


@st.composite
def padic_elems(draw):
    """An element of F_q[T]/P^N, deg P 1-3, N 1-16; often a non-unit."""
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    ctx = PadicCtx(draw(moduli(gf)), draw(st.integers(1, 16)))
    rep = Poly(gf, draw(st.lists(st.integers(0, gf.q - 1), max_size=ctx.modulus.degree)))
    # times P^k: k = 0 keeps rep as drawn (a unit unless P divides it), k >= 1 a non-unit
    return ctx.elem(rep * ctx.P ** draw(st.integers(0, 2)))


@settings(max_examples=300, deadline=None)
@given(padic_elems())
@example(PadicCtx(Poly(FIELDS[2], [1, 1]), 16).one())
@example(PadicCtx(Poly(FIELDS[9], [3, 1, 0, 1]), 16).elem(Poly(FIELDS[9], [8, 0, 5, 0, 1])))
@example(PadicCtx(Poly(FIELDS[3], [1, 0, 1]), 4).zero())
def test_padic_inverse_matches_ext_gcd(x):
    inv = inverse_outcome(PadicElem.inverse, x)
    assert inv == inverse_outcome(ext_gcd_inverse, x)
    if not isinstance(inv, str):
        assert x * inv == x.ctx.one()


# ---------------------------------------------------------------- Barrett reduction mod f


MODULUS_FIELDS = [2, 3, 4, 5, 9, 25]


@st.composite
def modulus_args(draw):
    """(f, [a1, a2, a3]): f of degree 0-40, monic or not; a1 of degree -1 to
    q deg f, a2 no longer than a1 and a3 no shorter, so that one Modulus
    meets a long, a short and a longer quotient in turn."""
    gf = FIELDS[draw(st.sampled_from(MODULUS_FIELDS))]
    q = gf.q
    n = draw(st.integers(0, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    lc = 1 if draw(st.booleans()) else rng.randrange(1, q)
    f = Poly(gf, [rng.randrange(q) for _ in range(n)] + [lc])
    top = q * n + 1
    l1 = draw(st.integers(0, top))
    lengths = (l1, draw(st.integers(0, l1)), draw(st.integers(l1, top)))
    full = draw(st.booleans())

    def poly(length):
        # every coefficient q - 1 makes the largest slot sums
        body = [q - 1] * length if full else [rng.randrange(q) for _ in range(length)]
        return Poly(gf, body[:-1] + [rng.randrange(1, q)] if length else [])

    return f, [poly(length) for length in lengths]


def _modulus_args(q, n, lengths, seed):
    rng = random.Random(seed)
    gf = FIELDS[q]
    f = Poly(gf, [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)])
    return f, [Poly(gf, [rng.randrange(q) for _ in range(m - 1)] + [q - 1]) for m in lengths]


@settings(max_examples=300, deadline=None)
@given(modulus_args())
@example(_modulus_args(3, 96, (190, 5, 190), 1))  # deg P^N = 96 at q = 3, a Frobenius image
@example(_modulus_args(25, 40, (41, 200, 1001), 2))  # r = 2, each quotient longer
@example(_modulus_args(9, 0, (3, 1, 5), 3))  # a constant f
def test_modulus_reduce_matches_divmod(args):
    f, polys = args
    mod = Modulus(f)
    for a in polys:
        assert mod.reduce(a) == a % f


def test_modulus_refuses_zero():
    with pytest.raises(DomainError, match="division by zero"):
        Modulus(Poly.zero(FIELDS[3]))


# ---------------------------------------------------------------- P-adic torsion from a basis


class CoefficientOperator:
    """rho_M by its operator coefficients: u -> sum c_i u^(q^i), each c_i
    embedded by from_poly and each u^(q^i) taken by frobenius, with the
    constant derivative c_0 = M.  With a modulus P^N each coefficient is the
    exact one mod P^N, which is all that acting on F_q[T]/P^N needs."""

    def __init__(self, M: Poly, modulus: Poly = None):
        coeffs = carlitz_operator(M).coeffs
        self.gf = M.gf
        self.coeffs = coeffs if modulus is None else [c % modulus for c in coeffs]

    def evaluate(self, u):
        acc = u.from_poly(self.coeffs[0]) * u
        p = u
        for c in self.coeffs[1:]:
            p = p.frobenius()
            if not c.is_zero():
                acc = acc + u.from_poly(c) * p
        return acc

    def derivative(self) -> XPoly:
        # (u^(q^i))' = 0 for i >= 1
        return XPoly(self.gf, [self.coeffs[0]])


def dense_operator(M: Poly) -> XPoly:
    """rho_M(x) with all its q^(deg M) + 1 x-coefficients."""
    q = M.gf.q
    return XPoly.from_terms(M.gf, {q**i: c for i, c in enumerate(carlitz_operator(M).coeffs)})


def torsion_padic_by_class(P: Poly, N: int) -> list:
    """The roots of rho_{P-1} mod P^N by one Hensel lift per residue class
    mod P, on the coefficient loop reduced mod P^N."""
    ctx = PadicCtx(P, N)
    f = CoefficientOperator(P - Poly.one(P.gf), ctx.modulus)
    return [hensel_lift(f, ctx.elem(r), ctx) for r in ctx.residues()]


def _torsion_primes(q):
    """Per degree 1-3 with q^deg <= 729, a random monic irreducible, and the
    first one too where q^deg <= 125 (the per-class oracle takes seconds on
    the largest sets)."""
    gf = FIELDS[q]
    rng = random.Random(q)
    out = []
    for d in range(1, 4):
        if q**d > 729:
            break
        irr = [f for f in all_polys(gf, d, monic=True) if is_irreducible(f)]
        out += ([irr[0]] if q**d <= 125 else []) + [rng.choice(irr)]
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_torsion_padic_matches_per_class_lifts(q, monkeypatch):
    import carlitz.torsion

    # Newton runs on the d basis roots only, each in at most ceil(log2 N) + 1
    # evaluations of rho_{P-1}
    images = []
    monkeypatch.setattr(
        carlitz.torsion, "carlitz_act", lambda *args: images.append(1) or carlitz_act(*args)
    )
    for P in _torsion_primes(q):
        for N in (1, 2, 3, 8, 16):
            images.clear()
            got = torsion_padic(P, N).points
            assert P.degree <= len(images) <= P.degree * ((N - 1).bit_length() + 1)
            want = torsion_padic_by_class(P, N)
            assert [str(x) for x in got] == [str(x) for x in want], (P, N)
            assert got == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_padic_torsion_coarse_agrees_with_fine(q):
    for P in _torsion_primes(q):
        fine = torsion_padic(P, 8)
        for N in (1, 3, 8):
            coarse = torsion_padic(P, N)
            assert [coarse.ctx.elem(x.rep) for x in fine] == coarse.points, (P, N)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_torsion_padic_roots_match_the_closed_form(q):
    # rho_P = tau^(deg P) mod P, so rho_P adds at least one P-adic digit to
    # the valuation of a multiple of P; the root b over T^i is fixed by
    # rho_P, and b - T^i is a multiple of P, so b = rho_(P^(N-1))(T^i) mod
    # P^N: one Horner run of d (N - 1) steps per root, up to six primes of
    # each degree 1-3
    gf = FIELDS[q]
    rng = random.Random(q)
    T = Poly.T(gf)
    for d in range(1, 4):
        irr = [f for f in all_polys(gf, d, monic=True) if is_irreducible(f)]
        for P in rng.sample(irr, min(6, len(irr))):
            for N in (1, 2, 3, 8):
                points = torsion_padic(P, N).points
                ctx = points[0].ctx
                for i in range(d):
                    # residues() lists T^i at index q^i
                    assert points[q**i] == carlitz_act(P ** (N - 1), ctx.elem(T**i)), (P, N, i)


def test_torsion_padic_gives_up_without_a_root(monkeypatch):
    # an image that stays P^(N-1) whatever b is: Newton never lands, and the
    # lift gives up after ceil(log2 N) + 1 evaluations
    import carlitz.torsion

    gf = FIELDS[3]
    P = Poly.T(gf)
    calls = []
    stuck = PadicCtx(P, 5).elem(P**4)
    monkeypatch.setattr(carlitz.torsion, "carlitz_act", lambda M, b: calls.append(b) or stuck)
    with pytest.raises(CarlitzError, match="^Newton from 1 did not reach a root mod T\\^5$"):
        torsion_padic(P, 5)
    assert len(calls) == 4


def test_torsion_padic_refuses_huge_sets():
    # 257^2 > 2^16 points; refused before the context checks P, so the
    # reducible T^2 gets the same error
    gf = GF(257)
    for P in (Poly(gf, [254, 0, 1]), Poly(gf, [0, 0, 1])):
        with pytest.raises(DomainError, match="257\\^2 torsion points are above the supported maximum 2\\^16"):
            torsion_padic(P, 2)
    assert len(torsion_padic(Poly(gf, [3, 1]), 2)) == 257


# ---------------------------------------------------------------- Carlitz action


# the largest q^deg M the action oracle draws: the operator route builds
# u^(q^deg M), so larger orders make the comparison slow without a new case
ACT_MAX_SIZE = 729


@st.composite
def act_args(draw):
    """(M, u, modulus): deg M from -1 to 6 with q^deg M <= ACT_MAX_SIZE, u a
    Poly, a P-adic element or an exact or truncated series, zero included."""
    q = draw(st.sampled_from(X_FIELDS))
    gf = FIELDS[q]
    top = max(d for d in range(7) if q**d <= ACT_MAX_SIZE)
    d = draw(st.integers(-1, top))
    elem = st.integers(0, q - 1)
    M = Poly.zero(gf)
    if d >= 0:
        M = Poly(gf, draw(st.lists(elem, min_size=d, max_size=d)) + [draw(st.integers(1, q - 1))])
    ring = draw(st.sampled_from(["poly", "padic", "inf", "vq"]))
    if ring == "poly":
        return M, Poly(gf, draw(st.lists(elem, max_size=4))), None
    if ring == "padic":
        P = draw(moduli(gf))
        ctx = PadicCtx(P, draw(st.integers(1, 6 // P.degree)))
        return M, ctx.elem(Poly(gf, draw(st.lists(elem, max_size=ctx.modulus.degree)))), ctx.modulus
    return M, draw(series(gf, InfLaurent if ring == "inf" else VqElem, max_len=6)), None


@settings(max_examples=300, deadline=None)
@given(act_args())
@example((Poly(FIELDS[3], []), VqElem(FIELDS[3], 2, [1, 2], 5), None))  # M = 0 on a truncated series
@example((Poly(FIELDS[4], [1, 0, 2]), VqElem(FIELDS[4], 3, [], 3), None))  # truncated zero
@example((Poly(FIELDS[5], [0, 1]), InfLaurent(FIELDS[5], 0, [], None), None))  # exact zero
@example((Poly(FIELDS[2], [1] * 7), InfLaurent(FIELDS[2], -2, [1, 0, 1], 1), None))  # deg M = 6
def test_carlitz_act_matches_operator(args):
    M, u, modulus = args
    horner = carlitz_act(M, u)
    coeffs = CoefficientOperator(M, modulus).evaluate(u)
    assert type(horner) is type(coeffs)
    assert str(horner) == str(coeffs)
    if isinstance(u, Series):
        assert horner.prec == coeffs.prec
    # Horner in x on the dense rho_M(x), which takes no rho_T step: on a
    # truncated series each product by u costs precision, so there it
    # agrees on every digit it certifies and certifies no more
    dense = dense_operator(M).evaluate(u)
    assert type(dense) is type(horner)
    if isinstance(u, Series) and u.prec is not None:
        assert horner.agrees(dense)
        assert _min_prec(horner.prec, dense.prec) == dense.prec
    else:
        assert str(dense) == str(horner)


@st.composite
def step_args(draw):
    """(x, a, w): x and w in one of the four rings over q in X_FIELDS, a
    Poly or a P-adic element (one context), zero included, or an exact or
    truncated series of one class; a in F_q, zero included."""
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    digits = st.lists(st.integers(0, gf.q - 1), max_size=12)
    a = draw(st.integers(0, gf.q - 1))
    ring = draw(st.sampled_from(["poly", "padic", "inf", "vq"]))
    if ring == "poly":
        return Poly(gf, draw(digits)), a, Poly(gf, draw(digits))
    if ring == "padic":
        ctx = PadicCtx(draw(moduli(gf)), draw(st.integers(1, 4)))
        return ctx.elem(Poly(gf, draw(digits))), a, ctx.elem(Poly(gf, draw(digits)))
    cls = InfLaurent if ring == "inf" else VqElem
    return draw(series(gf, cls, max_len=12)), a, draw(series(gf, cls, max_len=12))


def _padic_step(q, P, N, seed):
    """(x, a, w) in F_q[T]/P^N with x and w of full degree deg P^N - 1, so
    the step has a digit at T^(deg P^N) from T*x as well as the spread's."""
    gf = FIELDS[q]
    ctx = PadicCtx(Poly(gf, P), N)
    n = ctx.modulus.degree
    return ctx.elem(_rand(gf, n, seed)), q - 1, ctx.elem(_rand(gf, n, seed + 1))


@settings(max_examples=300, deadline=None)
@given(step_args())
@example((InfLaurent(FIELDS[3], 0, [], None), 2, InfLaurent(FIELDS[3], -1, [1, 2], 3)))  # exact zero
@example((VqElem(FIELDS[4], 0, [], None), 3, VqElem(FIELDS[4], 0, [], None)))
@example((InfLaurent(FIELDS[5], 2, [], 2), 1, InfLaurent(FIELDS[5], 0, [4], None)))  # truncated zero
@example((VqElem(FIELDS[9], -1, [], 3), 0, VqElem(FIELDS[9], -12, [1], -10)))  # a = 0 keeps x's precision
@example((VqElem(FIELDS[2], -2, [1, 0, 1], 4), 1, VqElem(FIELDS[2], -1, [1], 0)))  # q = 2: T = s^-1
@example((VqElem(FIELDS[3], -3, [2, 1], None), 1, VqElem(FIELDS[3], 0, [1, 1], None)))  # exact
@example((Poly(FIELDS[2], []), 1, Poly(FIELDS[2], [1, 1])))
@example((PadicCtx(Poly(FIELDS[9], [3, 1, 0, 1]), 4).zero(), 5, PadicCtx(Poly(FIELDS[9], [3, 1, 0, 1]), 4).one()))
@example((PadicCtx(Poly(FIELDS[3], [1, 1]), 1).elem(Poly(FIELDS[3], [2])), 2, PadicCtx(Poly(FIELDS[3], [1, 1]), 1).one()))  # deg P^N = 1
# 2-byte Barrett slots: q = 5 at deg P^N = 32, q = 3 at deg P^N = 96
@example(_padic_step(5, [1, 1], 32, 1))
@example(_padic_step(3, [1, 0, 1], 48, 2))
@example(_padic_step(4, [2, 1, 1], 5, 3))  # extension fields
@example(_padic_step(9, [5, 0, 1], 7, 4))
# a q-th power of degree above 2^24 is refused, as by Poly.frobenius
@example((PadicCtx(Poly(GF(2**32 + 15), [0, 1]), 3).elem(Poly(GF(2**32 + 15), [0, 1])), 1,
          PadicCtx(Poly(GF(2**32 + 15), [0, 1]), 3).one()))
def test_rho_T_matches_frobenius_plus_T_times(args):
    x, a, w = args
    gf = x.ctx.gf if isinstance(x, PadicElem) else x.gf
    try:
        oracle = x.frobenius() + x.from_poly(Poly.T(gf)) * x
    except DomainError as refusal:
        for step in (lambda: x.rho_T(), lambda: x.rho_T(a, w)):
            with pytest.raises(DomainError, match=re.escape(str(refusal))):
                step()
        return
    steps = [(x.rho_T(), oracle), (x.rho_T(a, w), oracle + w.scale(a) if a else oracle)]
    for step, want in steps:
        assert type(step) is type(want)
        assert str(step) == str(want)
        assert getattr(step, "prec", None) == getattr(want, "prec", None)


def test_steps_refuse_mixed_operands():
    # M over F_9 acting on u over F_3, in each of the five rings
    g9, g3 = FIELDS[9], FIELDS[3]
    u = Poly(g3, [1, 2])
    ctx = PadicCtx(Poly(g3, [1, 1]), 3)
    for v in (u, ctx.elem(u), InfLaurent(g3, -1, [1, 2], 4), VqElem(g3, -1, [1, 2], 4), AdditivePoly(g3, [Poly.one(g3)])):
        for M in (Poly(g9, [1]), Poly(g9, [4, 1])):
            with pytest.raises(DomainError, match="mixed coefficient fields"):
                carlitz_act(M, v)
    # the P-adic step adds a*w without PadicElem.__add__, so it checks w's
    # completion itself: another prime, another precision, another field
    x = ctx.elem(u)
    for other in (PadicCtx(Poly(g3, [2, 1]), 3), PadicCtx(Poly(g3, [1, 1]), 4), PadicCtx(Poly(g9, [1, 1]), 3)):
        with pytest.raises(DomainError, match="operands live in different completions"):
            x.rho_T(1, other.one())
    with pytest.raises(DomainError, match="operands live in different completions"):
        x.rho_T(2, u)


# the module axioms run on q in AXIOM_FIELDS; on a polynomial or series u,
# q^(deg M + deg N) stays at most AXIOM_MAX_SIZE, as in act_args
AXIOM_FIELDS = [2, 3, 4, 5, 7, 8, 9]
AXIOM_MAX_SIZE = 729


@st.composite
def axiom_args(draw):
    """(M, N, c, u): M and N with q^(deg M + deg N) <= AXIOM_MAX_SIZE, zero
    included, c in F_q, and u a Poly, a P-adic element (deg P <= 3,
    N <= 32) or an exact or truncated series, zero included."""
    q = draw(st.sampled_from(AXIOM_FIELDS))
    gf = FIELDS[q]
    elem = st.integers(0, q - 1)
    ring = draw(st.sampled_from(["poly", "padic", "inf", "vq"]))
    # in F_q[T]/P^N the cost is linear in deg M, so deg M + deg N runs to 12
    top = 12 if ring == "padic" else max(d for d in range(10) if q**d <= AXIOM_MAX_SIZE)
    dM = draw(st.integers(-1, top // 2))
    dN = draw(st.integers(-1, top - max(dM, 0)))
    M, N = (Poly(gf, draw(st.lists(elem, min_size=d + 1, max_size=d + 1))) for d in (dM, dN))
    if ring == "poly":
        u = Poly(gf, draw(st.lists(elem, max_size=4)))
    elif ring == "padic":
        ctx = PadicCtx(draw(moduli(gf)), draw(st.integers(1, 32)))
        u = ctx.elem(Poly(gf, draw(st.lists(elem, max_size=ctx.modulus.degree))))
    else:
        u = draw(series(gf, InfLaurent if ring == "inf" else VqElem, max_len=6))
    return M, N, draw(elem), u


def _same(x, y):
    """Equal in F_q[T] and F_q[T]/P^N; digitwise equal wherever both
    certify a digit for series."""
    return x.agrees(y) if isinstance(x, Series) else x == y


@settings(max_examples=150, deadline=None)
@given(axiom_args())
# 2-byte Barrett slots in F_8[T]/P^32 (r = 3, deg P^N = 96) and F_7[T]/P^32
@example((Poly(FIELDS[8], [1, 5, 1]), Poly(FIELDS[8], [3, 1]), 6, PadicCtx(Poly(FIELDS[8], [2, 1, 0, 1]), 32).elem(_rand(FIELDS[8], 96, 5))))
@example((Poly(FIELDS[7], [2, 1]), Poly(FIELDS[7], [0, 3]), 4, PadicCtx(Poly(FIELDS[7], [3, 1]), 32).elem(_rand(FIELDS[7], 32, 6))))
def test_module_axioms(args):
    # rho_(M+N) = rho_M + rho_N, rho_(MN) = rho_M rho_N, rho_c = c in every ring
    M, N, c, u = args
    assert _same(carlitz_act(M + N, u), carlitz_act(M, u) + carlitz_act(N, u))
    assert _same(carlitz_act(M * N, u), carlitz_act(M, carlitz_act(N, u)))
    assert _same(carlitz_act(Poly.const(M.gf, c), u), u.scale(c))


@st.composite
def ring_triples(draw, ring):
    """Three elements of one ring over F_q, q in AXIOM_FIELDS: Poly of
    degree < 6, F_q[T]/P^N with deg P <= 3 and N <= 32, or exact and
    truncated series of up to 6 digits; zero included."""
    gf = FIELDS[draw(st.sampled_from(AXIOM_FIELDS))]
    elem = st.integers(0, gf.q - 1)
    if ring == "poly":
        return [Poly(gf, draw(st.lists(elem, max_size=6))) for _ in range(3)]
    if ring == "padic":
        ctx = PadicCtx(draw(moduli(gf)), draw(st.integers(1, 32)))
        n = ctx.modulus.degree
        return [ctx.elem(Poly(gf, draw(st.lists(elem, max_size=n)))) for _ in range(3)]
    cls = InfLaurent if ring == "inf" else VqElem
    return [draw(series(gf, cls, max_len=6)) for _ in range(3)]


@pytest.mark.parametrize("ring", ["poly", "padic", "inf", "vq"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ring_axioms(ring, data):
    # + and * are associative and commutative, and * distributes over +;
    # series agree on every digit both sides certify
    x, y, z = data.draw(ring_triples(ring))
    assert _same((x + y) + z, x + (y + z))
    assert _same((x * y) * z, x * (y * z))
    assert _same(x + y, y + x)
    assert _same(x * y, y * x)
    assert _same(x * (y + z), x * y + x * z)


@settings(max_examples=50, deadline=None)
@given(st.sampled_from([2, 3, 4, 9]), st.data())
def test_poly_and_its_fraction_are_one_value(q, data):
    # p and p/1 are equal either way round and hash alike, so a set or a
    # dict holds them once; p/T is another value unless p is 0
    gf = FIELDS[q]
    p = Poly(gf, data.draw(st.lists(st.integers(0, q - 1), max_size=6)))
    r, s = RatFn.from_poly(p), RatFn(p, Poly.T(gf))
    assert p == r and r == p and not p != r and not r != p
    assert hash(p) == hash(r)
    assert len({p, r}) == 1
    assert (p == s) == (s == p) == p.is_zero()


def tstep_operator(M: Poly) -> list:
    """The coefficients of rho_M from those of every rho_{T^k}, k <= deg M,
    each built from the last by the T-step c'_j = c_{j-1}^q + T*c_j."""
    gf = M.gf
    zero = Poly.zero(gf)

    pow_vecs = [[Poly.one(gf)]]
    for _ in range(M.degree):
        prev = pow_vecs[-1]
        nxt = []
        for j in range(len(prev) + 1):
            below = prev[j - 1].frobenius() if j >= 1 else zero
            here = prev[j].shift(1) if j < len(prev) else zero
            nxt.append(below + here)
        pow_vecs.append(nxt)
    out = [zero] * max(M.degree + 1, 1)
    for k, a in enumerate(M.coeffs):
        for j, c in enumerate(pow_vecs[k]):
            out[j] = out[j] + c.scale(a)
    return out


@pytest.mark.parametrize("q", X_FIELDS)
def test_operator_coefficients_match_t_steps(q):
    # deg M from -1 to 6, T^d and a random M of each degree
    gf = FIELDS[q]
    rng = random.Random(q)
    for d in range(-1, 7):
        Ms = [Poly.zero(gf)] if d < 0 else [Poly.one(gf).shift(d), _rand(gf, d + 1, rng.random())]
        for M in Ms:
            assert carlitz_operator(M) == AdditivePoly(gf, tstep_operator(M)), M


# ---------------------------------------------------------------- q-th powers mod f


def rabin_pow_mod(f: Poly) -> bool:
    """Rabin's test with each T^(q^k) mod f by pow_mod, independent of
    Modulus and of its route choice."""
    n = f.degree
    if n == 1:
        return True
    T = Poly.T(f.gf)
    primes = [l for l in range(2, n + 1) if n % l == 0 and all(l % e for e in range(2, l))]
    powers, h = {}, T
    for k in range(1, n + 1):
        h = pow_mod(h, f.gf.q, f)
        powers[k] = h
    if powers[n] != T:
        return False
    for l in primes:
        g = powers[n // l] - T
        if g.is_zero() or poly_gcd(f, g).degree > 0:
            return False
    return True


FROB_FIELDS = [2, 3, 4, 5, 7, 8, 9, 25, 27]


@st.composite
def frobenius_args(draw):
    """(f, h): f monic of degree 1-30, mostly reducible, h reduced mod f;
    either may have every coefficient q - 1, the largest slot sums."""
    gf = FIELDS[draw(st.sampled_from(FROB_FIELDS))]
    n = draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    top = [gf.q - 1] * n
    f = Poly(gf, (top if draw(st.integers(0, 4)) == 0 else [rng.randrange(gf.q) for _ in range(n)]) + [1])
    h = Poly(gf, top if draw(st.booleans()) else [rng.randrange(gf.q) for _ in range(n)])
    return f, h


# prime fields where q (deg f - 1) passes SPREAD_MAX_SLOTS at small deg f
LARGE_FIELDS = {q: GF(q) for q in (257, 10007, 1000003, 4294967311, 2**40 - 87)}


@pytest.mark.parametrize("q", [2**31 - 1, 2**40 - 87])
def test_wide_slots_match_schoolbook(q):
    # slot sums above 2^64 take 16-byte slots, unpacked as pairs of 8-byte
    # words; random operands and operands with every coefficient q - 1
    gf = LARGE_FIELDS.get(q) or GF(q)
    full = [Poly(gf, [q - 1] * n) for n in (40, 9)]
    pairs = [(_rand(gf, n, seed), _rand(gf, m, seed + 1)) for n, m, seed in [(40, 40, 1), (64, 9, 3), (9, 30, 5)]]
    for a, b in pairs + [tuple(full)]:
        assert _slot_bytes(min(a.degree, b.degree) * (q - 1) ** 2) == 16
        check_mul(a, b)
        check_divmod(a, b)
        assert Modulus(b).reduce(a) == school_divmod(a, b)[1]


def _frob_args(q, n, seed):
    """A random monic f of degree n and h with every coefficient q - 1."""
    gf = FIELDS.get(q) or LARGE_FIELDS[q]
    rng = random.Random(seed)
    return Poly(gf, [rng.randrange(q) for _ in range(n)] + [1]), Poly(gf, [q - 1] * n)


@settings(max_examples=300, deadline=None)
@given(frobenius_args())
@example(_frob_args(7, 30, 1))  # slot sums near 30 * 36: two-byte slots
@example(_frob_args(27, 30, 2))  # r = 3, slot sums near 30 * 12
@example(_frob_args(5, 1, 3))  # deg f = 1: h^q = h
@example((Poly(FIELDS[4], [1, 0, 1]), Poly(FIELDS[4], [])))  # h = 0
# square-and-multiply: (2r - 1) q (deg f - 1) above SPREAD_MAX_SLOTS
@example(_frob_args(257, 8, 4))
@example(_frob_args(10007, 2, 5))
@example(_frob_args(10007, 4, 6))
@example(_frob_args(1000003, 3, 7))
@example(_frob_args(4294967311, 2, 8))
@example(_frob_args(4294967311, 4, 9))
def test_modulus_frobenius_matches_pow_mod(args):
    f, h = args
    assert Modulus(f).frobenius(h) == pow_mod(h, f.gf.q, f)
    assert is_irreducible(f) == rabin_pow_mod(f)


@st.composite
def step_mod_args(draw):
    """(f, h, a, w): f of degree 1-30, monic or not, h and w reduced mod f,
    a in F_q; each of h and w may have every coefficient q - 1, the largest
    slot sums."""
    gf = FIELDS[draw(st.sampled_from(FROB_FIELDS))]
    q, n = gf.q, draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    f = Poly(gf, [rng.randrange(q) for _ in range(n)] + [draw(st.integers(1, q - 1))])
    h, w = (Poly(gf, [q - 1] * n if draw(st.booleans()) else [rng.randrange(q) for _ in range(draw(st.integers(0, n)))]) for _ in range(2))
    return f, h, draw(st.integers(0, q - 1)), w


def _step_mod_args(q, n, seed):
    """f of degree n, h and w with every coefficient q - 1, a = q - 1."""
    gf = FIELDS.get(q) or LARGE_FIELDS.get(q) or GF(q)
    rng = random.Random(seed)
    full = Poly(gf, [q - 1] * n)
    return Poly(gf, [rng.randrange(q) for _ in range(n)] + [rng.randrange(1, q)]), full, q - 1, full


@settings(max_examples=200, deadline=None)
@given(step_mod_args())
# the bound met: over F_2 with f = 1 + T + ... + T^254, this h gives a
# quotient of 253 ones, so the slot at T^252 sums 253 quotient terms and
# h_126 (the spread), h_251 (T*h) and w_252 to 256, one past 1-byte slots
@example((Poly(FIELDS[2], [1] * 255), Poly(FIELDS[2], [0] * 126 + [1, 0] + [1] * 126), 1, Poly(FIELDS[2], [1] * 254)))
@example(_step_mod_args(25, 30, 3))  # r = 2
@example(_step_mod_args(27, 12, 4))  # r = 3
@example(_step_mod_args(2**40 - 87, 1, 5))  # 16-byte slots; a larger deg f spreads past 2^24
@example(_step_mod_args(7, 1, 6))  # deg f = 1: T*h alone reaches T^1
@example((Poly(FIELDS[9], [4, 0, 1]), Poly(FIELDS[9], []), 5, Poly(FIELDS[9], [1, 7])))  # h = 0
def test_modulus_rho_T_matches_divmod(args):
    f, h, a, w = args
    want = (h.frobenius() + h.shift(1) + w.scale(a)) % f
    assert Modulus(f).rho_T(h, a, w) == want
    assert Modulus(f).rho_T(h) == (h.frobenius() + h.shift(1)) % f


@st.composite
def plan_reuse_args(draw):
    """(f, calls): f of degree 1-30, monic or not, and 2-6 calls on one
    Modulus in any order: ("rho_T", h, a, w) with h zero, shorter than n or
    of length n with every coefficient q - 1, and ("reduce", b) with b of
    degree up to q deg f."""
    gf = FIELDS[draw(st.sampled_from(FROB_FIELDS))]
    q, n = gf.q, draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2**32)))
    f = Poly(gf, [rng.randrange(q) for _ in range(n)] + [draw(st.integers(1, q - 1))])
    calls = []
    for _ in range(draw(st.integers(2, 6))):
        if draw(st.booleans()):
            length = draw(st.sampled_from([0, n - 1, n]))
            h = Poly(gf, [q - 1] * n if length == n else [rng.randrange(q) for _ in range(rng.randrange(length + 1))])
            calls.append(("rho_T", h, draw(st.integers(0, q - 1)), Poly(gf, [rng.randrange(q) for _ in range(n)])))
        else:
            calls.append(("reduce", Poly(gf, [rng.randrange(q) for _ in range(draw(st.integers(0, q * n + 1)))])))
    return f, calls


def _plan_reuse_args(gf, f, h):
    """Each call kind on f twice, the step first: h with a = 0 and with
    a = q - 1 times h, a reduction of h's q-th power and of h times T^n."""
    a = gf.q - 1
    return f, [("rho_T", h, 0, h), ("reduce", h.frobenius()), ("rho_T", h, a, h), ("reduce", h.shift(f.degree))]


@settings(max_examples=200, deadline=None)
@given(plan_reuse_args())
# deg f = 253 and 254 over F_2 lie on the two sides of the plan's 1-byte
# slots, M + 3 <= 255 (its slots reach 254 here) and 256 (reached)
@example(_plan_reuse_args(FIELDS[2], Poly(FIELDS[2], [1] * 254), Poly(FIELDS[2], [0] * 126 + [1, 0] + [1] * 125)))
@example(_plan_reuse_args(FIELDS[2], Poly(FIELDS[2], [1] * 255), Poly(FIELDS[2], [0] * 126 + [1, 0] + [1] * 126)))
# non-monic f: T*h's top digit h_0 T must not be folded in as h_0 (-f_low)
@example(_plan_reuse_args(FIELDS[7], Poly(FIELDS[7], [6, 5]), Poly(FIELDS[7], [6])))
def test_modulus_plan_serves_steps_and_reductions_in_any_order(args):
    f, calls = args
    mod = Modulus(f)
    for kind, h, *step in calls:
        if kind == "rho_T":
            a, w = step
            assert mod.rho_T(h, a, w) == (h.frobenius() + h.shift(1) + w.scale(a)) % f, (kind, h, a)
        else:
            assert mod.reduce(h) == h % f, (kind, h)


def test_modulus_rho_T_refuses_before_its_plan_is_sized():
    # over GF(2^32+15) at deg f = 2 a step's q-th power can reach degree q,
    # above the 2^24 cap: even a constant h is refused, before an R of about
    # q digits is built, and reduce, which needs no plan, still answers
    gf = LARGE_FIELDS[4294967311]
    mod = Modulus(Poly(gf, [3, 0, 1]))
    with pytest.raises(DomainError, match="q-th power of degree 4294967311 is above the supported maximum 2\\^24"):
        mod.rho_T(Poly(gf, [5]))
    a = Poly(gf, [1, 2, 3, gf.p - 1])
    assert mod.reduce(a) == a % mod.f
    # at deg f = 1 a step's quotient has one digit, whatever q
    f, h, w = Poly(gf, [3, 1]), Poly(gf, [5]), Poly(gf, [7])
    assert Modulus(f).rho_T(h, 2, w) == (h.frobenius() + h.shift(1) + w.scale(2)) % f == Poly(gf, [4])


def test_is_irreducible_at_a_large_prime():
    # the spread h(T^q) would have degree q: above MAX_FROBENIUS_DEGREE
    gf = LARGE_FIELDS[4294967311]
    T = Poly.T(gf)
    for c in (1, 2, 3, 5):
        f = T * T + Poly.const(gf, c)
        assert is_irreducible(f) == rabin_pow_mod(f)
    # -1 is a non-square: 4294967311 = 3 mod 4
    assert is_irreducible(T * T + Poly.one(gf))
    assert not is_irreducible(T * T - Poly.one(gf))


@pytest.mark.parametrize("q", FROB_FIELDS)
def test_is_irreducible_matches_rabin_pow_mod_exhaustive(q):
    # every monic f of degree n >= 2 with q^n <= 729, irreducible ones included
    gf = FIELDS[q]
    for n in range(2, 10):
        if q**n > 729:
            break
        for f in all_monic(gf, n):
            assert is_irreducible(f) == rabin_pow_mod(f), f


@pytest.mark.parametrize("q", [2, 4, 9])
def test_is_irreducible_matches_rabin_pow_mod_on_powers(q):
    # g^2, g h^2 and g(T^p) are reducible and not squarefree, with a factor
    # of degree <= deg f / 2; each, and the irreducible g, also times a unit
    gf = FIELDS[q]
    rng = random.Random(q)
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
            for f in (base, base.scale(unit)):
                assert is_irreducible(f) == rabin_pow_mod(f) == irreducible, f


@pytest.mark.parametrize("q, n", [(2, 7), (3, 2), (3, 3), (4, 6), (9, 5), (10007, 4)])
def test_is_irreducible_takes_half_the_degree_in_q_th_powers(q, n, monkeypatch):
    # a reducible f has a factor of degree <= n / 2, so n // 2 steps
    # x -> x^q mod f tell an irreducible f
    gf = FIELDS.get(q) or LARGE_FIELDS[q]
    rng = random.Random(n)
    while True:
        f = Poly(gf, [rng.randrange(q) for _ in range(n)] + [1])
        if rabin_pow_mod(f):
            break
    calls = []
    frobenius = Modulus.frobenius
    monkeypatch.setattr(Modulus, "frobenius", lambda mod, h: calls.append(h) or frobenius(mod, h))
    assert is_irreducible(f)
    assert len(calls) == n // 2


def all_monic(gf, n):
    out = [[]]
    for _ in range(n):
        out = [c + [a] for c in out for a in range(gf.q)]
    return [Poly(gf, c + [1]) for c in out]


@st.composite
def symbol_args(draw):
    """(A, P): P monic irreducible of degree 1-5 (1-3 for q >= 25), A of
    degree up to 2 deg P, not divisible by P."""
    q = draw(st.sampled_from(FROB_FIELDS))
    gf = FIELDS[q]
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 3 if q >= 25 else 5))
    while True:
        P = Poly(gf, [rng.randrange(q) for _ in range(n)] + [1])
        if rabin_pow_mod(P):
            break
    A = Poly(gf, [rng.randrange(q) for _ in range(2 * n + 1)])
    assume(not (A % P).is_zero())
    return A, P


@st.composite
def norm_args(draw):
    """(a, P): P monic irreducible of degree 1-8, a nonzero and reduced mod P."""
    q = draw(st.sampled_from(FROB_FIELDS + [2**40 - 87]))
    gf = FIELDS.get(q) or LARGE_FIELDS[q]
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 8))
    while True:
        P = Poly(gf, [rng.randrange(q) for _ in range(n)] + [1])
        if rabin_pow_mod(P):
            break
    a = Poly(gf, [rng.randrange(q) for _ in range(n)])
    assume(not a.is_zero())
    return a, P


@settings(max_examples=200, deadline=None)
@given(norm_args())
@example((Poly(FIELDS[9], [5]), Poly(FIELDS[9], [1, 2, 0, 1])))  # a constant: c^r
@example((Poly(FIELDS[27], [26] * 3), Poly(FIELDS[27], [1, 3, 0, 1])))
def test_norm_matches_pow_mod(args):
    # the resultant Res(P, a) against N(a) = a^((q^r - 1)/(q - 1)) mod P
    a, P = args
    q = P.gf.q
    assert Poly.const(P.gf, _norm(a, P)) == pow_mod(a, (q**P.degree - 1) // (q - 1), P)


@settings(max_examples=200, deadline=None)
@given(symbol_args())
@example((Poly(FIELDS[27], [26] * 7), Poly(FIELDS[27], [1, 3, 0, 1])))
def test_residue_symbol_matches_pow_mod(args):
    # (A/P)_d = A^((q^r - 1)/d) mod P, the definition, for every d | q - 1
    A, P = args
    gf = P.gf
    for d in range(1, gf.q):
        if (gf.q - 1) % d == 0:
            want = pow_mod(A % P, (gf.q ** P.degree - 1) // d, P)
            assert Poly.const(gf, residue_symbol(A, P, d)) == want


def test_pow_mod_products(monkeypatch):
    # square-and-multiply from the top bit: e = 9 = 0b1001 takes three
    # squarings and one product by the base, no product by 1 and no
    # squaring past the top bit
    gf = FIELDS[9]
    rng = random.Random(9)
    f = Poly(gf, [rng.randrange(gf.q) for _ in range(3)] + [1])
    T = Poly.T(gf)
    mul = Poly.__mul__
    calls = []

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Poly, "__mul__", counted)
    want = T**9 % f
    calls.clear()
    assert pow_mod(T, 9, f) == want
    assert len(calls) == 4
    monkeypatch.undo()
    for _ in range(20):
        a = Poly(gf, [rng.randrange(gf.q) for _ in range(5)])
        e = rng.randrange(40)
        assert pow_mod(a, e, f) == a**e % f
        assert a**e == plain_pow(a, e, Poly.one(gf))
    assert pow_mod(a, 0, f) == Poly.one(gf)


def symbol_error(A, P, d):
    try:
        residue_symbol(A, P, d)
    except DomainError as err:
        return str(err)
    return None


def test_residue_symbol_precondition_texts():
    gf = FIELDS[9]
    T, one = Poly.T(gf), Poly.one(gf)
    assert symbol_error(T, T + one, 3) == "d = 3 does not divide q - 1 = 8"
    assert symbol_error(T, T * T, 2) == "T^2 is not monic irreducible"
    assert symbol_error(T, (T + one).scale(2), 2) == "2*T+2 is not monic irreducible"
    assert symbol_error(T, Poly.const(gf, 1), 2) == "1 is not monic irreducible"
    assert symbol_error(T * (T + one), T + one, 2) == "T^2+T is not coprime to T+1"
    assert symbol_error(Poly.zero(gf), T, 2) == "0 is not coprime to T"
    # T^2 + 1 = (T - w)(T + w), since w^2 = -1 in this F_9
    assert symbol_error(T, T * T + one, 2) == "T^2+1 is not monic irreducible"
    # the d check comes first, then P, then A
    assert symbol_error(T * T, T * T, 5) == "d = 5 does not divide q - 1 = 8"
    assert symbol_error(T * T, T * T, 2) == "T^2 is not monic irreducible"


# ---------------------------------------------------------------- Eisenstein orbit sum


def full_eisenstein(L: Lattice, k: int, budget: SeriesBudget):
    """eisenstein by its definition: one term for every nonzero alpha."""
    gf = L.basis[0].gf
    q = gf.q
    e = (q - 1) * k
    prec = budget.precision
    acc, cert, prev = VqElem.zero(gf), {}, None
    for m in range(budget.degree_bound + 1):
        polys = [Poly(gf, [code // q**j % q for j in range(m + 1)]) for code in range(q ** (m + 1))]
        shell, any_term = VqElem.zero(gf), False
        for coeffs in product(polys, repeat=L.rank):
            if max(c.degree for c in coeffs) != m:
                continue
            alpha = VqElem.zero(gf)
            for c, b in zip(coeffs, L.basis):
                if not c.is_zero():
                    alpha = alpha + VqElem.from_poly(c) * b
            if alpha.is_zero():
                continue
            any_term = True
            t = max(prec + (e - 1) * alpha.v, -alpha.v + 1)
            shell = shell + alpha.inverse(prec=t) ** e
        if not any_term:
            continue
        try:
            sval = shell.valuation()
        except BelowPrecision:
            sval = None
        cert[m] = sval if sval is not None else f">={shell.prec}"
        if sval is not None and prev is not None and sval < prev:
            raise CarlitzError(
                f"shell {m} valuation {sval} dropped below {prev}; "
                "the Eisenstein sum diverges at this precision"
            )
        if sval is not None:
            prev = sval
        acc = acc + shell
    return acc.truncate(prec), cert


def eisenstein_outcome(fn, L, k, budget):
    try:
        value, cert = fn(L, k, budget)
    except CarlitzError as err:
        return "error", str(err)
    return str(value), value.prec, cert


def _rand_vq(gf, rng, v, n, prec):
    return VqElem(gf, v, [rng.randrange(1, gf.q)] + [rng.randrange(gf.q) for _ in range(n - 1)], prec)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
@pytest.mark.parametrize("k", [1, 2])
def test_eisenstein_orbit_sum_matches_full_enumeration(q, k):
    gf = FIELDS[q]
    rng = random.Random(10 * q + k)
    lattices = [
        (Lattice([VqElem.monomial(gf, 1, -1)]), 2),
        (Lattice([_rand_vq(gf, rng, rng.randrange(-1, 2), 3, 30)]), 2),
        (Lattice([_rand_vq(gf, rng, -1, 2, 30), _rand_vq(gf, rng, 0, 3, 30)]), 1),
        (Lattice([VqElem.monomial(gf, 1, -1), _rand_vq(gf, rng, 1, 2, None)]), 1),
    ]
    for L, degree_bound in lattices:
        budget = SeriesBudget(degree_bound=degree_bound, precision=16)
        got = eisenstein_outcome(
            lambda *a: eisenstein(*a, with_certificate=True), L, k, budget
        )
        assert got == eisenstein_outcome(full_eisenstein, L, k, budget)


def brute_shell_coeffs(gf, rank, m):
    """_shell_coeffs by its rule: every tuple of polynomials of degree <= m
    whose maximum degree is m and whose first nonzero entry is monic."""
    out = []
    for coeffs in product(list(all_polys(gf, m + 1)), repeat=rank):
        if max(c.degree for c in coeffs) != m:
            continue
        if next(c for c in coeffs if not c.is_zero()).lc == 1:
            out.append(coeffs)
    return out


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_shell_coeffs_matches_rule(q, rank, m):
    gf = FIELDS[q]
    got = list(_shell_coeffs(gf, rank, m))
    assert len(set(got)) == len(got)
    assert set(got) == set(brute_shell_coeffs(gf, rank, m))


# ---------------------------------------------------------------- rank-one Eisenstein shells as power sums


def monic_power_sum(gf, m, n):
    """S_m(n) = sum over monic A of degree m of A^-n, term by term."""
    acc = RatFn.zero(gf)
    for A in all_polys(gf, m, monic=True):
        acc = acc + RatFn(Poly.one(gf), A**n)
    return acc


def check_power_sum(gf, m, n, exact):
    """S_m(n) from the coefficients of e_m against an exact value, on the 12
    digits from its valuation on."""
    c, D = list(_carlitz_e(gf, n, m))[m]
    prec = exact.valuation_inf() + 12
    got = _power_sum(c, D, n, prec)
    assert got.prec >= prec
    assert got.agrees(InfLaurent.from_ratfn(exact, prec), upto=prec), (m, n)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_power_sums_below_q_are_powers_of_one_over_l(q, m):
    # S_m(k) = 1/l_m^k for 1 <= k <= q, l_m = prod_{i=1..m} (T - T^(q^i))
    # (Carlitz); it fails at k = q + 1, so that k is not asserted
    gf = FIELDS[q]
    T = Poly.T(gf)
    l_m = Poly.one(gf)
    for i in range(1, m + 1):
        l_m = l_m * (T - Poly.one(gf).shift(q**i))
    for k in range(1, q + 1):
        exact = RatFn(Poly.one(gf), l_m**k)
        assert monic_power_sum(gf, m, k) == exact, k
        check_power_sum(gf, m, k, exact)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_power_sums_match_the_sum_over_monic_polynomials(q):
    # the exact sum over the 81 monic A of degree 2 over F_9 takes about a
    # minute, so q = 9 stops at degree 1
    gf = FIELDS[q]
    for m in range(3 if q <= 5 else 2):
        for n in range(1, 3 * (q - 1) + 1):
            check_power_sum(gf, m, n, monic_power_sum(gf, m, n))


def test_power_sums_refuse_a_frobenius_degree_past_the_cap():
    # D_m has T-degree m q^m; for q = 3 that passes 2^24 at m = 13, where the
    # orbit loop would take sum 3^m > 2 * 10^6 inverses
    gf = FIELDS[3]
    L = Lattice([VqElem.monomial(gf, 1, -1)])
    with pytest.raises(DomainError, match="above the supported maximum 2"):
        eisenstein(L, 1, SeriesBudget(degree_bound=13))
    with pytest.raises(DomainError):
        next(_carlitz_e(FIELDS[2], 1, 20))
    assert len(list(_carlitz_e(FIELDS[2], 1, 3))) == 4


@st.composite
def rank_one_args(draw):
    q = draw(st.sampled_from([2, 3, 4, 5, 9]))
    gf = FIELDS[q]
    v = draw(st.integers(-2, 2))
    digits = [draw(st.integers(1, q - 1))] + draw(st.lists(st.integers(0, q - 1), max_size=4))
    prec = draw(st.none() | st.integers(v + 1, v + 12))
    degree_bound = draw(st.integers(1, 3))
    budget = SeriesBudget(degree_bound=degree_bound, precision=draw(st.integers(8, 40)))
    return Lattice([VqElem(gf, v, digits, prec)]), draw(st.integers(1, 3)), budget


def eisenstein_args(L, k, budget):
    return "L=[%s] k=%d degree_bound=%d prec=%d" % (L.basis[0], k, budget.degree_bound, budget.precision)


@settings(max_examples=150, deadline=None)
@given(rank_one_args())
@example((Lattice([VqElem(FIELDS[3], 1, [1, 0, 2], 4)]), 2, SeriesBudget(degree_bound=3, precision=40)))
@example((Lattice([VqElem(FIELDS[9], -2, [5, 1], None)]), 3, SeriesBudget(degree_bound=3, precision=8)))
def test_rank_one_power_sums_match_full_enumeration(args):
    L, k, budget = args
    got = eisenstein_outcome(lambda *a: eisenstein(*a, with_certificate=True), L, k, budget)
    assert got == eisenstein_outcome(full_eisenstein, L, k, budget), eisenstein_args(L, k, budget)


# The known uncertified tail, as the orbit loop printed it: degree_bound 1
# stops before shell 2, which moves the digits at s^52 and s^56, above the
# tail bound 20 the enumerated shells certify.  A fix changes these strings
# on purpose.
EISENSTEIN_TAIL_REPRO = {
    1: ("2*s^4 + s^16 + 2*s^20 + s^32 + 2*s^36 + 2*s^40 + s^48 + s^52 + 2*s^56 + O(s^60)", {0: 4, 1: 16}),
    2: ("2*s^4 + s^16 + 2*s^20 + s^32 + 2*s^36 + 2*s^40 + s^48 + 2*s^52 + s^56 + O(s^60)", {0: 4, 1: 16, 2: 52}),
    3: ("2*s^4 + s^16 + 2*s^20 + s^32 + 2*s^36 + 2*s^40 + s^48 + 2*s^52 + s^56 + O(s^60)",
        {0: 4, 1: 16, 2: 52, 3: ">=60"}),
    4: ("2*s^4 + s^16 + 2*s^20 + s^32 + 2*s^36 + 2*s^40 + s^48 + 2*s^52 + s^56 + O(s^60)",
        {0: 4, 1: 16, 2: 52, 3: ">=60", 4: ">=60"}),
}


@pytest.mark.parametrize("degree_bound", sorted(EISENSTEIN_TAIL_REPRO))
def test_eisenstein_tail_repro_is_unchanged(degree_bound):
    L = Lattice([VqElem.monomial(FIELDS[3], 1, -1)])
    E, cert = eisenstein(L, 2, SeriesBudget(precision=60, degree_bound=degree_bound), with_certificate=True)
    assert (str(E), cert) == EISENSTEIN_TAIL_REPRO[degree_bound]


# ---------------------------------------------------------------- Dirichlet descent


def scan_dirichlet(lam: VqElem, n: int):
    """dirichlet_approx by a scan of every T^n-torsion point: the first one
    of greatest v(p - lam), with the same preconditions and bound."""
    gf = lam.gf
    q = gf.q
    try:
        v = lam.valuation()
    except BelowPrecision:
        v = INF
    if v != INF:
        i, r = divmod(v + 1, q - 1)
        if r != 0 or i < 0:
            raise DomainError(f"valuation {v} is not of the form i(q-1) - 1 with i >= 0")
        if n < i + 1:
            raise DomainError(f"order {n} too small for valuation {v}; need n >= {i + 1}")
    if n < 1:
        raise DomainError("order must be positive")
    Mn = Poly.T(gf) ** n
    sep = min_separating_prec(Mn)
    best, best_val = None, None
    for p in torsion_vq(Mn, max(lam.prec if lam.prec is not None else sep + q, sep)):
        try:
            dv = (p - lam).valuation()
        except BelowPrecision:
            dv = INF
        if best_val is None or dv > best_val:
            best, best_val = p, dv
    bound = (n - 1) * (q - 1) - 1
    if best_val <= bound:
        raise CarlitzError(f"no order-{n} torsion point within valuation {bound}; best was {best_val}")
    return Mn, best


@functools.lru_cache(maxsize=None)
def t5_pool(q):
    """T^5-torsion points of valuation -1 at precision 16, as the infinity
    workload draws its Dirichlet targets."""
    T5 = Poly.T(FIELDS[q]) ** 5
    return [p for p in torsion_vq(T5, max(16, min_separating_prec(T5))) if not p.is_zero() and p.v == -1]


@st.composite
def dirichlet_args(draw):
    q = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.integers(2, 4))
    pool = t5_pool(q)
    lam = pool[draw(st.integers(0, len(pool) - 1))]
    # such a lam agrees with a T^n-torsion point past the last leading
    # position (n-1)(q-1) - 1; one changed digit can part them before it,
    # which fails the bound
    nudge = draw(st.none() | st.tuples(st.integers(0, (n + 1) * (q - 1)), st.integers(1, q - 1)))
    if nudge is not None:
        lam = lam + VqElem.monomial(lam.gf, nudge[1], nudge[0])
    # cut below the last leading position, at it and past it, so that some
    # points tie
    cut = draw(st.none() | st.integers(-2, (n + 1) * (q - 1)))
    return (lam if cut is None else lam.truncate(cut)), n


def dirichlet_outcome(f, lam, n):
    try:
        Mn, best = f(lam, n)
    except CarlitzError as err:
        return type(err).__name__, str(err)
    return str(Mn), str(best), best.prec


@settings(max_examples=150, deadline=None)
@given(dirichlet_args())
# the leads at s^3 and s^5 lie past lam's precision and take digit 0:
# 2*s + O(s^6), where a substitution that stops at lam's precision leaves
# 2*s + 2*s^5 + O(s^6)
@example((parse_series("2*s + O(s^3)", FIELDS[3], VqElem), 4))
@example((parse_series("1 + O(s^4)", FIELDS[2], VqElem), 6))  # 1 + O(s^5)
def test_dirichlet_descent_matches_scan(args):
    lam, n = args
    assert dirichlet_outcome(dirichlet_approx, lam, n) == dirichlet_outcome(scan_dirichlet, lam, n)


def period_partial_multiplied(gf, N):
    """prod_{n=1}^N (1 - [n]/[n+1]) with its numerator and denominator
    multiplied out and reduced by one gcd: the oracle for period_partial's
    closed form."""
    T = Poly.T(gf)
    # [n] = T^(q^n) - T for n = 1..N+1
    brackets = [Poly.one(gf).shift(gf.q**n) - T for n in range(1, N + 2)]
    num = den = Poly.one(gf)
    for b, b_next in zip(brackets, brackets[1:]):
        num, den = num * (b_next - b), den * b_next
    return RatFn(num, den)


@pytest.mark.parametrize(
    "q, N",
    [(q, N) for q in (2, 3, 4) for N in range(1, 6)]
    + [(q, N) for q in (5, 7, 8, 9) for N in range(1, 4)]
    + [(3, 6), (3, 7)],
)
def test_period_partial_closed_form_matches_multiplied_out(q, N):
    gf = FIELDS[q]
    got, want = period_partial(gf, N), period_partial_multiplied(gf, N)
    assert (got.num, got.den) == (want.num, want.den) and str(got) == str(want)
    # the gcd finds nothing to cancel in the closed form's pair, and the
    # trusted constructor still makes a scaled denominator monic
    c = gf.q - 1
    for num, den in [(got.num, got.den), (got.num.scale(c), got.den.scale(c))]:
        assert RatFn.reduced(num, den) == RatFn(num, den) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_period_partial_matches_chained_factors(q):
    # the closed form against one gcd-normalised RatFn product per factor
    gf = FIELDS[q]
    one = RatFn.from_poly(Poly.one(gf))
    brackets = [Poly.one(gf).shift(q**n) - Poly.T(gf) for n in range(1, 5)]
    acc = one
    for N in range(1, 4):
        acc = acc * (one - RatFn(brackets[N - 1], brackets[N]))
        got = period_partial(gf, N)
        assert got == acc and str(got) == str(acc)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_period_partial_is_the_truncated_period_product(q):
    # prod_{i=1}^{N+1} T^(q^i)/[i] = P_N T^(q + ... + q^(N+1)) / [1]^((q^(N+1) - 1)/(q - 1)),
    # each side reduced by RatFn's gcd
    gf = FIELDS[q]
    one, T = Poly.one(gf), Poly.T(gf)
    bracket = [None] + [one.shift(q**i) - T for i in range(1, 5)]
    for N in range(1, 4):
        lhs = RatFn.from_poly(one)
        for i in range(1, N + 2):
            lhs = lhs * RatFn(one.shift(q**i), bracket[i])
        top = sum(q**i for i in range(1, N + 2))
        rhs = period_partial(gf, N) * RatFn(one.shift(top), bracket[1] ** ((q ** (N + 1) - 1) // (q - 1)))
        assert lhs == rhs


# ---------------------------------------------------------------- F_{p^r} tables


def fp_polymul(a, b, p):
    """Schoolbook product of coefficient lists over F_p."""
    res = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            res[i + j] = (res[i + j] + x * y) % p
    return res


def fp_polymod(a, m, p):
    """a mod a monic m over F_p, by long division, without trailing zeros."""
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1]
        shift = len(a) - 1 - dm
        for i, y in enumerate(m):
            a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_irreducible(coeffs, p):
    """Irreducibility over F_p by trial division by every monic polynomial
    of degree 1 .. deg/2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for c in digit_vectors(p, d):
            if not fp_polymod(coeffs, c + [1], p):
                return False
    return deg >= 1


def fp_monic(p, r):
    """The monic polynomials of degree r over F_p, least base-p code first."""
    return [c + [1] for c in digit_vectors(p, r)]


@pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 8)])
def test_gf_add_neg_tables_match_coordinates(p, r):
    # q in {4, 8, 9, 16, 25, 27, 49, 256}: the default modulus, every sum,
    # negative, product, inverse and power, and the slot reduction table,
    # against coordinates and the schoolbook F_p polynomials
    gf = GF(p, r)
    m = next(f for f in fp_monic(p, r) if fp_irreducible(f, p))
    assert gf.modulus == tuple(m)
    coords = [gf.coords(a) for a in range(gf.q)]
    for a, ca in enumerate(coords):
        assert gf.neg(a) == gf._from_coords([-c for c in ca])
        assert [gf.add(a, b) for b in range(gf.q)] == [
            gf._from_coords([x + y for x, y in zip(ca, cb)]) for cb in coords
        ]
        assert [gf.mul(a, b) for b in range(gf.q)] == [
            gf._from_coords(fp_polymod(fp_polymul(ca, cb, p), m, p)) for cb in coords
        ]
        if a:
            assert gf.mul(a, gf.inv(a)) == 1
    x, power = random.Random(gf.q).randrange(1, gf.q), 1
    for e in range(2 * gf.q):
        assert gf.pow(x, e) == power and gf.pow(x, -e) == gf.inv(power)
        power = gf.mul(power, x)
    digits, reduce = gf.slot_tables()
    assert digits == [bytes(c + (0,) * (r - 1)) for c in coords]
    assert reduce == {
        w: gf._from_coords(fp_polymod(w, m, p)) for w in product(range(p), repeat=2 * r - 1)
    }


@pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2), (2, 8)])
def test_gf_supplied_modulus_checked(p, r):
    # every monic modulus of degree r is taken exactly when it is irreducible
    for f in fp_monic(p, r):
        if fp_irreducible(f, p):
            assert GF(p, r, f).modulus == tuple(f)
        else:
            with pytest.raises(DomainError, match="^supplied modulus is reducible$"):
                GF(p, r, f)
    with pytest.raises(DomainError, match="^modulus must be monic of degree r$"):
        GF(p, r, [1] * r)
