"""The packed F_q[T] kernel against the schoolbook definitions, series
multiply and inverse on that kernel against the digit loops, the torsion
search against its per-candidate form, and q-power exponentiation in
F_q[T]/P^N against plain square-and-multiply."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlitz.analytic import SeriesBudget, carlitz_exp
from carlitz.errors import DomainError, PrecisionError
from carlitz.gf import GF
from carlitz.operator import carlitz_act
from carlitz.padic import PadicCtx
from carlitz.poly import Poly, _slot_bytes, parse_poly
from carlitz.series import INF, InfLaurent, Series, VqElem, _min_prec, parse_series
from carlitz.torsion import TorsionSetVq, _slope_data, min_separating_prec, torsion_vq

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
                rem[i - db + j] = gf.sub(rem[i - db + j], gf.mul(f, y))
    return Poly(gf, quo), Poly(gf, rem)


def plain_pow(x, e):
    res, base = x.ctx.one(), x
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


@settings(max_examples=150, deadline=None)
@given(series_pairs(), st.data())
def test_series_mul_precision_contract(pair, data):
    # truncating an operand changes no digit the coarser product claims
    a, b = pair
    top = a.prec if a.prec is not None else a.v + len(a.coeffs) + 4
    coarse = a.truncate(data.draw(st.integers(min(a._veff(), top) - 3, top)))
    fine, rough = a * b, coarse * b
    assert rough.prec is not None or fine.prec is None
    assert rough.agrees(fine)
    assert fine.prec is None or rough.prec is None or rough.prec <= fine.prec


@settings(max_examples=150, deadline=None)
@given(inverse_args(), st.data())
def test_series_inverse_precision_contract(args, data):
    # inverting a coarser truncation changes no digit the coarser inverse claims
    x, prec = args
    top = x.prec if x.prec is not None else x.v + len(x.coeffs) + 4
    coarse = x.truncate(data.draw(st.integers(x.v + 1, max(top, x.v + 1))))
    fine, rough = outcome(x.inverse, prec), outcome(coarse.inverse, prec)
    if isinstance(rough, Series) and isinstance(fine, Series):
        assert rough.agrees(fine)
        assert fine.prec is None or rough.prec <= fine.prec
    elif isinstance(fine, Series):
        # only a request beyond the coarser input's own precision can fail
        assert rough is DomainError


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


# ---------------------------------------------------------------- torsion search


def search_torsion_vq(M: Poly, prec: int) -> TorsionSetVq:
    """torsion_vq with the digit image rebuilt for every candidate."""
    gf = M.gf
    q = gf.q
    coeff_vals, op = _slope_data(M)
    cands = [({}, {})]
    for k in range(-1, prec):
        floor_next = min(v + (q ** i) * (k + 1) for i, v in coeff_vals)
        contrib = []
        for i, _ in coeff_vals:
            c = op.coeffs[i]
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
    assert len(cands) == q ** M.degree
    return TorsionSetVq(M, prec, [VqElem.from_terms(gf, digs, prec) for digs, _ in cands])


TORSION_ORDERS = [
    (q, d) for q in (2, 3, 4, 5, 9) for d in (1, 2, 3) if q ** d <= 243
]


@pytest.mark.parametrize("q, d", TORSION_ORDERS)
def test_torsion_vq_matches_per_candidate_search(q, d):
    gf = FIELDS[q]
    rng = random.Random(100 * q + d)
    for M in (Poly.one(gf).shift(d), _rand(gf, d + 1, rng.random())):
        sep = min_separating_prec(M)
        for prec in range(sep, max(2 * sep, 4) + 1):
            got, want = torsion_vq(M, prec), search_torsion_vq(M, prec)
            assert got.to_json() == want.to_json()
            assert [str(x) for x in got] == [str(x) for x in want]
