"""The packed F_q[T] kernel against the schoolbook definitions, and q-power
exponentiation in F_q[T]/P^N against plain square-and-multiply."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from carlitz.gf import GF
from carlitz.padic import PadicCtx
from carlitz.poly import Poly, _slot_bytes, parse_poly

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
