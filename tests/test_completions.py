"""Laurent series at infinity and the V_q completion: digits, precision
semantics, parsing, and the lattice map between the two uniformizers."""

import random

import pytest

from conftest import field, rand_poly
from carlitz.errors import BelowPrecision, DomainError, PrecisionError
from carlitz.poly import Poly, RatFn, parse_poly
from carlitz.series import InfLaurent, VqElem, parse_series


# ---------------------------------------------------------------- construction


def test_from_poly_is_exact():
    gf = field(3)
    f = parse_poly("T^2+2*T", gf)
    x = InfLaurent.from_poly(f)
    assert x.prec is None
    # T^k sits at u-exponent -k (u = 1/T)
    assert x.digit(-2) == 1 and x.digit(-1) == 2 and x.digit(0) == 0
    assert x.valuation() == -2


def test_zero_valuations():
    gf = field(3)
    assert InfLaurent.zero(gf).valuation() == float("inf")
    with pytest.raises(BelowPrecision):
        InfLaurent.zero(gf).truncate(5).valuation()
    # no terms: the exact zero, or a truncated zero at the given precision
    assert InfLaurent.from_terms(gf, {}) == InfLaurent.zero(gf)
    assert VqElem.from_terms(gf, {}, 4) == VqElem.zero(gf, 4)
    assert VqElem.from_terms(gf, {}).valuation() == float("inf")


def test_from_ratfn_geometric_series():
    gf = field(3)
    one = Poly.one(gf)
    T = Poly.T(gf)
    # 1/(T-1) = sum_{k>=1} T^{-k}: every u-digit from exponent 1 on is 1
    x = InfLaurent.from_ratfn(RatFn(one, T - one), 6)
    assert [x.digit(k) for k in range(1, 6)] == [1, 1, 1, 1, 1]
    assert x.prec == 6


def test_from_ratfn_at_or_below_the_valuation_keeps_the_leading_digit():
    gf = field(3)
    one = Poly.one(gf)
    T = Poly.T(gf)
    # v(1/(T-1)) = 1: a precision of 1 or less used to ask for a vacuous inverse
    for prec in (1, 0, -3):
        x = InfLaurent.from_ratfn(RatFn(one, T - one), prec)
        assert dict(x.terms()) == {1: 1} and x.prec == 2


def test_parse_roundtrip_inf():
    gf = field(3)
    for text in ["T^2 + 2*T + 1 + O(T^-4)", "2*T^-1", "0"]:
        x = parse_series(text, gf, InfLaurent)
        assert parse_series(str(x), gf, InfLaurent) == x


def test_parse_roundtrip_vq():
    gf = field(3)
    for text in ["2*s^-1 + 2*s", "s^-1 + s^2 + O(s^5)", "0"]:
        x = parse_series(text, gf, VqElem)
        assert parse_series(str(x), gf, VqElem) == x


# ---------------------------------------------------------------- precision


def test_add_precision_is_min():
    gf = field(3)
    a = InfLaurent.monomial(gf, 1, 0, prec=5)
    b = InfLaurent.monomial(gf, 1, 2, prec=9)
    assert (a + b).prec == 5


def test_mul_precision_rule():
    gf = field(3)
    a = InfLaurent.monomial(gf, 1, 2, prec=7)   # v=2, prec 7
    b = InfLaurent.monomial(gf, 2, 3, prec=10)  # v=3, prec 10
    # min(v1 + p2, v2 + p1) = min(2 + 10, 3 + 7) = 10
    assert (a * b).prec == 10
    assert (a * b).digit(5) == 2


def test_frobenius_scales_precision():
    gf = field(3)
    a = InfLaurent.monomial(gf, 2, 1, prec=4)
    fa = a.frobenius()
    assert fa.prec == 12
    assert fa.digit(3) == 2  # 2^3 = 2 in F_3


def test_digit_below_precision_raises():
    gf = field(3)
    a = InfLaurent.monomial(gf, 1, 0, prec=3)
    with pytest.raises(BelowPrecision):
        a.digit(3)


def test_inverse_rules():
    gf = field(3)
    # exact monomials invert exactly
    m = InfLaurent.monomial(gf, 2, 3)
    assert m.inverse().prec is None
    assert (m * m.inverse()).digit(0) == 1
    # exact multi-term input needs an explicit precision
    a = InfLaurent.from_poly(parse_poly("T+1", field(3)))
    with pytest.raises(PrecisionError):
        a.inverse()
    inv = a.inverse(prec=8)
    prod = a * inv
    assert prod.digit(0) == 1
    assert all(prod.digit(k) == 0 for k in range(1, prod.prec))


def test_division_random_roundtrip():
    gf = field(3)
    rng = random.Random(5)
    for _ in range(30):
        a = InfLaurent.from_poly(rand_poly(gf, rng, 3, nonzero=True)).truncate(12)
        b = InfLaurent.from_poly(rand_poly(gf, rng, 3, nonzero=True)).truncate(12)
        c = a / b
        assert (c * b).agrees(a, upto=min(c.prec + b.v, 8))


# ---------------------------------------------------------------- V_q lattice


def test_vq_from_inf_signs():
    gf = field(3)
    # T = -s^-2, so T^k = (-1)^k s^{-2k}
    T = VqElem.from_poly(Poly.T(gf))
    assert T.digit(-2) == gf.neg(1)
    T2 = VqElem.from_poly(parse_poly("T^2", gf))
    assert T2.digit(-4) == 1


def test_vq_roundtrip_and_off_lattice():
    gf = field(3)
    rng = random.Random(11)
    for _ in range(20):
        f = rand_poly(gf, rng, 4, nonzero=True)
        x = VqElem.from_poly(f)
        assert x.to_inf() == InfLaurent.from_poly(f)
    off = VqElem.monomial(gf, 1, 1)  # s^1 is not in the image of F_q((1/T))
    with pytest.raises(DomainError):
        off.to_inf()


def test_vq_valuation_scaling():
    gf = field(3)
    f = parse_poly("T^2+T", gf)
    assert VqElem.from_poly(f).valuation() == (3 - 1) * InfLaurent.from_poly(f).valuation()


def test_truncate_and_agrees():
    gf = field(3)
    a = VqElem.from_terms(gf, {-1: 2, 1: 2, 4: 1})
    assert (a.v, a.coeffs, a.prec) == (-1, (2, 0, 2, 0, 0, 1), None)
    t = a.truncate(3)
    assert t.prec == 3
    assert t.agrees(a, upto=3)
    assert a.agrees(a + VqElem.monomial(gf, 1, 10), upto=10)
    assert not a.agrees(a + VqElem.monomial(gf, 1, 2), upto=10)
