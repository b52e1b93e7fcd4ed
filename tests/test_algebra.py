"""Base rings: finite fields, polynomials, residue fields, P-adic completions."""

import random

import pytest

from conftest import ORDER_FIELDS, field, rand_poly
from test_oracles import earlier_tests
from carlitz.errors import BelowPrecision, CarlitzError, DomainError
from carlitz.gf import GF
from carlitz.padic import PadicCtx, hensel_lift
from carlitz.poly import (
    Poly,
    RatFn,
    euler_phi,
    is_irreducible,
    monic_irreducibles,
    parse_poly,
    poly_ext_gcd,
    poly_gcd,
)
from carlitz.operator import AdditivePoly, XPoly
from carlitz.residues import ddf
from carlitz.series import InfLaurent, VqElem, parse_series

# the rows of tests/test_oracles.py that keep their earlier ids in this module
globals().update(earlier_tests(__name__))


# ---------------------------------------------------------------- GF


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9])
def test_gf_field_axioms_sampled(q):
    gf = field(q)
    rng = random.Random(q)
    for _ in range(200):
        a, b, c = (rng.randrange(gf.q) for _ in range(3))
        assert gf.add(a, b) == gf.add(b, a)
        assert gf.mul(a, b) == gf.mul(b, a)
        assert gf.mul(a, gf.add(b, c)) == gf.add(gf.mul(a, b), gf.mul(a, c))
        assert gf.add(a, gf.neg(a)) == 0
        if a:
            assert gf.mul(a, gf.inv(a)) == 1


@pytest.mark.parametrize("q", sorted(ORDER_FIELDS))
def test_gf_primitive_element_and_order_of_zero(q):
    # the orders themselves against stepping: test_oracles.py row GF.order
    p, r, primitive = ORDER_FIELDS[q]
    gf = GF(p, r)
    assert gf.primitive_element() == primitive
    with pytest.raises(DomainError, match="0 has no multiplicative order"):
        gf.order(0)


@pytest.mark.parametrize("q", [4, 5, 9])
def test_gf_frobenius_and_primitive(q):
    gf = field(q)
    p = gf.p
    # x -> x^p is additive
    for a in range(gf.q):
        for b in range(gf.q):
            assert gf.pow(gf.add(a, b), p) == gf.add(gf.pow(a, p), gf.pow(b, p))
    g = gf.primitive_element()
    seen = {gf.pow(g, k) for k in range(gf.q - 1)}
    assert len(seen) == gf.q - 1


def test_gf_refuses_a_p_that_is_not_prime():
    # 2 * 549755813881 is refused only after the largest prime below 2^39
    # is split off, within the 2^40 cap
    for p in (-3, 0, 1, 4, 9, 561, 2 * 549755813881):
        with pytest.raises(DomainError, match=f"^{p} is not prime$"):
            GF(p)


def test_gf_elem_format_roundtrip():
    gf = field(4)
    for a in range(4):
        assert gf.parse_elem(gf.fmt_elem(a)) == a


@pytest.mark.parametrize("text", ["wx1", "w_2", "w2", "2w0", "w^-1"])
def test_malformed_power_of_w_raises(text):
    # each was once read as some power of w, or raised a bare ValueError
    with pytest.raises(DomainError):
        field(8).parse_elem(text)


def test_malformed_coefficient_in_a_polynomial_raises():
    with pytest.raises(DomainError):
        parse_poly("(w_2+1)*T", GF(2, 3))


def test_coefficient_before_w_without_star():
    gf, w = field(9), 3
    assert gf.parse_elem("2w") == gf.mul(2, w) == gf.parse_elem("2*w")
    assert parse_poly("2T", gf) == parse_poly("2*T", gf)
    assert parse_series("2s", gf, VqElem) == parse_series("2*s", gf, VqElem)


def test_gf_size_cap():
    # the cap is checked before the primality loop and before any table, so
    # each field rejected below fails at once
    assert GF(2**40 - 87).q == 2**40 - 87  # the largest prime under the cap
    for p, r in [(2**40 + 15, 1), (10**30 + 57, 1), (2, 9), (2, 20), (3, 6), (17, 2), (3, 10**9)]:
        with pytest.raises(DomainError, match="above the supported maximum"):
            GF(p, r)
    # the largest extension fields under the cap build without their tables
    assert [GF(p, r).q for p, r in [(2, 8), (3, 5), (5, 3), (7, 2), (13, 2)]] == [256, 243, 125, 49, 169]


# ---------------------------------------------------------------- Poly


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_poly_divmod_and_gcd(q):
    gf = field(q)
    rng = random.Random(10 * q)
    for _ in range(100):
        a = rand_poly(gf, rng, 6)
        b = rand_poly(gf, rng, 4, nonzero=True)
        quo, rem = divmod(a, b)
        assert quo * b + rem == a
        assert rem.degree < b.degree
        g = poly_gcd(a, b)
        if not a.is_zero():
            assert (a % g).is_zero() and (b % g).is_zero()
        g2, x, y = poly_ext_gcd(a, b)
        assert x * a + y * b == g2


def test_poly_parse_and_str_roundtrip():
    gf3 = field(3)
    for text in ["T^3+2*T+1", "2*T^2", "1", "0", "T"]:
        f = parse_poly(text, gf3)
        assert parse_poly(str(f), gf3) == f
    gf4 = field(4)
    f = parse_poly("(w+1)*T^2+w", gf4)
    assert f.degree == 2
    assert parse_poly(str(f), gf4) == f


def test_irreducible_counts():
    # the number of monic irreducibles of degree d over F_q is
    # (1/d) * sum_{e | d} mu(e) q^{d/e}
    assert len([f for f in monic_irreducibles(field(3), 2) if f.degree == 2]) == 3
    assert len([f for f in monic_irreducibles(field(2), 3) if f.degree == 3]) == 2
    assert len([f for f in monic_irreducibles(field(5), 2) if f.degree == 2]) == 10
    for f in monic_irreducibles(field(3), 3):
        assert is_irreducible(f)


def test_frob_q_semilinearity():
    gf = field(4)
    rng = random.Random(7)
    for _ in range(50):
        a = rand_poly(gf, rng, 4)
        b = rand_poly(gf, rng, 4)
        assert (a + b).frobenius() == a.frobenius() + b.frobenius()
        assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_euler_phi():
    gf = field(3)
    T = Poly.T(gf)
    P = T * T + Poly.one(gf)  # irreducible over F_3
    assert euler_phi(P) == 8
    assert euler_phi(T * T) == 6
    assert euler_phi(T * (T + Poly.one(gf))) == 4


def test_ratfn_reduction_and_valuation():
    gf = field(3)
    T = Poly.T(gf)
    one = Poly.one(gf)
    x = RatFn(T * T - one, T - one)  # (T-1)(T+1)/(T-1) -> T+1
    assert x.num == T + one and x.den == one
    assert RatFn(one, T * T).valuation_inf() == 2
    assert RatFn(T * T, T).valuation_inf() == -1


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ratfn_point_at_infinity(q):
    gf = field(q)
    T = Poly.T(gf)
    one, zero = Poly.one(gf), Poly.zero(gf)
    inf = RatFn.infinity(gf)
    assert inf.is_infinity() and (inf.num, inf.den) == (one, zero)
    # RatFn.reduced, which trusts a pair to be coprime, takes no gcd on
    # these either and gives the same points
    for c in range(1, q):
        for num in (Poly.const(gf, c), T.scale(c) + one, T * T.scale(c)):
            assert RatFn(num, zero) == RatFn.reduced(num, zero) == inf
        assert RatFn.reduced(zero, T.scale(c)) == RatFn.zero(gf)
    for make in (RatFn, RatFn.reduced):
        with pytest.raises(DomainError):
            make(zero, zero)
    x = RatFn(T + one, T * T)
    assert x + inf == inf and inf + x == inf and inf + T == inf
    assert x / inf == RatFn.zero(gf) and not RatFn.zero(gf).is_infinity()
    with pytest.raises(DomainError):
        inf - inf
    with pytest.raises(DomainError):
        x / RatFn.zero(gf)
    with pytest.raises(DomainError):
        inf.valuation_inf()
    with pytest.raises(DomainError):
        InfLaurent.from_ratfn(inf, 8)


def test_ratfn_text_form():
    gf = field(3)
    T = Poly.T(gf)
    one = Poly.one(gf)
    assert str(RatFn.infinity(gf)) == "inf"
    assert str(RatFn.zero(gf)) == "0"
    assert str(RatFn(one, T)) == "1/T"
    assert str(RatFn(T + one, T * T)) == "(T+1)/T^2"
    assert str(RatFn(T.scale(2), T + one)) == "2*T/(T+1)"
    assert str(RatFn(T * T + T, T)) == "T+1"


def test_ratfn_text_form_parenthesizes_sides_by_t_terms():
    # a side is wrapped when it has more than one nonzero T-term, not when
    # its coefficient's text holds a "+"; the x-polynomials wrap their
    # coefficients by the same rule
    gf = GF(2, 2)
    T = Poly.T(gf)
    assert str(RatFn(Poly(gf, [3]), T)) == "(w+1)/T"
    assert str(RatFn(Poly(gf, [0, 0, 3]), T + Poly.one(gf))) == "(w+1)*T^2/(T+1)"
    assert str(RatFn(Poly(gf, [1, 3]), T)) == "((w+1)*T+1)/T"
    assert str(RatFn(Poly.one(gf), Poly(gf, [3, 1]))) == "1/(T+(w+1))"
    # a constant, a multi-term F_4 constant, a monomial and a binomial, at
    # x-exponents 0, 1, 2 and 4 (from_terms leaves a zero at x^3)
    coeffs = [Poly.one(gf), Poly(gf, [3]), Poly(gf, [0, 0, 3]), Poly(gf, [1, 3])]
    x = XPoly.from_terms(gf, dict(zip([0, 1, 2, 4], coeffs)))
    assert x.coeffs[3].is_zero() and str(x) == "((w+1)*T+1)*x^4 + (w+1)*T^2*x^2 + (w+1)*x + 1"
    assert str(AdditivePoly(gf, coeffs)) == "((w+1)*T+1)*x^64 + (w+1)*T^2*x^16 + (w+1)*x^4 + x"
    assert XPoly.from_terms(gf, {}) == XPoly.zero(gf) and str(XPoly.from_terms(gf, {})) == "0"


# ---------------------------------------------------------------- residues / ddf


def test_ddf_splits_known_polynomials():
    gf = field(3)
    T = Poly.T(gf)
    P = T * T + Poly.one(gf)
    f = [T.scale(gf.neg(1)), Poly.zero(gf), Poly.one(gf)]  # x^2 - T
    degs = ddf(f, P)
    assert sum(d * c for d, c in degs) == 2
    # mod T+1, x^2 - T = x^2 + 1 = (x+...)(x-...)? over F_3, -1 is not a
    # square, so x^2 + 1 is irreducible: a single factor of degree 2
    assert ddf(f, T + Poly.one(gf)) == [(2, 1)]
    # mod T-1, x^2 - T = x^2 - 1 splits into two linear factors
    assert ddf(f, T - Poly.one(gf)) == [(1, 2)]


@pytest.mark.parametrize("P", ["T+1", "T^2+1"])
def test_ddf_refuses_mixed_coefficient_fields(P):
    # a coefficient over F_9 mod a prime over F_3, on both routes of ddf
    f = [Poly(field(9), [5]), Poly.zero(field(9)), Poly.one(field(9))]
    with pytest.raises(DomainError, match="mixed coefficient fields"):
        ddf(f, parse_poly(P, field(3)))


def test_ddf_errors_at_a_linear_prime():
    # each coefficient is read at T = 4: f(4) must be nonconstant and squarefree
    gf = field(5)
    T, one = Poly.T(gf), Poly.one(gf)
    P = T + one
    with pytest.raises(DomainError, match="^ddf requires a nonconstant polynomial$"):
        ddf([T, P], P)
    # (x + 1)^2, and x^5 + 1 with derivative 0
    for f in ([one, one.scale(2) + P, one], [one, P, P, P, P, one]):
        with pytest.raises(DomainError, match="^ddf input must be squarefree over the residue field$"):
            ddf(f, P)


# ---------------------------------------------------------------- padic


def test_padic_ring_basics():
    gf = field(3)
    P = parse_poly("T^2+1", gf)
    ctx = PadicCtx(P, 3)
    rng = random.Random(1)
    for _ in range(50):
        a = ctx.elem(rand_poly(gf, rng, 5))
        b = ctx.elem(rand_poly(gf, rng, 5))
        assert a + b == b + a
        assert a * b == b * a
        if not (a.rep % P).is_zero():
            assert a * a.inverse() == ctx.one()


def test_padic_valuation_and_digits():
    gf = field(3)
    P = Poly.T(gf)
    ctx = PadicCtx(P, 4)
    x = ctx.elem(P * P + P * P * P)  # T^2 + T^3
    assert x.valuation() == 2
    digits = x.digits()
    assert [str(d) for d in digits] == ["0", "0", "1", "1"]
    with pytest.raises(BelowPrecision):
        ctx.zero().valuation()
    # the one digit loop at its edges: the zero residue, P^(N-1) times a
    # unit (one nonzero digit, the last), and N = 1; the digits rebuild the
    # residue and the lower valuation is the index of the first nonzero one
    gf9 = field(9)
    P9 = Poly(gf9, [3, 1, 1])  # T^2 + T + w
    unit = Poly(gf9, [5, 2])
    for c, rep in [(ctx, Poly.zero(gf)), (PadicCtx(P, 4), P**3 * Poly(gf, [2, 1])), (PadicCtx(P, 1), Poly(gf, [2])),
                   (PadicCtx(P9, 3), Poly.zero(gf9)), (PadicCtx(P9, 3), P9**2 * unit), (PadicCtx(P9, 1), unit)]:
        y = c.elem(rep)
        digits = y.digits()
        assert len(digits) == c.N and all(d.degree < c.P.degree for d in digits)
        assert sum((d * c.P**k for k, d in enumerate(digits)), Poly.zero(c.gf)) == y.rep
        assert y.valuation_lower() == next((k for k, d in enumerate(digits) if not d.is_zero()), c.N)
    assert PadicCtx(P9, 3).elem(P9**2 * unit).valuation_lower() == 2
    assert PadicCtx(P, 1).zero().valuation_lower() == 1


def test_padic_requires_irreducible_modulus():
    gf = field(3)
    T = Poly.T(gf)
    with pytest.raises(DomainError):
        PadicCtx(T * T, 2)


def test_hensel_square_root():
    # sqrt(1 - T) in F_3[[T]] mod T^3 is 1 + T + T^2
    gf = field(3)
    T = Poly.T(gf)
    one = Poly.one(gf)
    ctx = PadicCtx(T, 3)
    f = XPoly(gf, [T - one, Poly.zero(gf), one])  # x^2 - (1 - T)
    root = hensel_lift(f, ctx.one(), ctx)
    assert root.rep == one + T + T * T


def test_hensel_rejects_non_root():
    gf = field(3)
    T = Poly.T(gf)
    ctx = PadicCtx(T, 3)
    f = XPoly(gf, [T - Poly.one(gf), Poly.zero(gf), Poly.one(gf)])
    with pytest.raises(DomainError):
        hensel_lift(f, ctx.elem(T), ctx)


def test_hensel_rejects_double_root():
    gf = field(3)
    zero, one = Poly.zero(gf), Poly.one(gf)
    ctx = PadicCtx(Poly.T(gf), 3)
    f = XPoly(gf, [zero, zero, one])  # x^2: a root at 0, and so is f'
    with pytest.raises(DomainError, match="not simple"):
        hensel_lift(f, ctx.zero(), ctx)


def test_hensel_fails_fast_without_a_root():
    # a stub f that is 0 mod P but P^(N-1) mod P^N however a moves: Newton
    # never lands, and the lift gives up after ceil(log2 N) + 1 steps
    gf = field(3)
    T = Poly.T(gf)
    ctx = PadicCtx(T, 5)
    calls = []

    class Stuck:
        def evaluate(self, a):
            calls.append(a)
            return ctx.elem(T ** 4)

        def derivative(self):
            return Const()

    class Const:
        def evaluate(self, a):
            return ctx.one()

    with pytest.raises(CarlitzError, match="did not reach a root"):
        hensel_lift(Stuck(), ctx.zero(), ctx)
    # the first value, then one per step: ceil(log2 5) + 1 = 4 steps
    assert len(calls) == 5


@pytest.mark.parametrize("q", [3, 4, 9])
def test_xpoly_evaluate_commutes_with_embeddings(q):
    # Horner in F_q[T] followed by the embedding equals Horner in the
    # completion: F_q[T] -> F_q[T]/P^N and F_q[T] -> V_q are ring maps
    gf = field(q)
    rng = random.Random(q)
    ctx = PadicCtx(monic_irreducibles(gf, 2)[-1], 3)
    for _ in range(10):
        f = XPoly(gf, [rand_poly(gf, rng, 2) for _ in range(rng.randrange(1, 5))])
        u = rand_poly(gf, rng, 3)
        assert f.evaluate(ctx.elem(u)) == ctx.elem(f.evaluate(u))
        assert f.evaluate(VqElem.from_poly(u)) == VqElem.from_poly(f.evaluate(u))
