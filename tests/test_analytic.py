"""Truncated analytic series: the additive exponential, partial products for
the period, and rank-one Eisenstein-type lattice sums, each with a
convergence certificate."""

import random

import pytest

from conftest import field
from carlitz.analytic import Lattice, SeriesBudget, carlitz_exp, eisenstein, period_partial
from carlitz.errors import DomainError
from carlitz.operator import D_sequence, carlitz_act
from carlitz.poly import Poly, RatFn
from carlitz.series import VqElem, parse_series


# ---------------------------------------------------------------- exponential


def test_exp_frozen_series():
    gf = field(3)
    z = VqElem.monomial(gf, 1, 2, prec=40)
    e, cert = carlitz_exp(z, SeriesBudget(precision=36), with_certificate=True)
    assert str(e) == "s^2 + 2*s^12 + 2*s^16 + 2*s^20 + 2*s^24 + 2*s^28 + 2*s^32 + O(s^36)"
    # certificate: strictly increasing term valuations
    assert cert == {0: 2, 1: 12, 2: 54}
    assert sorted(cert.values()) == list(cert.values())


def test_exp_functional_equation():
    gf = field(3)
    T = Poly.T(gf)
    rng = random.Random(31)
    budget = SeriesBudget(precision=30)
    for _ in range(10):
        z = VqElem.from_terms(
            gf,
            {k: rng.randrange(3) for k in range(1, 6)},
            prec=40,
        )
        lhs = carlitz_exp(VqElem.from_poly(T) * z, budget)
        rhs = carlitz_act(T, carlitz_exp(z, budget))
        upto = min(lhs.prec, rhs.prec, 25)
        assert lhs.agrees(rhs, upto=upto)


def test_exp_additivity():
    gf = field(3)
    rng = random.Random(37)
    budget = SeriesBudget(precision=30)
    for _ in range(5):
        a = VqElem.from_terms(gf, {k: rng.randrange(3) for k in range(1, 5)}, prec=40)
        b = VqElem.from_terms(gf, {k: rng.randrange(3) for k in range(1, 5)}, prec=40)
        lhs = carlitz_exp(a + b, budget)
        rhs = carlitz_exp(a, budget) + carlitz_exp(b, budget)
        assert lhs.agrees(rhs, upto=min(lhs.prec, rhs.prec, 25))


def test_exp_entire_at_negative_valuation():
    # term valuations q^n(v(z) + (q-1)n) grow from the start when v(z) > -q,
    # so the sum converges here even below valuation zero
    gf = field(3)
    z = VqElem.monomial(gf, 1, -1, prec=20)
    e, cert = carlitz_exp(z, SeriesBudget(precision=16), with_certificate=True)
    assert e.valuation() == -1
    vals = [v for v in cert.values() if isinstance(v, int)]
    assert vals == sorted(vals)


def test_exp_tie_at_valuation_minus_q():
    # at v(z) = -q the first two term valuations tie, then they rise
    gf = field(3)
    z = VqElem.monomial(gf, 1, -3, prec=40)
    e, cert = carlitz_exp(z, SeriesBudget(precision=36), with_certificate=True)
    assert cert == {0: -3, 1: -3, 2: 9, 3: 81}
    assert str(e) == "2*s + 2*s^5 + 2*s^13 + 2*s^17 + 2*s^29 + O(s^36)"


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_exp_entire_below_valuation_minus_q(q):
    # for v(z) < -q the term valuations first fall, may tie once, and then
    # rise for good; e(Tz) = rho_T(e(z)) holds on every claimed digit
    gf = field(q)
    T = Poly.T(gf)
    budget = SeriesBudget(term_count=12, precision=12)
    for v in range(-2 * q - 2, 2):
        z = VqElem.monomial(gf, 1, v, prec=v + 10)
        e, cert = carlitz_exp(z, budget, with_certificate=True)
        vals = [val for val in cert.values() if isinstance(val, int)]
        rise = next(i for i in range(1, len(vals)) if vals[i] > vals[i - 1])
        assert all(a >= b for a, b in zip(vals[:rise], vals[1:rise]))
        assert len(set(vals[:rise])) >= rise - 1  # at most one tie
        assert all(a < b for a, b in zip(vals[rise:], vals[rise + 1:]))
        lhs = carlitz_exp(VqElem.from_poly(T) * z, budget)
        rhs = carlitz_act(T, e)
        assert lhs.agrees(rhs, upto=min(lhs.prec, rhs.prec)), (q, v)


def test_exp_certifying_term_is_not_computed():
    # the last term only certifies the cutoff; its valuation comes from the
    # closed form, so D_5 (T-degree 15625) is never divided by, which took
    # seconds when the term was computed in full
    gf = field(5)
    z = VqElem.from_poly(Poly.T(gf)) * VqElem.monomial(gf, 1, -12, prec=12)
    assert str(z) == "4*s^-16 + O(s^8)"
    e, cert = carlitz_exp(z, SeriesBudget(term_count=12, precision=12), with_certificate=True)
    assert cert == {0: -16, 1: -60, 2: -200, 3: -500, 4: 0, 5: 12500}
    assert (e.v, e.prec) == (-500, 8)
    # an exact argument whose second term is past the cutoff needs no
    # division by an exact multi-term D_1
    gf = field(3)
    e, cert = carlitz_exp(VqElem.monomial(gf, 1, 10), SeriesBudget(precision=24), with_certificate=True)
    assert (str(e), cert) == ("s^10 + O(s^24)", {0: 10, 1: 36})
    # a term whose valuation equals the cutoff already certifies it
    _, cert = carlitz_exp(VqElem.monomial(gf, 1, 2, prec=60), SeriesBudget(precision=54), with_certificate=True)
    assert cert == {0: 2, 1: 12, 2: 54}


def test_exp_pulls_no_D_past_the_cutoff(monkeypatch):
    # D_n is read from D_sequence only for a term that is kept: the case
    # above reads D_0..D_4, and D_5 (T-degree 15625) is never built
    import carlitz.analytic as analytic_module

    pulled = []

    def counting(gf):
        for D in D_sequence(gf):
            pulled.append(D.degree)
            yield D

    monkeypatch.setattr(analytic_module, "D_sequence", counting)
    gf = field(5)
    z = VqElem.from_poly(Poly.T(gf)) * VqElem.monomial(gf, 1, -12, prec=12)
    _, cert = carlitz_exp(z, SeriesBudget(term_count=12, precision=12), with_certificate=True)
    assert len(cert) == 6 and pulled == [0, 5, 50, 375, 2500]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_exp_of_exact_argument_is_exp_of_its_truncation(q):
    # an exact z needs no working precision of its own: each z^(q^n) is cut
    # to the budget's precision before its division by the exact D_n
    gf = field(q)
    for terms in [{1: 1}, {-1: 1}, {-1: 1, 0: 1, 3: 1}, {2: 1, 5: 1}, {0: 1, 1: 1}]:
        z = VqElem.from_terms(gf, terms)
        for precision in [1, 7, 24]:
            budget = SeriesBudget(term_count=12, precision=precision)
            exact = carlitz_exp(z, budget)
            assert exact == carlitz_exp(z.truncate(precision), budget)
            assert exact.prec == precision


def test_exp_past_the_cutoff_keeps_its_truncated_zero():
    # v(z) = 30 is read from the untruncated z, so the first term certifies
    # the cutoff 24 and no digit is claimed
    z = parse_series("s^30 + O(s^40)", field(3), VqElem)
    assert str(carlitz_exp(z, SeriesBudget(precision=24))) == "O(s^24)"


# ---------------------------------------------------------------- period


def test_period_partial_types():
    gf = field(3)
    r, s = period_partial(gf, 2, prec=40)
    assert isinstance(r, RatFn)
    assert s.prec == 40


def test_period_partial_size_cap(monkeypatch):
    # the denominator's T-degree sum_{n=2}^{N+1} q^n: 21523356 at q = 3,
    # N = 14 (which ran past 30 s) and 2^25 - 4 at q = 2, N = 23, above
    # 2^18; N = 30 ran out of memory and N = 10^9 is refused unpowered.  The
    # first N past 2^18 at q = 2, 3 and 4 (T-degree 524284, 265716 and
    # 349520) are refused too: q = 2, N = 17 and q = 4, N = 8 ran 9.0 and
    # 15.1 s.  Nothing of either side is built: no bracket, product, power
    # or q-th power
    def unreachable(*args):
        raise AssertionError("a polynomial was built")

    for name in ("shift", "__mul__", "__rmul__", "__pow__", "frobenius"):
        monkeypatch.setattr(Poly, name, unreachable)
    for q, N in [(3, 14), (2, 23), (3, 30), (2, 10**9), (2, 17), (3, 10), (4, 8)]:
        with pytest.raises(DomainError, match=f"the product of {N} factors has T-degree above the supported maximum 2\\^18"):
            period_partial(field(q), N)


def test_period_cauchy_valuations():
    gf = field(3)
    expansions = [period_partial(gf, N, prec=200)[1] for N in range(1, 5)]
    diffs = [
        (b - a).valuation() for a, b in zip(expansions, expansions[1:])
    ]
    assert diffs == [18, 54, 162]


# ---------------------------------------------------------------- eisenstein


def test_eisenstein_frozen_rank_one():
    gf = field(3)
    L = Lattice([VqElem.monomial(gf, 1, -1)])
    E2, cert = eisenstein(L, 2, SeriesBudget(precision=20), with_certificate=True)
    assert str(E2) == "2*s^4 + s^16 + O(s^20)"
    assert cert[0] == 4 and cert[1] == 16
    assert str(cert[2]).startswith(">=")


def test_eisenstein_scaling_law():
    gf = field(3)
    q = 3
    k = 2
    L = Lattice([VqElem.monomial(gf, 1, -1)])
    c = VqElem.from_poly(Poly.T(gf))
    E = eisenstein(L, k, SeriesBudget(precision=24))
    Ec = eisenstein(L.scaled(c), k, SeriesBudget(precision=24))
    # E_k(cL) = c^{-k(q-1)} E_k(L)
    scaled = E * (c.inverse(prec=30) ** (k * (q - 1)))
    assert Ec.agrees(scaled, upto=min(Ec.prec, scaled.prec, 20))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("degree_bound", [1, 2, 3])
def test_eisenstein_of_A_is_minus_the_period_power(q, degree_bound):
    # for the lattice A = F_q[T], Carlitz's logarithm gives
    # E_(q-1)(A) = -pi^(q-1)/l_1 with l_1 = T - T^q = -[1], and
    # pi^(q-1) = -[1] P^(q-1) for P the limit of period_partial, so
    # E_(q-1)(A) = -P^(q-1); four factors of P are exact far past these
    # digits.  The precision is the tail bound (q-1)^2 (degree_bound+1),
    # so only certified digits are checked.
    gf = field(q)
    L = Lattice([VqElem.from_poly(Poly.one(gf))])
    prec = (q - 1) ** 2 * (degree_bound + 1)
    E = eisenstein(L, 1, SeriesBudget(degree_bound=degree_bound, precision=prec))
    P = period_partial(gf, 4, prec=prec + 10)[1]
    assert E.prec == prec
    assert E.agrees(-(VqElem.from_inf(P) ** (q - 1)))


def test_lattice_validation():
    gf = field(3)
    with pytest.raises(DomainError):
        Lattice([])
    with pytest.raises(DomainError):
        Lattice([VqElem.zero(gf)])
