"""Differential checks over F_p against sympy's galoistools: gcd, pow_mod,
irreducibility at small and at large degree and p, multiplicative orders in
F_p up to p near 2^40, and ddf at a linear prime P = T - a, where F_q[T]/P is F_q
and ddf is distinct-degree factorization of the coefficients evaluated at a,
on random inputs and on products planned around the blocks of its gcds.
Skipped when sympy is not installed."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

galoistools = pytest.importorskip("sympy.polys.galoistools")
ZZ = pytest.importorskip("sympy.polys.domains").ZZ
sympy_random = pytest.importorskip("sympy.core.random")
n_order = pytest.importorskip("sympy.ntheory").n_order

from conftest import DDF_PLANS, lift_to_linear_prime, planned_product  # noqa: E402
from carlitz.errors import DomainError  # noqa: E402
from carlitz.gf import GF  # noqa: E402
from carlitz.poly import Poly, is_irreducible, pow_mod, poly_gcd  # noqa: E402
from carlitz.residues import ddf  # noqa: E402

PRIMES = [2, 3, 5, 7, 13]
FIELDS = {p: GF(p) for p in PRIMES}


def to_sympy(f: Poly):
    """Dense coefficients, highest degree first, as galoistools takes them."""
    return [ZZ(c) for c in reversed(f.coeffs)]


def from_sympy(gf, coeffs) -> Poly:
    return Poly(gf, [int(c) for c in reversed(coeffs)])


@st.composite
def fp_polys(draw, n=2, max_len=40):
    p = draw(st.sampled_from(PRIMES))
    elem = st.integers(0, p - 1)
    return (FIELDS[p],) + tuple(Poly(FIELDS[p], draw(st.lists(elem, max_size=max_len))) for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(fp_polys())
def test_gcd_matches_sympy(args):
    gf, a, b = args
    if a.is_zero() and b.is_zero():
        return
    want = galoistools.gf_gcd(to_sympy(a), to_sympy(b), gf.p, ZZ)
    assert poly_gcd(a, b) == from_sympy(gf, want)


@settings(max_examples=200, deadline=None)
@given(fp_polys(), st.integers(0, 10**6))
def test_pow_mod_matches_sympy(args, e):
    gf, a, m = args
    if m.is_zero():
        return
    want = galoistools.gf_pow_mod(to_sympy(a), e, to_sympy(m), gf.p, ZZ)
    assert pow_mod(a, e, m) == from_sympy(gf, want)


@settings(max_examples=300, deadline=None)
@given(fp_polys(n=1, max_len=9))
def test_is_irreducible_matches_sympy(args):
    gf, f = args
    if f.degree < 1:
        return
    assert is_irreducible(f) == galoistools.gf_irreducible_p(to_sympy(f), gf.p, ZZ)


@pytest.mark.parametrize("p", [257, 10007, 2**31 - 1])
def test_is_irreducible_at_large_degree_matches_sympy(p):
    # irreducible g, h of degree 20 and 32 from sympy, and the reducible
    # g*h and h^2 of degree 52 and 64; at these p every degree >= 2 takes
    # q-th powers by square-and-multiply
    sympy_random.seed(p)
    gf = GF(p)
    g, h = (galoistools.gf_irreducible(n, p, ZZ) for n in (20, 32))
    fs = [g, h, galoistools.gf_mul(g, h, p, ZZ), galoistools.gf_sqr(h, p, ZZ)]
    want = [galoistools.gf_irreducible_p(f, p, ZZ) for f in fs]
    assert want == [True, True, False, False]
    assert [is_irreducible(from_sympy(gf, f)) for f in fs] == want


@pytest.mark.parametrize("p", [10007, 2**31 - 1, 2**40 - 87])
def test_gf_order_matches_sympy(p):
    # 2^40 - 87 is the largest prime below 2^40; 20 random a, each with
    # its inverse (of the same order), then -1 and 1
    gf = GF(p)
    rng = random.Random(p)
    for a in [rng.randrange(1, p) for _ in range(20)] + [p - 1, 1]:
        assert gf.order(a) == n_order(a, p), a
        assert gf.order(gf.inv(a)) == gf.order(a)
    assert gf.order(p - 1) == 2 and gf.order(1) == 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ddf_at_linear_prime_matches_sympy(data):
    p = data.draw(st.sampled_from(PRIMES))
    gf = FIELDS[p]
    a = data.draw(st.integers(0, p - 1))
    P = Poly(gf, [gf.neg(a), 1])  # T - a
    rows = st.lists(st.integers(0, p - 1), max_size=4).map(lambda c: Poly(gf, c))
    f = data.draw(st.lists(rows, min_size=1, max_size=9))
    # the image of f in F_p[x] under T -> a, highest degree first
    fbar = galoistools.gf_strip([ZZ(c.evaluate(a)) for c in reversed(f)])
    if len(fbar) < 2 or not galoistools.gf_sqf_p(fbar, p, ZZ):
        with pytest.raises(DomainError):
            ddf(f, P)
        return
    fbar = galoistools.gf_monic(fbar, p, ZZ)[1]
    want = [(d, (len(g) - 1) // d) for g, d in galoistools.gf_ddf_zassenhaus(fbar, p, ZZ)]
    assert ddf(f, P) == want


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("plan", sorted(DDF_PLANS) + ["split", "irreducible"])
def test_blocked_ddf_at_linear_prime_matches_sympy(p, plan):
    # the planned products of conftest; "split" is x^p - x, where
    # x^p = x mod f, and "irreducible" one factor of degree 80, the degree of
    # the benchmark's division polynomials (blocks of 9, no gcd nontrivial)
    gf = FIELDS[p]
    rng = random.Random(f"{p}-{plan}")
    degrees = {"split": [1] * p, "irreducible": [80]}.get(plan) or DDF_PLANS[plan]
    f = planned_product(gf, degrees, rng)
    a = rng.randrange(p)
    coeffs = lift_to_linear_prime(f, a, rng, unit=rng.randrange(1, p))
    want = [(d, (len(g) - 1) // d) for g, d in galoistools.gf_ddf_zassenhaus(to_sympy(f), p, ZZ)]
    assert ddf(coeffs, Poly(gf, [gf.neg(a), 1])) == want
