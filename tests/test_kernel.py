"""The checks on the kernels that compare no fast path with an oracle (the
comparisons are rows of tests/test_oracles.py, some run here under their
earlier ids): Poly's refusal of an int, the slot widths the packed kernel
picks at each edge, the caps and refusals of T-division, the exponential,
the torsion searches and the q-th power steps, the monkeypatch counts of
work not done, the T-division chain's valuations and the exponential's
certificate, the torsion sets' contract, the module and ring axioms of each
ring, a Poly and its RatFn as one value, the x-polynomial division that
takes no inverse, P-adic torsion at N against N' <= N and its Newton
evaluations, the residue symbol's refusal texts, the Eisenstein tail repro,
and the supplied F_{p^r} moduli.  The precision contract of each certified
function is tests/test_precision.py."""

import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    _rand, _torsion_primes, _vq, _xp, CLOSED_FORM_FIELDS, divide_T_fixed_point, FIELDS, fp_irreducible, fp_monic,
    frobenius_sum_args, LARGE_FIELDS, outcome, plain_pow, random_irreducible, ring_elems, RINGS, wide_pairs,
)
from test_oracles import division_edge_lengths, earlier_tests, search_cases
from carlitz import operator as operator_module
from carlitz import torsion as torsion_module
from carlitz.analytic import Lattice, SeriesBudget, _carlitz_e, carlitz_exp, eisenstein
from carlitz.errors import CarlitzError, DomainError, PrecisionError
from carlitz.gf import GF
from carlitz.operator import AdditivePoly, XPoly, carlitz_act
from carlitz.padic import PadicCtx
from carlitz.poly import Modulus, Poly, RatFn, _slot_bytes, inv_mod, is_irreducible, parse_poly, pow_mod
from carlitz.reciprocity import residue_symbol
from carlitz.series import InfLaurent, Series, VqElem, parse_series
from carlitz.torsion import TorsionSetPadic, TorsionSetVq, divide_T, division_chain, min_separating_prec, torsion_padic, torsion_vq

# the rows of tests/test_oracles.py that keep their earlier ids in this module
globals().update(earlier_tests(__name__))


# ---------------------------------------------------------------- Poly


def test_poly_times_int_is_refused():
    # an F_q scalar multiplies by scale or by a constant Poly
    T = Poly.T(FIELDS[3])
    with pytest.raises(TypeError, match="cannot combine Poly with int"):
        T * 2
    with pytest.raises(TypeError, match="cannot combine Poly with int"):
        2 * T
    assert T.scale(2) == T * Poly.const(FIELDS[3], 2)


@pytest.mark.parametrize("n", [1, 2, 455, 456])
def test_slot_width_edges_gf13(n):
    # all coefficients p - 1 drive the middle slot of a*a to n(p-1)^2, which
    # crosses 2^8 between n = 1 and 2 and 2^16 between n = 455 and 456
    # (test_oracles.py rows Poly.mul/gf13-slots and Poly.divmod/gf13-slots)
    assert _slot_bytes(n * 12**2) == {1: 1, 2: 2, 455: 2, 456: 4}[n]


@pytest.mark.parametrize("q", [9, 25])
def test_division_slot_width_edges_extension_fields(q):
    # The division's slot bound p-1 + min(nq, db) r (p-1)^2 straddles 2^8
    # and 2^16 at these lengths, so the quotient digits are read from 1-, 2-
    # and 4-byte slots (test_oracles.py row Poly.divmod/division-slots).
    gf = FIELDS[q]
    per_term = gf.r * (gf.p - 1) ** 2
    assert [_slot_bytes(gf.p - 1 + n * per_term) for n in division_edge_lengths(q)] == [1, 2, 2, 4]


@pytest.mark.parametrize("n", [1, 2, 17, 64])
def test_slots_wider_than_64_bits(n):
    # p = 2^32 + 15: one product of two coefficients already needs 65 bits
    # (test_oracles.py rows Poly.mul/65-bit-slots and Poly.divmod/65-bit-slots)
    p = 4294967311
    assert _slot_bytes(p - 1 + n * (p - 1) ** 2) > 8


@pytest.mark.parametrize("q", [2**31 - 1, 2**40 - 87])
def test_wide_slot_operands_take_16_byte_slots(q):
    # the operands of the test_oracles.py rows on 16-byte slots
    for a, b in wide_pairs(q):
        assert _slot_bytes(min(a.degree, b.degree) * (q - 1) ** 2) == 16


# ---------------------------------------------------------------- T-division and the exponential


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


def test_torsion_vq_refuses_huge_sets():
    # 256^6 = 2^48 points; refused before rho_M is built
    gf = GF(2, 8)
    with pytest.raises(DomainError, match="above the supported maximum 2"):
        torsion_vq(Poly.one(gf).shift(6), 10)
    gf = GF(2)
    with pytest.raises(DomainError):
        torsion_vq(Poly.one(gf).shift(17), 20)
    assert len(torsion_vq(Poly.one(gf).shift(3), 4)) == 8


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9, 8, 27])
def test_torsion_vq_refuses_a_linear_M_below_precision_0(q):
    # min_separating_prec is 0 for d = 1: below that the truncation cannot
    # hold q roots, and the one rule for every d refuses it (the needed
    # precision against the search oracle's: test_oracles.py row torsion_vq/search)
    for M in {M for M, prec in search_cases(q, 1)}:
        for prec in (-2, -1):
            with pytest.raises(PrecisionError) as got:
                torsion_vq(M, prec)
            assert str(got.value) == f"precision {prec} cannot separate the roots; need at least 0"
            assert got.value.needed == min_separating_prec(M) == 0
        assert len(torsion_vq(M, 0)) == q


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


# ---------------------------------------------------------------- Barrett reduction mod f and q-th powers


def test_modulus_refuses_zero():
    with pytest.raises(DomainError, match="division by zero"):
        Modulus(Poly.zero(FIELDS[3]))


# ---------------------------------------------------------------- P-adic torsion from a basis


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_padic_torsion_coarse_agrees_with_fine(q):
    for P in _torsion_primes(q):
        fine = torsion_padic(P, 8)
        for N in (1, 3, 8):
            coarse = torsion_padic(P, N)
            assert [coarse.ctx.elem(x.rep) for x in fine] == coarse.points, (P, N)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_torsion_padic_runs_newton_on_the_basis_roots(q, monkeypatch):
    # Newton runs on the d basis roots only, each in at most ceil(log2 N) + 1
    # evaluations of rho_{P-1}
    images = []
    monkeypatch.setattr(torsion_module, "carlitz_act", lambda *args: images.append(1) or carlitz_act(*args))
    for P in _torsion_primes(q):
        for N in (1, 2, 3, 8, 16):
            images.clear()
            torsion_padic(P, N)
            assert P.degree <= len(images) <= P.degree * ((N - 1).bit_length() + 1)


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
    ring = draw(st.sampled_from(RINGS))
    # in F_q[T]/P^N the cost is linear in deg M, so deg M + deg N runs to 12
    top = 12 if ring == "padic" else max(d for d in range(10) if q**d <= AXIOM_MAX_SIZE)
    dM = draw(st.integers(-1, top // 2))
    dN = draw(st.integers(-1, top - max(dM, 0)))
    M, N = (Poly(gf, draw(st.lists(elem, min_size=d + 1, max_size=d + 1))) for d in (dM, dN))
    (u,) = draw(ring_elems(gf, ring, 1, 4 if ring == "poly" else 6, lambda P: 32))
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
    return draw(ring_elems(FIELDS[draw(st.sampled_from(AXIOM_FIELDS))], ring, 3, 6, lambda P: 32))


@pytest.mark.parametrize("ring", RINGS)
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


# ---------------------------------------------------------------- q-th powers mod f


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


@pytest.mark.parametrize("q, n", [(2, 7), (3, 2), (3, 3), (4, 6), (9, 5), (10007, 4)])
def test_is_irreducible_takes_half_the_degree_in_q_th_powers(q, n, monkeypatch):
    # a reducible f has a factor of degree <= n / 2, so n // 2 steps
    # x -> x^q mod f tell an irreducible f
    gf = FIELDS.get(q) or LARGE_FIELDS[q]
    f = random_irreducible(gf, random.Random(n), n)
    calls = []
    frobenius = Modulus.frobenius
    monkeypatch.setattr(Modulus, "frobenius", lambda mod, h: calls.append(h) or frobenius(mod, h))
    assert is_irreducible(f)
    assert len(calls) == n // 2


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


# ---------------------------------------------------------------- Eisenstein series and power sums


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


# ---------------------------------------------------------------- F_{p^r} moduli


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
