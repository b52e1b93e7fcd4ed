"""The Carlitz operator, its torsion in both completions, T-division, and
Dirichlet-style approximation by torsion points."""

import importlib
import pkgutil
import random

import pytest

import carlitz
from conftest import dense_operator, echelon, field, rand_poly, span
from test_oracles import earlier_tests
from carlitz import operator as operator_module
from carlitz import torsion as torsion_module
from carlitz.analytic import carlitz_exp
from carlitz.errors import BelowPrecision, CarlitzError, DomainError, PrecisionError
from carlitz.gf import GF
from carlitz.operator import (
    D_sequence,
    XPoly,
    brackets_D,
    carlitz_act,
    carlitz_operator,
    cyclotomic_poly,
)
from carlitz.padic import PadicCtx
from carlitz.poly import Poly, all_polys, parse_poly
from carlitz.series import InfLaurent, VqElem, parse_series
from carlitz.torsion import (
    completed_action,
    dirichlet_approx,
    divide_T,
    division_chain,
    min_separating_prec,
    torsion_padic,
    torsion_vq,
)

# the rows of tests/test_oracles.py that keep their earlier ids in this module
globals().update(earlier_tests(__name__))


# ---------------------------------------------------------------- operator


def test_operator_of_T():
    gf = field(3)
    op = carlitz_operator(Poly.T(gf))
    assert list(op.coeffs) == [Poly.T(gf), Poly.one(gf)]
    assert str(op) == "x^3 + T*x"


@pytest.mark.parametrize("q", [2, 3])
def test_operator_coefficient_degrees(q):
    gf = field(q)
    rng = random.Random(q)
    for _ in range(20):
        M = rand_poly(gf, rng, 4, nonzero=True)
        op = carlitz_operator(M)
        d = M.degree
        for i, c in enumerate(op.coeffs):
            assert c.degree == (d - i) * q**i


@pytest.mark.parametrize("q", [3, 4])
def test_operator_module_identities(q):
    gf = field(q)
    rng = random.Random(100 + q)
    for _ in range(25):
        M = rand_poly(gf, rng, 2)
        N = rand_poly(gf, rng, 2)
        u = rand_poly(gf, rng, 3)
        assert carlitz_act(M + N, u) == carlitz_act(M, u) + carlitz_act(N, u)
        assert carlitz_act(M * N, u) == carlitz_act(M, carlitz_act(N, u))


def test_operator_acts_in_padic_quotients():
    gf = field(3)
    ctx = PadicCtx(parse_poly("T^2+1", gf), 3)
    rng = random.Random(2)
    for _ in range(20):
        M = rand_poly(gf, rng, 4)
        u = rand_poly(gf, rng, 5)
        assert carlitz_act(M, ctx.elem(u)) == ctx.elem(carlitz_act(M, u))


def test_operator_acts_on_series():
    gf = field(3)
    f = parse_poly("T^2+2", gf)
    u = parse_poly("T+1", gf)
    assert carlitz_act(f, VqElem.from_poly(u)) == VqElem.from_poly(carlitz_act(f, u))


def test_brackets_and_D():
    gf = field(3)
    T = Poly.T(gf)
    b1, D1 = brackets_D(gf, 1)
    assert b1 == Poly.one(gf).shift(3) - T  # T^3 - T
    b2, D2 = brackets_D(gf, 2)
    assert b2 == Poly.one(gf).shift(9) - T
    assert D2 == b2 * D1.frobenius()
    _, D0 = brackets_D(gf, 0)
    assert D0 == Poly.one(gf)


@pytest.mark.parametrize("q", [2, 3, 4])
def test_D_sequence_is_the_product_of_the_monic_polynomials(q):
    # D_n = [n] D_(n-1)^q against the product of the q^n monic A of degree n
    gf = field(q)
    for n, D in zip(range(4 if q < 4 else 3), D_sequence(gf)):
        product = Poly.one(gf)
        for A in all_polys(gf, n, monic=True):
            product = product * A
        assert D == product == brackets_D(gf, n)[1], (q, n)


def test_cyclotomic_divides_operator():
    gf = field(3)
    for P in (Poly.T(gf), parse_poly("T^2+1", gf)):
        phi1 = cyclotomic_poly(P, 1)
        x = XPoly(gf, [Poly.zero(gf), Poly.one(gf)])
        assert phi1 * x == dense_operator(P)
        phi2 = cyclotomic_poly(P, 2)
        assert phi2 * dense_operator(P) == dense_operator(P * P)


def test_cyclotomic_frozen_value():
    gf = field(3)
    assert str(cyclotomic_poly(Poly.T(gf), 1)) == "x^2 + T"


def test_cyclotomic_degree_mismatch_raises(monkeypatch):
    # an exact division of the wrong degree: rho_{TP}(x) / x in place of rho_P(x) / x
    gf = field(3)
    T = Poly.T(gf)
    exact = operator_module.carlitz_operator
    monkeypatch.setattr(operator_module, "carlitz_operator", lambda M: exact(M * T if M.degree > 0 else M))
    with pytest.raises(CarlitzError):
        cyclotomic_poly(T + Poly.one(gf), 1)


def _linear_primes(n):
    gf = GF(601)
    assert n < gf.q
    return [(Poly.T(gf) + Poly.const(gf, c),) for c in range(n)]


# arguments for n distinct entries of each memo
CACHE_FILLERS = {
    "carlitz.poly.prime_divisors": lambda n: [(k,) for k in range(1, n + 1)],
    "carlitz.reciprocity._check_prime": _linear_primes,
}


def library_caches():
    """Every functools cache defined in a carlitz module, at module level or
    on a class, by its qualified name."""
    caches = {}
    for info in pkgutil.iter_modules(carlitz.__path__):
        module = importlib.import_module(f"carlitz.{info.name}")
        objects = list(vars(module).values())
        objects += [v for c in objects if isinstance(c, type) for v in vars(c).values()]
        for obj in objects:
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                caches[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return caches


def test_library_caches_are_bounded():
    caches = library_caches()
    assert sorted(caches) == sorted(CACHE_FILLERS)
    for name, cache in caches.items():
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize >= 512, name
        try:
            for args in CACHE_FILLERS[name](maxsize + 50):
                cache(*args)
            assert cache.cache_info().currsize == maxsize, name
        finally:
            cache.cache_clear()


# ---------------------------------------------------------------- P-adic torsion


def test_torsion_padic_frozen_q3():
    gf = field(3)
    ts = torsion_padic(Poly.T(gf), 3)
    assert len(ts) == 3
    reps = sorted(str(x) for x in ts)
    assert reps == ["0", "2*T^2+2*T+2", "T^2+T+1"]


def test_torsion_padic_is_a_module():
    gf = field(3)
    P = parse_poly("T^2+1", gf)
    ts = torsion_padic(P, 4)
    assert len(ts) == 9
    order = P - Poly.one(gf)
    pts = list(ts)
    for x in pts:
        assert carlitz_act(order, x).is_zero()
    rng = random.Random(3)
    for _ in range(20):
        a, b = rng.choice(pts), rng.choice(pts)
        assert (a + b) in ts
        assert carlitz_act(rand_poly(gf, rng, 3), a) in ts


# ---------------------------------------------------------------- V_q torsion


def test_min_separating_prec():
    gf = field(3)
    T = Poly.T(gf)
    assert min_separating_prec(T) == 0
    assert min_separating_prec(T * T) == 2
    assert min_separating_prec(T * T * T) == 4


def test_torsion_vq_counts_and_valuations():
    gf = field(3)
    M = parse_poly("T^2", gf)
    ts = torsion_vq(M, 8)
    assert len(ts) == 9
    vals = []
    for p in ts:
        try:
            vals.append(p.valuation())
        except BelowPrecision:
            pass
    zero_count = sum(1 for p in ts if p.is_zero())
    assert zero_count == 1
    assert sorted(v for v in vals if v != float("inf")) == [-1] * 6 + [1] * 2


def test_torsion_vq_killed_by_order():
    gf = field(3)
    M = parse_poly("T^2+1", gf)
    ts = torsion_vq(M, 10)
    assert len(ts) == 9
    for p in ts:
        img = carlitz_act(M, p)
        assert img.is_zero() or img.valuation() >= img.prec or not any(
            c for _, c in img.terms()
        )


def test_torsion_vq_precision_guard():
    gf = field(3)
    M = parse_poly("T^2", gf)
    with pytest.raises(PrecisionError) as e:
        torsion_vq(M, 1)
    assert e.value.needed is not None and e.value.needed >= 2


# ---------------------------------------------------------------- division


def test_divide_T_branches():
    gf = field(3)
    ts = torsion_vq(parse_poly("T^2", gf), 12)
    u = next(p for p in ts if not p.is_zero() and p.valuation() == 1)
    branches = divide_T(u)
    assert len(branches) == 3
    # every branch maps back to u under rho_T
    for v in branches:
        back = carlitz_act(Poly.T(gf), v)
        assert back.agrees(u, upto=min(back.prec, u.prec, 8))
    # branches differ from the canonical one by multiples of s^-1 (ker rho_T)
    canon = branches[0]
    for z, v in enumerate(branches):
        diff = v - canon
        if z:
            assert diff.valuation() == -1
    # canonical branch has the largest valuation
    assert canon.valuation() == max(v.valuation() for v in branches)


def test_divide_T_rejects_low_valuation():
    gf = field(3)
    u = VqElem.monomial(gf, 1, -3)
    with pytest.raises(PrecisionError):
        divide_T(u)


def test_division_chain_valuation_slope():
    gf = field(3)
    ts = torsion_vq(Poly.T(gf), 30)
    u = next(p for p in ts if not p.is_zero())
    chain = division_chain(u.truncate(25), 8)
    vals = [v.valuation() for v in chain]
    assert vals == [u.valuation() + 2 * (k + 1) for k in range(8)]


def test_completed_action_of_zero_is_exact_zero():
    gf = field(3)
    u = parse_series("s^-1 + 2*s + O(s^9)", gf, VqElem)
    out = completed_action(InfLaurent.zero(gf), u)
    assert out == VqElem.zero(gf) and out.prec is None
    # O(T^-4) leaves a_k T^-k, k >= 4, unknown: valuation >= -1 + 2*4
    assert completed_action(InfLaurent.zero(gf, 4), u) == VqElem.zero(gf, 7)


@pytest.mark.parametrize(
    "M, u, completion, expected",
    [
        # M's digit at T^-1 is unknown, and 1 + T^-1 moves the s^1 digit
        ("1 + O(T^-1)", "s^-1 + s + O(s^20)", "1 + T^-1", "s^-1 + O(s^1)"),
        # the canonical T^2-division of u has the certified digit s^3
        ("T^-1 + T^-2", "s^-1 + O(s^3)", "T^-1 + T^-2", "2*s + s^3 + O(s^5)"),
        # T^-1 on an unknown u of valuation >= 3 is unknown from s^5 on
        ("T^-1", "O(s^3)", "T^-1", "O(s^5)"),
    ],
)
def test_completed_action_claims_only_certified_digits(M, u, completion, expected):
    gf = field(3)
    M, u = parse_series(M, gf, InfLaurent), parse_series(u, gf, VqElem)
    out = completed_action(M, u)
    assert str(out) == expected
    # a completion of M, and of u by two digits past its precision, agrees
    # on every claimed digit
    filled = VqElem.from_terms(gf, {**dict(u.terms()), u.prec: 1, u.prec + 1: 2}, 40)
    exact = completed_action(parse_series(completion, gf, InfLaurent), filled)
    assert out.agrees(exact)


def test_completed_action_principal_part_is_division():
    gf = field(3)
    ts = torsion_vq(parse_poly("T^2", gf), 20)
    u = next(p for p in ts if not p.is_zero() and p.valuation() == 1)
    Minv = InfLaurent.monomial(gf, 1, 1)  # the series T^{-1}
    v = completed_action(Minv, u)
    canon = divide_T(u)[0]
    assert v.agrees(canon, upto=min(v.prec, canon.prec, 12))


# ---------------------------------------------------------------- dirichlet


def test_dirichlet_approx_bound():
    gf = field(3)
    ts = torsion_vq(parse_poly("T^4", gf), 20)
    lam = next(p for p in ts if not p.is_zero() and p.valuation() == -1)
    n = 3
    order, best = dirichlet_approx(lam, n)
    assert order == parse_poly("T^3", gf)
    diff = best - lam
    bound = (n - 1) * (3 - 1) - 1
    try:
        dv = diff.valuation()
    except BelowPrecision:
        dv = diff.prec
    assert dv > bound


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_tower_basis_is_the_echelon_form_of_the_listed_points(q):
    # s^-1 and its n - 1 canonical T-divisions, which dirichlet_approx solves
    # on, lead at k(q-1) - 1 and span the T^n-torsion
    gf = field(q)
    for n in range(1, 13):
        if q**n > 2**12:
            break
        Tn = Poly.T(gf) ** n
        sep = min_separating_prec(Tn)
        for prec in range(sep, sep + 2 * q + 1):
            root = VqElem.monomial(gf, 1, -1, prec)
            tower = [[x.digit(k) for k in range(-1, prec)] for x in [root] + division_chain(root, n - 1)]
            assert [next(i for i, c in enumerate(r) if c) for r in tower] == [k * (q - 1) for k in range(n)]
            points = [[p.digit(k) for k in range(-1, prec)] for p in torsion_vq(Tn, prec)]
            assert echelon(gf, tower, prec + 1) == echelon(gf, points, prec + 1)


# every order d <= 4 with q^d <= 2^12 points, at six M of degree d each
LEAD_ORDERS = [(q, d) for q in (2, 3, 4, 5, 7, 8, 9) for d in range(1, 5) if q**d <= 2**12]


@pytest.mark.parametrize("q, d", LEAD_ORDERS)
def test_torsion_vq_rows_lead_where_back_substitution_needs(q, d, monkeypatch):
    # rho_T^i(e(pi~/M)), i < d, leads at (q-1)(d-1-i) - 1, and the points
    # are the span of the rows' reduced echelon form, in the listing order
    gf = field(q)
    lams = []

    def spy(*args):
        lams.append(carlitz_exp(*args))
        return lams[-1]

    monkeypatch.setattr(torsion_module, "carlitz_exp", spy)
    rng = random.Random(10 * q + d)
    orders = [Poly.one(gf).shift(d)] + [Poly(gf, [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]) for _ in range(5)]
    for M in orders:
        sep = min_separating_prec(M)
        for prec in range(sep, sep + 2 * q + 2):
            points = torsion_vq(M, prec)
            x, rows = lams.pop(), []
            for i in range(d):
                row = [x.digit(k) for k in range(-1, prec)]
                lead = (q - 1) * (d - 1 - i)
                assert not any(row[:lead]) and row[lead], (str(M), prec, i)
                rows.append(row)
                x = x.rho_T()
            # each point's digits at exponents -1 .. prec-1
            listed = [[0] * (p.v + 1) + list(p.coeffs) + [0] * (prec - p.v - len(p.coeffs)) for p in points]
            assert listed == span(gf, echelon(gf, rows, prec + 1), prec + 1)


@pytest.mark.parametrize(
    "defect",
    # a zero at lambda's lead, and a digit below it (s^-1 is rho_T's kernel,
    # so only lambda's own row moves)
    [lambda x: x.shifted(1), lambda x: x + VqElem.monomial(x.gf, 1, -1)],
)
def test_torsion_vq_refuses_rows_led_elsewhere(defect, monkeypatch):
    monkeypatch.setattr(torsion_module, "carlitz_exp", lambda *args: defect(carlitz_exp(*args)))
    with pytest.raises(CarlitzError, match="does not lead at"):
        torsion_vq(Poly.T(field(3)) ** 2, 4)


def test_dirichlet_needs_neither_torsion_vq_nor_rho(monkeypatch):
    def refuse(*args):
        raise AssertionError("dirichlet_approx reached the general torsion search")

    monkeypatch.setattr(torsion_module, "torsion_vq", refuse)
    monkeypatch.setattr(operator_module, "carlitz_operator", refuse)
    gf = field(3)
    order, best = dirichlet_approx(parse_series("s^-1 + s", gf, VqElem), 10)
    assert (str(order), str(best)) == ("T^10", "s^-1 + s + O(s^21)")


def test_dirichlet_rejects_bad_valuation():
    gf = field(3)
    lam = VqElem.monomial(gf, 1, -2, prec=10)  # v = -2 is not i(q-1) - 1
    with pytest.raises(DomainError):
        dirichlet_approx(lam, 3)
