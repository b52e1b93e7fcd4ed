"""The precision contract, stated once: no operation reports a digit it
cannot certify.  Each row of ROWS is one certified function, with its
inputs as a Hypothesis strategy and a way to coarsen them (a truncation by
``coarser``, a smaller precision argument, or a smaller P-adic N); one
generic test per property runs over every row:

* precision monotone: the result on coarser inputs agrees with the result
  on the drawn ones below its own precision, which is no finer;
* completion: the result on coarser inputs agrees with the result on a
  random completion of them (new digits past their precision);
* budget monotone (BUDGET_ROWS): a call with a smaller term budget agrees
  with one with a larger budget.

The finer call may be refused only with one of its row's ``raises``, and a
coarser call then too, or with one of its ``lifts``, which a coarser call
may answer; a coarser call may be refused only with the finer call's own
error or one of its row's ``refusals``.  A completion may leave the
function's domain, so there the finer call may raise any error.  EXEMPT
and BUDGET_EXEMPT give the reason a certified function has no row;
tests/test_tooling.py checks that every public function taking a
precision, a budget or a truncated element has one or the other."""

from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    FIELDS, X_FIELDS, _torsion_primes, _vq, act_args, completed_args, frobenius_product_args, frobenius_sum_args,
    inverse_args, moduli, outcome, padic_args, series, series_pairs,
)
from carlitz.analytic import Lattice, SeriesBudget, carlitz_exp, eisenstein, period_partial
from carlitz.errors import BelowPrecision, CarlitzError, DomainError, PrecisionError
from carlitz.operator import XPoly, carlitz_act
from carlitz.padic import PadicCtx, PadicElem, hensel_lift
from carlitz.poly import Poly, RatFn
from carlitz.reciprocity import kummer_map, kummer_solve, star_action
from carlitz.series import InfLaurent, Series, VqElem, _min_prec
from carlitz.torsion import (
    completed_action,
    divide_T,
    division_chain,
    min_separating_prec,
    torsion_padic,
    torsion_vq,
)

# ---------------------------------------------------------------- shared code


def top(x):
    """x's precision, or 4 past its last digit when x is exact."""
    return x.prec if x.prec is not None else x.v + len(x.coeffs) + 4


def coarser(x):
    """x truncated at a drawn precision no finer than its own."""
    return st.integers(min(x._veff(), top(x)) - 3, top(x)).map(x.truncate)


@st.composite
def completed(draw, x):
    """x with up to 8 drawn digits past its precision, exact or truncated."""
    if x.prec is None:
        return x
    tail = draw(st.lists(st.integers(0, x.gf.q - 1), max_size=8))
    terms = dict(x.terms()) | {x.prec + i: c for i, c in enumerate(tail)}
    return type(x).from_terms(x.gf, terms, draw(st.none() | st.integers(x.prec + len(tail), x.prec + len(tail) + 4)))


@st.composite
def leafwise(draw, args, on_series, finer):
    """args with each series drawn from on_series, each P-adic element moved to a drawn N."""
    old = next((a.ctx for a in args if isinstance(a, PadicElem)), None)
    if old is None:
        return tuple(draw(on_series(a)) if isinstance(a, Series) else a for a in args)
    ctx = PadicCtx(old.P, draw(st.integers(old.N, old.N + 3) if finer else st.integers(1, old.N)))
    pad = st.lists(st.integers(0, old.gf.q - 1), max_size=ctx.modulus.degree if finer else 0)
    return tuple(ctx.elem(a.rep + old.modulus * Poly(old.gf, draw(pad))) if isinstance(a, PadicElem) else a
                 for a in args)


class Row(NamedTuple):
    call: Callable
    args: st.SearchStrategy  # the finer inputs, a tuple
    max_examples: int = 100
    coarsen: Callable = lambda *args: leafwise(args, coarser, False)  # inputs -> coarser inputs
    complete: Callable = lambda *args: leafwise(args, completed, True)  # None when all inputs are exact
    refusals: tuple = ()  # errors a coarser call may add
    raises: tuple = ()  # errors the finer call may raise; a coarser call is then refused too
    lifts: tuple = ()  # errors of the finer call that a coarser one may answer
    window: Callable = lambda *args: False  # the finer call picks its own precision
    check: Callable = lambda *args: True  # of (finer inputs, coarser inputs, fine, rough)
    examples: tuple = ()  # (finer inputs, coarser inputs)


def agree(rough, fine, window):
    rough, fine = getattr(rough, "points", rough), getattr(fine, "points", fine)
    if isinstance(fine, (list, tuple)):
        assert len(rough) == len(fine)
        for r, f in zip(rough, fine):
            agree(r, f, window)
    elif isinstance(fine, Series):
        assert rough.agrees(fine), (rough, fine)
        assert window or fine.prec is None or rough.prec is not None and rough.prec <= fine.prec
    elif isinstance(fine, PadicElem):
        assert rough.ctx.N <= fine.ctx.N and rough == rough.ctx.elem(fine.rep), (rough, fine)
    else:
        assert rough == fine


def compare(row, fine_args, coarse_args):
    fine, rough = outcome(row.call, *fine_args), outcome(row.call, *coarse_args)
    assert not isinstance(rough, type) or rough in row.refusals or rough is fine, (rough, fine)
    if isinstance(fine, type):
        assert fine in row.raises + row.lifts and (isinstance(rough, type) or fine in row.lifts), (rough, fine)
    elif not isinstance(rough, type):
        agree(rough, fine, row.window(*fine_args))
        assert row.check(fine_args, coarse_args, fine, rough)


def run(row, finer=None):
    """compare on the examples, then drawn inputs (or finer(coarser inputs)) with coarser ones."""
    for fine_args, coarse_args in row.examples:
        compare(row, fine_args, coarse_args)

    def pair(args, data):
        coarse = data.draw(row.coarsen(*args))
        return (data.draw(finer(*coarse)) if finer else args), coarse
    prop = given(row.args, st.data())(lambda args, data: compare(row, *pair(args, data)))
    settings(max_examples=row.max_examples, deadline=None)(prop)()


# ---------------------------------------------------------------- rows


# u in V_q with v(u) from -q - 1 to 8 (divide_T refuses v(u) <= -q), and an
# optional working precision at or above v(u)
DIVIDE_ARGS = frobenius_sum_args(X_FIELDS, lambda q: (-q - 1, 8), lambda q, v: st.none() | st.integers(v, v + 24))
# M at infinity with a root in V_q: its unit part has residue 1
KUMMER_ARGS = frobenius_product_args(X_FIELDS, lambda q: [1], 16, 1)


@st.composite
def cut_args(draw):
    x = draw(series_pairs(max_len=40))[0]
    return x, draw(st.integers(min(x._veff(), top(x)) - 3, top(x) + 3))


@st.composite
def exp_args(draw, terms):
    """z in V_q with v(z) from -4 to 4, zeros and truncated zeros included,
    and a budget of ``terms`` terms to precision 1-60."""
    gf = FIELDS[draw(st.sampled_from([2, 3, 4, 5, 9]))]
    v = draw(st.integers(-4, 4))
    digits = draw(st.lists(st.integers(0, gf.q - 1), max_size=20))
    z = VqElem(gf, v, digits, draw(st.none() | st.integers(v - 3, v + len(digits) + 4)))
    return z, SeriesBudget(term_count=draw(terms), precision=draw(st.integers(1, 60)))


@st.composite
def lattice_args(draw):
    """A lattice of rank one, or of rank two over F_2 or F_3 with degree
    bound 1, a weight index 1-2 and a precision 1-40."""
    q = draw(st.sampled_from([2, 3, 4, 5]))
    rank = draw(st.integers(1, 2 if q <= 3 else 1))
    basis = [draw(series(FIELDS[q], VqElem, 4, nonzero=True)) for _ in range(rank)]
    budget = SeriesBudget(degree_bound=draw(st.integers(1, 3 if rank == 1 else 1)), precision=draw(st.integers(1, 40)))
    return Lattice(basis), draw(st.integers(1, 2)), budget


def small_poly(gf, max_deg):
    """A polynomial of degree at most max_deg, zero included."""
    return st.lists(st.integers(0, gf.q - 1), max_size=max_deg + 1).map(lambda c: Poly(gf, c))


def orders(gf):
    """M of degree <= 3 with q^deg M <= 81, zero included."""
    return st.sampled_from([d for d in range(4) if gf.q**d <= 81]).flatmap(lambda d: small_poly(gf, d))


@st.composite
def torsion_vq_args(draw):
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    M = draw(orders(gf).filter(lambda M: not M.is_zero()))
    return M, min_separating_prec(M) + draw(st.integers(0, 16))


@st.composite
def ratfn_args(draw):
    gf = FIELDS[draw(st.sampled_from([2, 3, 4, 5]))]
    den = draw(small_poly(gf, 4).filter(lambda f: not f.is_zero()))
    return RatFn(draw(small_poly(gf, 4)), den), draw(st.integers(-4, 30))


@st.composite
def hensel_args(draw):
    """f = c (x - r) + P h(x), c in F_q^*, and r, a simple root mod P, in
    F_q[T]/P^N with N 1-8."""
    gf = FIELDS[draw(st.sampled_from([2, 3, 4, 5, 7, 9]))]
    P = draw(moduli(gf))
    r, c = draw(small_poly(gf, P.degree - 1)), draw(st.integers(1, gf.q - 1))
    coeffs = [P * h for h in draw(st.lists(small_poly(gf, 2), min_size=2, max_size=4))]
    coeffs[0], coeffs[1] = coeffs[0] - r.scale(c), coeffs[1] + Poly.const(gf, c)
    return XPoly(gf, coeffs), PadicCtx(P, draw(st.integers(1, 8))).elem(r)


def lower(i, lo):
    """Lower the i-th input, an integer, to one drawn from lo(inputs) up."""
    return lambda *a: st.integers(lo(*a), a[i]).map(lambda n: a[:i] + (n,) + a[i + 1 :])


def smaller(field):
    """Lower one field of the budget, the last input, to a drawn value."""

    def coarsen(*args):
        fields = {name: getattr(args[-1], name) for name in SeriesBudget.__slots__}
        return st.integers(1, fields[field]).map(lambda n: args[:-1] + (SeriesBudget(**{**fields, field: n}),))

    return coarsen


# e(O(s^-5)) over F_3 certifies nothing below s^-9, as e(s^-4) is
# 2*s^-6 + ...; over F_5, O(s^-8) against s^-8 + 2*s^-5, with e = 4*s^-20 + ...
EXP_BUDGET = SeriesBudget(term_count=14, precision=10)
EXP_REPROS = (
    ((_vq(3, -4, [1], None), EXP_BUDGET), (_vq(3, 0, [], -5), EXP_BUDGET)),
    ((_vq(5, -8, [1, 0, 0, 2], None), EXP_BUDGET), (_vq(5, 0, [], -8), EXP_BUDGET)),
)

ROWS = {
    "series_mul": Row(lambda a, b: a * b, series_pairs(), 150, lambda a, b: st.tuples(coarser(a), st.just(b))),
    "series_inverse": Row(
        lambda x, prec: x.inverse(prec), inverse_args(), 150,
        refusals=(DomainError,), raises=(DomainError,), lifts=(PrecisionError,),
        coarsen=lambda x, prec: st.integers(x.v + 1, max(top(x), x.v + 1)).map(lambda p: (x.truncate(p), prec)),
    ),
    "series_add_sub": Row(
        lambda a, b: (a + b, b + a, a - b, b - a), series_pairs(), 150, lambda a, b: st.tuples(coarser(a), st.just(b)),
        check=lambda f, c, fine, rough: all(r.prec is not None for r in rough),
    ),
    "series_frobenius_truncate": Row(
        lambda x, cut: (x.frobenius(), x.truncate(cut)), cut_args(), 150,
        check=lambda f, c, fine, rough: rough[0].prec == f[0].gf.q * c[0].prec and fine[1].agrees(f[0])
        and fine[1].prec == _min_prec(f[0].prec, f[1]),
    ),
    "divide_T": Row(
        divide_T, DIVIDE_ARGS, 200, refusals=(PrecisionError,), raises=(PrecisionError,),
        window=lambda u, prec: u.prec is None and prec is None,
        check=lambda f, c, fine, rough: len(fine) == f[0].gf.q,
    ),
    "completed_action": Row(completed_action, completed_args(), 300, refusals=(PrecisionError,), lifts=(PrecisionError,)),
    "kummer_solve": Row(kummer_solve, KUMMER_ARGS.map(lambda M: (M,)), 200,
                        refusals=(DomainError,), window=lambda M: M.prec is None),
    "padic_ops": Row(
        lambda x, y, e: (x * y, x + y, x.frobenius(), outcome(x.inverse), outcome(pow, x, e)), padic_args(), 200,
    ),
    "carlitz_exp": Row(
        carlitz_exp, exp_args(st.just(14)), 50,
        lambda z, b: coarser(z).flatmap(lambda c: smaller("precision")(c, b)), examples=EXP_REPROS,
    ),
    "eisenstein": Row(eisenstein, lattice_args(), 25, smaller("precision"), None, raises=(CarlitzError,)),
    "torsion_vq": Row(
        torsion_vq, torsion_vq_args(), 25, lower(1, lambda M, prec: min_separating_prec(M) - 2), None,
        refusals=(PrecisionError,),
    ),
    "torsion_padic": Row(
        torsion_padic, st.tuples(st.sampled_from([P for q in (2, 3, 4, 5, 7, 8, 9) for P in _torsion_primes(q)]),
                                 st.integers(1, 8)), 25, lower(1, lambda P, N: 1), None,
    ),
    "InfLaurent.from_ratfn": Row(InfLaurent.from_ratfn, ratfn_args(), 25, lower(1, lambda x, prec: prec - 12), None),
    "period_partial": Row(
        period_partial, st.tuples(st.sampled_from([2, 3, 4, 5]).map(FIELDS.get), st.integers(1, 3), st.integers(1, 60)),
        25, lower(2, lambda gf, N, prec: 1), None,
    ),
    "division_chain": Row(
        division_chain, st.tuples(DIVIDE_ARGS.map(lambda a: a[0]), st.integers(1, 4)), 25,
        refusals=(PrecisionError,), raises=(PrecisionError,), window=lambda u, depth: u.prec is None,
    ),
    "carlitz_act/series": Row(carlitz_act, act_args(rings=("inf", "vq"), max_size=81, max_len=12), 25),
    "carlitz_act/padic": Row(
        carlitz_act, act_args(rings=("padic",), max_size=81, padic=lambda gf: padic_args(gf).map(lambda a: a[0])), 25,
    ),
    "kummer_map": Row(
        lambda x, m: kummer_map(VqElem.from_inf(x).shifted(m)),
        st.sampled_from(X_FIELDS).flatmap(lambda q: st.tuples(series(FIELDS[q], InfLaurent, 10), st.integers(-4, 4))),
        25,
    ),
    "star_action": Row(
        star_action, KUMMER_ARGS.flatmap(lambda nu: st.tuples(small_poly(nu.gf, 2), st.just(nu))), 25,
        lifts=(CarlitzError,), window=lambda A, nu: nu.prec is None,
    ),
    "hensel_lift": Row(lambda f, a0: hensel_lift(f, a0, a0.ctx), hensel_args(), 25),
}

# raising the term budget changes no digit a smaller one reports
BUDGET_ROWS = {
    "carlitz_exp": Row(
        carlitz_exp, exp_args(st.integers(1, 14)), 40, smaller("term_count"), None,
        refusals=(CarlitzError,), raises=(CarlitzError,),
    ),
}

ANY_ERROR = (CarlitzError, BelowPrecision, DomainError, PrecisionError)

EXEMPT = {
    "dirichlet_approx": "returns the first of the tied torsion points, so a coarser target may pick another",
}
BUDGET_EXEMPT = {
    "eisenstein": "degree_bound=1 claims digits at s^52 and s^56 that degree_bound=2 changes (q = 3, L = [s^-1], "
    "k = 2, precision 60): the certified tail waits for ROADMAP item 2",
}


@pytest.mark.parametrize("name", ROWS)
def test_precision_monotone(name):
    run(ROWS[name])


@pytest.mark.parametrize("name", [name for name, row in ROWS.items() if row.complete])
def test_completion(name):
    # 10 draws a row bound the run time that a third draw per example adds
    run(ROWS[name]._replace(max_examples=10, raises=ANY_ERROR), ROWS[name].complete)


@pytest.mark.parametrize("name", BUDGET_ROWS)
def test_budget_monotone(name):
    run(BUDGET_ROWS[name])
