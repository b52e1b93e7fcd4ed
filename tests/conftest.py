"""Shared helpers for the test suite: the field table, ``outcome``, the
input strategies, and the oracles, the definitional versions of the
library's fast paths that the rows of tests/test_oracles.py compare them
with."""

import functools
import math
import random
from itertools import product, zip_longest

from hypothesis import assume
from hypothesis import strategies as st

import carlitz.poly
from carlitz.analytic import Lattice, SeriesBudget
from carlitz.errors import BelowPrecision, CarlitzError, DomainError, PrecisionError
from carlitz.geometry import Fraction, TreeVertex, tangent_family
from carlitz.gf import GF
from carlitz.operator import D_sequence, XPoly, carlitz_act, carlitz_operator
from carlitz.padic import PadicCtx, hensel_lift
from carlitz.poly import DIVISION_CROSSOVER, Poly, RatFn, euler_phi, inv_mod, is_irreducible, parse_poly, poly_ext_gcd, poly_gcd, pow_mod, square_multiply
from carlitz.series import INF, InfLaurent, Series, VqElem, _min_prec
from carlitz.torsion import TorsionSetVq, division_chain, min_separating_prec, torsion_vq

# one line per acceptance criterion, echoed after the run (see
# pytest_terminal_summary below) so the gate is visible even when capture
# swallows in-test prints
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


# ---------------------------------------------------------------- fields and outcomes


FIELDS = {
    2: GF(2), 3: GF(3), 4: GF(2, 2), 5: GF(5), 7: GF(7),
    8: GF(2, 3), 9: GF(3, 2), 25: GF(5, 2), 27: GF(3, 3),
}


def _rand(gf, n, seed):
    rng = random.Random(seed)
    return Poly(gf, [rng.randrange(gf.q) for _ in range(n - 1)] + [rng.randrange(1, gf.q)])


def _vq(q, v, digits, prec):
    return VqElem(FIELDS[q], v, digits, prec)


def _xp(q, *rows):
    gf = FIELDS[q]
    return XPoly(gf, [Poly(gf, r) for r in rows])


def _rand_vq(gf, rng, v, n, prec):
    return VqElem(gf, v, [rng.randrange(1, gf.q)] + [rng.randrange(gf.q) for _ in range(n - 1)], prec)


def field(q: int) -> GF:
    """The field of size q from FIELDS."""
    return FIELDS[q]


def outcome(f, *args):
    """f(*args), or the class of the library error it raises."""
    try:
        return f(*args)
    except CarlitzError as err:
        return type(err)


def raised(f, *args):
    """f(*args), or the class and text of the library error it raises."""
    try:
        return f(*args)
    except CarlitzError as err:
        return type(err), str(err)


def echelon(gf, rows, width: int) -> list:
    """The nonzero rows of the reduced row echelon form over F_q of vectors
    of length ``width``: in order of their leading positions, each led by a
    1, with every other row zero at it."""
    rows = [list(r) for r in rows]
    reduced = []
    for col in range(width):
        i = next((i for i, r in enumerate(rows) if r[col]), None)
        if i is None:
            continue
        row = rows.pop(i)
        row = gf.scale_vec(gf.inv(row[col]), row)
        for other in rows + reduced:
            c = other[col]
            if c:
                other[col:] = gf.sub_vec(other[col:], gf.scale_vec(c, row[col:]))
        reduced.append(row)
    return reduced


def span(gf, basis, width: int) -> list:
    """Every F_q-combination sum c_j b_j of an echelon basis, as digit lists:
    (c_1, ..., c_d) in lexicographic order, the listing order of torsion_vq."""
    points = [[0] * width]
    for b in reversed(basis):
        points += [gf.add_vec(gf.scale_vec(c, b), p) for c in range(1, gf.q) for p in points]
    return points


def det(gf, M):
    """The determinant over F_q of a square matrix, by Gaussian elimination."""
    n = len(M)
    M = [row[:] for row in M]
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if M[r][col]), None)
        if piv is None:
            return 0
        if piv != col:
            M[col], M[piv] = M[piv], M[col]
            det = gf.neg(det)
        det = gf.mul(det, M[col][col])
        inv = gf.inv(M[col][col])
        for r in range(col + 1, n):
            if M[r][col]:
                factor = gf.mul(M[r][col], inv)
                M[r] = gf.sub_vec(M[r], gf.scale_vec(factor, M[col]))
    return det


def rand_poly(gf, rng, max_deg, nonzero=False, monic=False) -> Poly:
    """A uniformly random polynomial of degree <= max_deg."""
    while True:
        coeffs = [rng.randrange(gf.q) for _ in range(max_deg + 1)]
        if monic:
            deg = rng.randrange(max_deg + 1)
            coeffs = coeffs[:deg] + [1] + [0] * (max_deg - deg)
        f = Poly(gf, coeffs)
        if not (nonzero or monic) or not f.is_zero():
            return f


def all_polys(gf, max_deg):
    """Every polynomial of degree <= max_deg (including 0)."""
    out = [[]]
    for _ in range(max_deg + 1):
        out = [c + [a] for c in out for a in range(gf.q)]
    return [Poly(gf, c) for c in out]


# Degree plans for ddf at a linear prime, by the block length ceil(sqrt(deg f))
# of the blocked gcds: factors of degrees 4 and 5 on both sides of the first
# block edge (deg f = 16, blocks of 4); degrees 1, 2 and 4 in the first block
# (deg f = 25, blocks of 5), where x^(q^2) - x and x^(q^4) - x also vanish on
# the lower degrees; three factors of degree 4 and two of degree 5 (deg f =
# 22, blocks of 5).  None over F_2 needs more irreducibles of one degree than
# there are.
DDF_PLANS = {
    "block-edge": [4, 5, 7],
    "e-and-2e": [1, 2, 3, 4, 6, 9],
    "one-degree": [4, 4, 4, 5, 5],
}


def planned_product(gf, degrees, rng):
    """A monic product of distinct monic irreducibles over gf, one of each
    listed degree, drawn at random; the variable stands for x."""
    chosen = []
    for e in degrees:
        while True:
            g = Poly(gf, [rng.randrange(gf.q) for _ in range(e)] + [1])
            if g not in chosen and is_irreducible(g):
                chosen.append(g)
                break
    prod = Poly.one(gf)
    for g in chosen:
        prod = prod * g
    return prod


def lift_to_linear_prime(f, a, rng, unit=1):
    """Coefficients c_i(T) with c_i(a) = unit * f_i: each coefficient of f
    plus (T - a) times a random polynomial, so ddf at T - a must evaluate."""
    gf = f.gf
    t_minus_a = Poly(gf, [gf.neg(a), 1])
    return [
        Poly.const(gf, gf.mul(unit, c)) + t_minus_a * Poly(gf, [rng.randrange(gf.q) for _ in range(3)])
        for c in f.coeffs
    ]


def pack_slots(gf, coeffs, k: int) -> int:
    """The packed kernel's int, slot by slot: each coefficient's 2r-1 slots
    (its r coordinates, then r-1 zeros), each written by int.to_bytes."""
    slots = [c for a in coeffs for c in gf.coords(a) + (0,) * (gf.r - 1)]
    return int.from_bytes(b"".join([s.to_bytes(k, "little") for s in slots]), "little")


def unpack_slots(gf, x: int, n: int, k: int) -> list:
    """The first n coefficients packed in x, slot by slot: every k-byte slot
    read by int.from_bytes and reduced mod p, and each group's 2r-1 digits
    c_j summed as c_j w^j in the field, w = the element p."""
    g = 2 * gf.r - 1
    data = x.to_bytes(n * g * k, "little")
    digits = [int.from_bytes(data[i : i + k], "little") % gf.p for i in range(0, len(data), k)]
    out = []
    for i in range(0, len(digits), g):
        c = 0
        for j, d in enumerate(digits[i : i + g]):
            c = gf.add(c, gf.mul(d, gf.pow(gf.p, j) if gf.r > 1 else 1))
        out.append(c)
    return out


# ---------------------------------------------------------------- strategies


@st.composite
def poly_pairs(draw, max_len=300):
    """(a, b) over one field; b is often longer than a, constant or non-monic."""
    gf = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    elem = st.integers(0, gf.q - 1)
    a = Poly(gf, draw(st.lists(elem, max_size=max_len)))
    b = Poly(gf, draw(st.lists(elem, max_size=max_len)))
    return a, b


@st.composite
def linear_divisor_pairs(draw):
    """(a, b): a of 0-300 coefficients and b = b1 T + b0 with b1 != 0, so b
    may be non-monic and have root 0, over every FIELDS q, GF(2^8) and the
    primes 2^31 - 1 and 2^40 - 87."""
    wide = [_pack_field(2, 8), _pack_field(2**31 - 1, 1), _pack_field(2**40 - 87, 1)]
    gf = draw(st.sampled_from([FIELDS[q] for q in sorted(FIELDS)] + wide))
    elem = st.integers(0, gf.q - 1)
    a = Poly(gf, draw(st.lists(elem, max_size=300)))
    return a, Poly(gf, [draw(elem), draw(st.integers(1, gf.q - 1))])


@st.composite
def table_loop_pairs(draw):
    """(a, b) that Poly.__divmod__ gives to the table loop: over every
    F_{p^r} of FIELDS and GF(2^8), b of degree db >= 2, possibly non-monic,
    and a of db + nq coefficients with nq db <= DIVISION_CROSSOVER."""
    gf = draw(st.sampled_from([FIELDS[q] for q in sorted(FIELDS) if FIELDS[q].r > 1] + [_pack_field(2, 8)]))
    db = draw(st.integers(2, 64))
    nq = draw(st.integers(1, DIVISION_CROSSOVER // db))
    elem, top = st.integers(0, gf.q - 1), st.integers(1, gf.q - 1)
    a = draw(st.lists(elem, min_size=db + nq - 1, max_size=db + nq - 1)) + [draw(top)]
    return Poly(gf, a), Poly(gf, draw(st.lists(elem, min_size=db, max_size=db)) + [draw(top)])


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
def series_pairs(draw, max_len=80, classes=(InfLaurent, VqElem)):
    gf = FIELDS[draw(st.sampled_from(SERIES_FIELDS))]
    cls = draw(st.sampled_from(classes))
    return draw(series(gf, cls, max_len)), draw(series(gf, cls, max_len))


@st.composite
def inverse_args(draw, max_len=80):
    """A nonzero series and a requested precision (None or at most 120 digits)."""
    gf = FIELDS[draw(st.sampled_from(SERIES_FIELDS))]
    x = draw(series(gf, draw(st.sampled_from([InfLaurent, VqElem])), max_len, nonzero=True))
    return x, draw(st.none() | st.integers(-x.v - 2, -x.v + 120))


# F_2 .. F_25 and the largest prime field under the cap
VEC_FIELDS = [FIELDS[q] for q in (2, 3, 4, 5, 8, 9, 25)] + [GF(2**40 - 87)]


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


CLOSED_FORM_FIELDS = [2, 3, 4, 5, 7, 8, 9]


@st.composite
def frobenius_sum_args(draw, fields=CLOSED_FORM_FIELDS, vs=lambda q: (-q + 1, 6),
                       working=lambda q, v: st.none() | st.integers(-q, v + 24)):
    """u in V_q, q in ``fields``, with v(u) in the range vs(q) (by default
    -q + 1 to 6), exact, truncated or truncated to zero (then possibly at or
    below -q), and a working precision or None drawn by ``working`` from q
    and v."""
    gf = FIELDS[draw(st.sampled_from(fields))]
    q = gf.q
    v = draw(st.integers(*vs(q)))
    digits = draw(st.lists(st.integers(0, q - 1), max_size=20))
    u = VqElem(gf, v, digits, draw(st.none() | st.integers(v - 3, v + len(digits) + 6)))
    return u, draw(working(q, v))


@st.composite
def frobenius_product_args(draw, fields=CLOSED_FORM_FIELDS, residues=lambda q: [1] * 4 + list(range(2, q)),
                           max_len=30, low=-1):
    """M at infinity with valuation m in -6..6 and up to max_len + 1 digits,
    exact or truncated at m + low or above, whose unit part (-T)^m M has a
    residue from residues(q): by default 1 or, now and then, another one."""
    gf = FIELDS[draw(st.sampled_from(fields))]
    m = draw(st.integers(-6, 6))
    residue = draw(st.sampled_from(residues(gf.q)))
    digits = [gf.neg(residue) if m % 2 else residue] + draw(st.lists(st.integers(0, gf.q - 1), max_size=max_len))
    return InfLaurent(gf, m, digits, draw(st.none() | st.integers(m + low, m + len(digits) + 6)))


# the extension fields q = 8 and 27 take two precisions each: the search
# oracle over 27^2 points is the slowest case here
TORSION_ORDERS = [
    (q, d) for q in (2, 3, 4, 5, 9) for d in (1, 2, 3) if q ** d <= 243
] + [(8, 1), (8, 2), (27, 1), (27, 2)]


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


@st.composite
def residue_divisions(draw):
    """(a, b, P): b reduced mod P, a with coefficients up to T-degree 2 deg P."""
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    P = draw(moduli(gf))
    a = draw(xpolys(gf, max_deg=8, max_tdeg=2 * P.degree))
    b = draw(xpolys(gf, max_deg=4, max_tdeg=P.degree - 1, nonzero=draw(st.integers(0, 7)) > 0))
    return a, XPoly(gf, [c % P for c in b.coeffs]), P


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


@st.composite
def padic_elems(draw):
    """An element of F_q[T]/P^N, deg P 1-3, N 1-16; often a non-unit."""
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    ctx = PadicCtx(draw(moduli(gf)), draw(st.integers(1, 16)))
    rep = Poly(gf, draw(st.lists(st.integers(0, gf.q - 1), max_size=ctx.modulus.degree)))
    # times P^k: k = 0 keeps rep as drawn (a unit unless P divides it), k >= 1 a non-unit
    return ctx.elem(rep * ctx.P ** draw(st.integers(0, 2)))


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


def seeded_modulus(q, n, seed, monic=False):
    """(f, rng): f of degree n over F_q, drawn from rng = random.Random(seed) below a top
    coefficient 1 when monic, else drawn nonzero; rng is left for further draws."""
    gf = FIELDS.get(q) or LARGE_FIELDS.get(q) or GF(q)
    rng = random.Random(seed)
    return Poly(gf, [rng.randrange(q) for _ in range(n)] + [1 if monic else rng.randrange(1, q)]), rng


def modulus_pin(kind, f, rng=None, h=None, lengths=()):
    """A pinned example on one Modulus of f, as its row of kind takes it; h defaults to every
    coefficient q - 1 at length deg f, the largest slot sums.  "reduce" draws one polynomial of
    each length from rng, its top coefficient q - 1; "plan" makes each call kind twice, the
    step first: h with a = 0 and a = q - 1, then reductions of h's q-th power and of h T^n."""
    gf, q, n = f.gf, f.gf.q, f.degree
    h = Poly(gf, [q - 1] * n) if h is None else h
    if kind == "reduce":
        return f, [Poly(gf, [rng.randrange(q) for _ in range(m - 1)] + [q - 1]) for m in lengths]
    if kind == "frobenius":
        return f, h
    if kind == "rho_T":
        return f, h, q - 1, h
    return f, [("rho_T", h, 0, h), ("reduce", h.frobenius()), ("rho_T", h, q - 1, h), ("reduce", h.shift(n))]


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
        irr = [f for f in carlitz.poly.all_polys(gf, d, monic=True) if is_irreducible(f)]
        out += ([irr[0]] if q**d <= 125 else []) + [rng.choice(irr)]
    return out


# the largest q^deg M the action oracle draws: the operator route builds
# u^(q^deg M), so larger orders make the comparison slow without a new case
ACT_MAX_SIZE = 729


RINGS = ("poly", "padic", "inf", "vq")


@st.composite
def ring_elems(draw, gf, ring, count, max_len, max_N, padic_len=None):
    """count elements of one of RINGS over gf, zero included: Poly of up to
    max_len digits, F_q[T]/P^N for one P of degree 1-3 and N up to
    max_N(P), from up to padic_len digits (default deg P^N), or exact or
    truncated series of one class of up to max_len digits."""
    digits = lambda n: st.lists(st.integers(0, gf.q - 1), max_size=n)
    if ring == "poly":
        return [Poly(gf, draw(digits(max_len))) for _ in range(count)]
    if ring == "padic":
        P = draw(moduli(gf))
        ctx = PadicCtx(P, draw(st.integers(1, max_N(P))))
        return [ctx.elem(Poly(gf, draw(digits(padic_len or ctx.modulus.degree)))) for _ in range(count)]
    return [draw(series(gf, InfLaurent if ring == "inf" else VqElem, max_len=max_len)) for _ in range(count)]


@st.composite
def act_args(draw, rings=RINGS, max_size=ACT_MAX_SIZE, max_len=6, padic=None):
    """(M, u): deg M from -1 to 6 with q^deg M <= max_size, and u in one of
    ``rings``: a Poly of up to 4 digits, a P-adic element drawn by
    ``padic`` (by default of deg P^N <= 6), or an exact or truncated series
    of up to max_len digits; zero included."""
    q = draw(st.sampled_from(X_FIELDS))
    gf = FIELDS[q]
    top = max(d for d in range(7) if q**d <= max_size)
    d = draw(st.integers(-1, top))
    M = Poly.zero(gf)
    if d >= 0:
        M = Poly(gf, draw(st.lists(st.integers(0, q - 1), min_size=d, max_size=d)) + [draw(st.integers(1, q - 1))])
    ring = draw(st.sampled_from(rings))
    if ring == "padic" and padic:
        return M, draw(padic(gf))
    return M, draw(ring_elems(gf, ring, 1, 4 if ring == "poly" else max_len, lambda P: 6 // P.degree))[0]


@st.composite
def step_args(draw):
    """(x, a, w): x and w in one of RINGS over q in X_FIELDS, of up to 12
    digits, P-adic ones in one F_q[T]/P^N with N <= 4; a in F_q, zero
    included."""
    gf = FIELDS[draw(st.sampled_from(X_FIELDS))]
    a = draw(st.integers(0, gf.q - 1))
    x, w = draw(ring_elems(gf, draw(st.sampled_from(RINGS)), 2, 12, lambda P: 4, padic_len=12))
    return x, a, w


def _padic_step(q, P, N, seed):
    """(x, a, w) in F_q[T]/P^N with x and w of full degree deg P^N - 1, so
    the step has a digit at T^(deg P^N) from T*x as well as the spread's."""
    gf = FIELDS[q]
    ctx = PadicCtx(Poly(gf, P), N)
    n = ctx.modulus.degree
    return ctx.elem(_rand(gf, n, seed)), q - 1, ctx.elem(_rand(gf, n, seed + 1))


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


# prime fields where q (deg f - 1) passes SPREAD_CROSSOVER at small deg f
LARGE_FIELDS = {q: GF(q) for q in (257, 10007, 1000003, 4294967311, 2**40 - 87)}


def wide_pairs(q):
    """Operands over F_q, q = 2^31 - 1 or 2^40 - 87, whose slot sums pass
    2^64: random ones and ones with every coefficient q - 1."""
    gf = LARGE_FIELDS.get(q) or GF(q)
    full = [Poly(gf, [q - 1] * n) for n in (40, 9)]
    pairs = [(_rand(gf, n, seed), _rand(gf, m, seed + 1)) for n, m, seed in [(40, 40, 1), (64, 9, 3), (9, 30, 5)]]
    return pairs + [tuple(full)]


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


@st.composite
def capped_step_args(draw):
    """(f, h, a, w) over GF(2^32 + 15) with deg f 2 or 3, monic or not, where
    a step's spread would pass the 2^24 cap on q-th powers: h nonconstant
    and w reduced mod f, a nonzero."""
    gf = LARGE_FIELDS[4294967311]
    q, n = gf.q, draw(st.integers(2, 3))
    rng = random.Random(draw(st.integers(0, 2**32)))
    f = Poly(gf, [rng.randrange(q) for _ in range(n)] + [1 if draw(st.booleans()) else rng.randrange(1, q)])
    h = Poly(gf, [rng.randrange(q) for _ in range(draw(st.integers(1, n - 1)))] + [rng.randrange(1, q)])
    w = Poly(gf, [rng.randrange(q) for _ in range(draw(st.integers(0, n)))])
    return f, h, rng.randrange(1, q), w


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


def random_irreducible(gf, rng, n):
    """A random monic irreducible of degree n, by Rabin's test."""
    while True:
        P = Poly(gf, [rng.randrange(gf.q) for _ in range(n)] + [1])
        if rabin_pow_mod(P):
            return P


@st.composite
def residue_args(draw, qs=FROB_FIELDS, max_deg=lambda q: 3 if q >= 25 else 5, a_len=lambda n: 2 * n + 1):
    """(A, P): P monic irreducible of degree 1 to max_deg(q), and A with
    a_len(deg P) random coefficients, not divisible by P; by default deg P
    is at most 5 (3 for q >= 25) and deg A at most 2 deg P."""
    q = draw(st.sampled_from(qs))
    gf = FIELDS.get(q) or LARGE_FIELDS[q]
    rng = random.Random(draw(st.integers(0, 2**32)))
    P = random_irreducible(gf, rng, draw(st.integers(1, max_deg(q))))
    A = Poly(gf, [rng.randrange(q) for _ in range(a_len(P.degree))])
    assume(not (A % P).is_zero())
    return A, P


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


@st.composite
def padic_args(draw, gf=None):
    """(x, y, e): x and y in F_q[T]/P^N with deg P 1-3 and N 1-12, often
    non-units, e an exponent of either sign."""
    gf = gf or FIELDS[draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))]
    P = draw(moduli(gf))
    ctx = PadicCtx(P, draw(st.integers(1, 12)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = ctx.modulus.degree

    def elem():
        x = ctx.elem(Poly(gf, [rng.randrange(gf.q) for _ in range(n)]))
        return x * ctx.elem(P) if draw(st.integers(0, 3)) == 0 else x

    return elem(), elem(), draw(st.integers(-2 * gf.q, 3 * gf.q))


def frac(num_text, den_text, gf):
    return Fraction(parse_poly(num_text, gf), parse_poly(den_text, gf))


def descartes_form_stepwise(xs) -> RatFn:
    """The form by its definition, reduced after every +, ** and -: the
    oracle for descartes_form's single common denominator."""
    vals = []
    for x in xs:
        if isinstance(x, RatFn):
            if x.is_infinity():
                raise DomainError("descartes form is undefined on a family containing infinity")
            vals.append(x)
        else:
            vals.append(RatFn.from_poly(x))
    q = vals[0].gf.q
    if len(vals) != q + 1:
        raise DomainError(f"expected {q + 1} curvatures, got {len(vals)}")
    total = vals[0]
    for v in vals[1:]:
        total = total + v
    acc = total ** (q - 1)
    for v in vals:
        acc = acc - v ** (q - 1)
    return acc


FORM_QS = [2, 3, 4, 5, 7, 8, 9]


def _poly(draw, gf, max_deg):
    return Poly(gf, draw(st.lists(st.integers(0, gf.q - 1), max_size=max_deg + 1)))


def _nonzero_poly(draw, gf, max_deg):
    low = draw(st.lists(st.integers(0, gf.q - 1), max_size=max_deg))
    return Poly(gf, low + [draw(st.integers(1, gf.q - 1))])


@st.composite
def tangent_families(draw):
    gf = field(draw(st.sampled_from(FORM_QS)))
    a, c = _nonzero_poly(draw, gf, 3), _nonzero_poly(draw, gf, 3)
    g, x, y = poly_ext_gcd(a, c)
    assume(g.degree == 0)
    inv = gf.inv(g.lc)
    f1, f2 = RatFn(a, c), RatFn(y.scale(gf.neg(inv)), x.scale(inv))
    assume(not f2.is_infinity() and f1 != f2)
    fam = tangent_family(f1, f2)
    assume(not any(m.is_infinity() for m in fam))
    return fam


@st.composite
def curvature_tuples(draw):
    """q+1 curvatures, each a Poly or a RatFn with a nonzero denominator."""
    gf = field(draw(st.sampled_from(FORM_QS)))
    xs = []
    for _ in range(gf.q + 1):
        num = _poly(draw, gf, 2)
        if draw(st.booleans()):
            xs.append(num)
        else:
            xs.append(RatFn(num, _nonzero_poly(draw, gf, 2)))
    return xs


def geodesic_ray_stepwise(f: RatFn, steps: int):
    """The ray by walking it one vertex at a time, down through parents and
    up through the truncations of f's digits: the oracle for geodesic_ray's
    two ranges."""
    gf = f.gf
    out = [TreeVertex.base(gf)]
    if f.is_infinity():
        while len(out) <= steps:
            out.append(out[-1].parent())
        return out
    ser = InfLaurent.from_ratfn(f, prec=steps + 1)
    digits = dict(ser.terms())
    v = min(digits) if digits else 0
    down = min(0, v)
    level = 0
    while level > down:
        level -= 1
        out.append(TreeVertex(gf, level, {}))
        if len(out) > steps:
            return out[: steps + 1]
    while len(out) <= steps:
        level += 1
        out.append(TreeVertex(gf, level, {e: c for e, c in digits.items() if e < level}))
    return out[: steps + 1]


def tree_distance_by_dicts(v1: TreeVertex, v2: TreeVertex) -> int:
    """The distance from the first exponent where the class digits differ,
    compared digit by digit: the oracle for tree_distance's symmetric
    difference."""
    d1, d2 = dict(v1.cls), dict(v2.cls)
    diff_exps = [e for e in set(d1) | set(d2) if d1.get(e, 0) != d2.get(e, 0)]
    l = min(v1.level, v2.level)
    if diff_exps:
        l = min(l, min(diff_exps))
    return (v1.level - l) + (v2.level - l)


TREE_QS = [2, 3, 4, 5]


@st.composite
def boundary_points(draw):
    """Infinity, 0, or num/den with v(f) anywhere in -17..17, so both
    v(f) < -steps and v(f) > 0 occur."""
    gf = field(draw(st.sampled_from(TREE_QS)))
    kind = draw(st.sampled_from(["infinity", "zero", "ratio"]))
    if kind == "infinity":
        return RatFn.infinity(gf)
    if kind == "zero":
        return RatFn.zero(gf)
    shifts = st.integers(0, 14)
    num = _nonzero_poly(draw, gf, 3).shift(draw(shifts))
    return RatFn(num, _nonzero_poly(draw, gf, 3).shift(draw(shifts)))


@st.composite
def vertex_pairs(draw):
    """Two vertices at levels -3..5 whose classes share most digits."""
    gf = field(draw(st.sampled_from(TREE_QS)))
    exps, digit = st.integers(-8, 4), st.integers(0, gf.q - 1)
    shared = draw(st.dictionaries(exps, digit, max_size=8))

    def vertex():
        own = draw(st.dictionaries(exps, digit, max_size=2))
        return TreeVertex(gf, draw(st.integers(-3, 5)), {**shared, **own})

    return vertex(), vertex()


# ---------------------------------------------------------------- oracles


def school_product(a, b, zero, add, mul) -> list:
    """The schoolbook product of two coefficient lists, constant first, over
    the ring of zero, add and mul; pairs with a zero factor are skipped."""
    out = [zero] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if x != zero and y != zero:
                out[i + j] = add(out[i + j], mul(x, y))
    return out


def school_division(a, b, zero, sub, mul, inv_lead):
    """The quotient and remainder lists of a by b, constant first, one
    quotient digit at a time from the top: the remainder's top digit times
    inv_lead, the inverse of b's leading coefficient."""
    rem, db = list(a), len(b) - 1
    quo = [zero] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        if rem[i] != zero:
            f = quo[i - db] = mul(rem[i], inv_lead)
            for j, y in enumerate(b):
                rem[i - db + j] = sub(rem[i - db + j], mul(f, y))
    return quo, rem


def school_mul(a: Poly, b: Poly) -> Poly:
    return Poly(a.gf, school_product(a.coeffs, b.coeffs, 0, a.gf.add, a.gf.mul))


def school_divmod(a: Poly, b: Poly):
    gf = a.gf
    if b.is_zero():
        raise DomainError("polynomial division by zero")
    quo, rem = school_division(a.coeffs, b.coeffs, 0, lambda x, y: gf.add(x, gf.neg(y)), gf.mul, gf.inv(b.lc))
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


def digit_vectors(q, n):
    """The base-q digits, constant digit first, of the codes 0 .. q^n - 1:
    the enumeration loop the library used before all_polys."""
    return [[code // q**j % q for j in range(n)] for code in range(q**n)]


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
        for p in carlitz.poly.all_polys(m.gf, d, monic=True):
            while (m % p).is_zero():
                m = m // p
                factors[p] = factors.get(p, 0) + 1
        d += 1
    return factors


def phi_from_factors(gf, factors: dict) -> int:
    return math.prod(gf.q ** (p.degree * (k - 1)) * (gf.q**p.degree - 1) for p, k in factors.items())


def unit_count(m: Poly) -> int:
    """|(F_q[T]/m)^*| by a gcd with m for every residue of degree < deg m."""
    residues = [Poly(m.gf, c) for c in digit_vectors(m.gf.q, m.degree)]
    return sum(1 for a in residues if not a.is_zero() and poly_gcd(a, m).degree == 0)


def phi_by_trial(m: Poly) -> int:
    """phi(m) from the trial-division factorization, checked against the
    count of units while q^deg m <= 729."""
    want = phi_from_factors(m.gf, trial_factor(m))
    if 1 <= m.degree and m.gf.q**m.degree <= 729:
        assert want == unit_count(m), m
    return want


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


def school_vector_ops(a, b, c):
    """a + b, a - b, b - a, -a, c a and a - a by the digit loops, and that
    a - a is zero."""
    return (school_add(a, b), school_add(a, school_neg(b)), school_add(b, school_neg(a)), school_neg(a),
            school_scale(c, a), school_add(a, school_neg(a)), True)


def inverse_then_power(alpha, k, prec):
    """alpha^(-e), e = (q-1)k, as the inverse of alpha at the longer
    precision prec + (e-1) v(alpha), raised to the e-th power."""
    e = (alpha.gf.q - 1) * k
    return alpha.inverse(prec=max(prec + (e - 1) * alpha.v, -alpha.v + 1)) ** e


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


def working_u(u: VqElem, prec=None) -> VqElem:
    """divide_T's argument at its working precision: refused at v(u) <= -q,
    cut at prec, or at v(u) + 10 (q - 1) when exact."""
    q = u.gf.q
    vu = u._veff()
    if vu <= -q:
        raise PrecisionError(
            f"argument valuation {vu} <= -{q}; the contraction does not converge"
        )
    if u.prec is None and not u.is_zero():
        return u.truncate(prec if prec is not None else u.v + 10 * (q - 1))
    return u if prec is None else u.truncate(prec)


def divide_T_fixed_point(u: VqElem, prec=None) -> list:
    """divide_T by iterating v <- (v^q - u) s^(q-1) from 0 until v is stable,
    within a cap read off the precision: an oracle for the digit placement."""
    gf, q, vu = u.gf, u.gf.q, u._veff()
    u = working_u(u, prec)
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
    gf, q = u.gf, u.gf.q
    u = working_u(u, prec)
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


def school_xmul(a: XPoly, b: XPoly) -> XPoly:
    """The product with one F_q[T] product per pair of nonzero coefficients."""
    return XPoly(a.gf, school_product(a.coeffs, b.coeffs, Poly.zero(a.gf), Poly.__add__, Poly.__mul__))


def school_xdivmod(a: XPoly, b: XPoly):
    """Exact division; the divisor's leading coefficient must be a unit constant."""
    if b.is_zero():
        raise DomainError("division by the zero polynomial")
    lead = b.coeffs[-1]
    if lead.degree != 0:
        raise DomainError("divisor leading coefficient must be a nonzero constant")
    inv = Poly.const(a.gf, a.gf.inv(lead.coeffs[0]))
    quo, rem = school_division(a.coeffs, b.coeffs, Poly.zero(a.gf), Poly.__sub__, Poly.__mul__, inv)
    return XPoly(a.gf, quo), XPoly(a.gf, rem)


def rf_trim(coeffs):
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def rf_mul(a, b, P):
    return rf_trim(school_product(a, b, Poly.zero(P.gf), Poly.__add__, lambda x, y: x * y % P))


def rf_divmod(a, b, P):
    if not b:
        raise DomainError("division by zero over residue field")
    quo, rem = school_division([c % P for c in a], b, Poly.zero(P.gf), lambda x, y: (x - y) % P,
                               lambda x, y: x * y % P, inv_mod(b[-1], P))
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


def ddf_by_degrees(f, x, deg, step, gcd_minus_x, divmod_):
    """The degree-by-degree ddf loop over F_Q = F_q[T]/P: h = x^(Q^d) mod the unsplit part by
    step(h, rest), whose gcd with h - x holds its factors of degree d.  Each oracle passes its
    own representation of f and x and its own deg, step, gcd_minus_x and divmod_."""
    out = []
    h, d, rest = x, 0, f
    while deg(rest) >= 2 * (d + 1):
        d += 1
        h = step(h, rest)
        g = gcd_minus_x(rest, h)
        if deg(g) > 0:
            out.append((d, deg(g) // d))
            rest, r = divmod_(rest, g)
            assert deg(r) < 0
            h = divmod_(h, rest)[1]
    if deg(rest) > 0:
        out.append((deg(rest), 1))
    return out


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
    x = [Poly.zero(gf), Poly.one(gf)]
    minus_x = lambda h: [a - b for a, b in zip_longest(h, x, fillvalue=Poly.zero(gf))]
    return ddf_by_degrees(f, x, lambda a: len(a) - 1, lambda h, rest: rf_powmod_x(h, order, rest, P),
                          lambda rest, h: rf_gcd(rest, minus_x(h), P), lambda a, b: rf_divmod(a, b, P))


def ddf_by_powering(f, P):
    """ddf at a prime P of degree >= 2 over the residue field itself, with
    h = x^(Q^d) mod the unsplit part by square-and-multiply by
    Q = q^(deg P); f is a squarefree list of Poly coefficients."""
    gf = P.gf

    def gcd(a, b):
        while not b.is_zero():
            a, b = b, a.divmod(b, P)[1]
        return a

    Q, x = gf.q**P.degree, XPoly(gf, [Poly.zero(gf), Poly.one(gf)])
    return ddf_by_degrees(XPoly(gf, [c % P for c in f]), x, XPoly.deg,
                          lambda h, rest: square_multiply(h, Q, lambda a, b: (a * b).divmod(rest, P)[1]),
                          lambda rest, h: gcd(rest, h - x), lambda a, b: a.divmod(b, P))


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


def dense(f) -> XPoly:
    """sum c_i x^(q^i) with all its x-coefficients."""
    return XPoly.from_terms(f.gf, {f.gf.q**i: c for i, c in enumerate(f.coeffs)})


def dense_operator(M: Poly) -> XPoly:
    """rho_M(x) with all its q^(deg M) + 1 x-coefficients."""
    return dense(carlitz_operator(M))


def torsion_padic_by_class(P: Poly, N: int) -> list:
    """The roots of rho_{P-1} mod P^N by one Hensel lift per residue class
    mod P, on the coefficient loop reduced mod P^N."""
    ctx = PadicCtx(P, N)
    f = CoefficientOperator(P - Poly.one(P.gf), ctx.modulus)
    return [hensel_lift(f, ctx.elem(r), ctx) for r in ctx.residues()]


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


def rabin_known(f: Poly, known) -> bool:
    """Rabin's test on f, asserted equal to f's irreducibility when that is
    known in advance (known True or False, or None)."""
    got = rabin_pow_mod(f)
    assert known is None or got == known, f
    return got


def all_monic(gf, n):
    """The monic polynomials of degree n, in all_polys' order."""
    return [f + Poly.one(gf).shift(n) for f in all_polys(gf, n - 1)]


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


def brute_shell_coeffs(gf, rank, m):
    """_shell_coeffs by its rule: every tuple of polynomials of degree <= m
    whose maximum degree is m and whose first nonzero entry is monic."""
    out = []
    for coeffs in product(list(all_polys(gf, m)), repeat=rank):
        if max(c.degree for c in coeffs) != m:
            continue
        if next(c for c in coeffs if not c.is_zero()).lc == 1:
            out.append(coeffs)
    return out


@functools.lru_cache(maxsize=None)
def monic_power_sum(gf, m, n):
    """S_m(n) = sum over monic A of degree m of A^-n, term by term."""
    acc = RatFn.zero(gf)
    for A in carlitz.poly.all_polys(gf, m, monic=True):
        acc = acc + RatFn(Poly.one(gf), A**n)
    return acc


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


def fp_polymod(a, m, p):
    """a mod a monic m over F_p, by long division, without trailing zeros."""
    rem = school_division(a, m, 0, lambda x, y: (x - y) % p, lambda x, y: x * y % p, 1)[1]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


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


def stepping_order(gf, a):
    """The order of a by stepping through a, a^2, ..., as GF.order computed
    it before it divided q - 1 down."""
    k, x = 1, a
    while x != 1:
        x = gf.mul(x, a)
        k += 1
    return k


def stepping_residue_order(P, A):
    """The order of P mod A by stepping through its powers up to phi(A), as
    residue_degree_cyclotomic computed it before it divided phi(A) down."""
    if poly_gcd(P, A).degree != 0:
        raise DomainError(f"{P} is not coprime to {A}")
    base = P % A
    one = Poly.one(P.gf) % A
    cap = euler_phi(A)
    x = base
    for k in range(1, cap + 1):
        if x == one:
            return k
        x = (x * base) % A
    raise CarlitzError(f"order of {P} mod {A} exceeds the group order {cap}")


def gf_tables_by_coordinates(p, r):
    """gf_tables of F_(p^r) from coordinates and schoolbook F_p
    polynomials mod the least irreducible monic of degree r: inverses read
    off the product table, powers by repeated products."""
    m = next(f for f in fp_monic(p, r) if fp_irreducible(f, p))
    q = p**r
    coords = [[(a // p**j) % p for j in range(r)] for a in range(q)]

    def elem(c):
        return sum(x % p * p**j for j, x in enumerate(c))

    def mul(a, b):
        return elem(fp_polymod(school_product(coords[a], coords[b], 0, lambda x, y: (x + y) % p, int.__mul__), m, p))

    products = [[mul(a, b) for b in range(q)] for a in range(q)]
    x, powers = random.Random(q).randrange(1, q), [1]
    for _ in range(2 * q - 1):
        powers.append(products[powers[-1]][x])
    return (
        tuple(m),
        [elem([-c for c in ca]) for ca in coords],
        [[elem([x + y for x, y in zip(ca, cb)]) for cb in coords] for ca in coords],
        products,
        [1] * (q - 1),
        [(e, products[e].index(1)) for e in powers],
        ([bytes(c + [0] * (r - 1)) for c in coords], {w: elem(fp_polymod(w, m, p)) for w in product(range(p), repeat=2 * r - 1)}),
        [sum(c << 16 * j for j, c in enumerate(ca)) for ca in coords],
    )


# (p, r, the least element of order q - 1 in the default modulus)
ORDER_FIELDS = {2: (2, 1, 1), 3: (3, 1, 2), 4: (2, 2, 2), 5: (5, 1, 2), 7: (7, 1, 3),
                8: (2, 3, 2), 9: (3, 2, 4), 16: (2, 4, 2), 25: (5, 2, 6), 27: (3, 3, 3)}
