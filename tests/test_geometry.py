"""Horoball curvature geometry (tangency, Descartes-type form, Soddy check),
the Moebius action of GL_2(F_q[T]) on tangent pairs, and the Bruhat-Tits
tree at infinity with its ray and distance against stepwise oracles, plus
the normal-basis data of the residue extension."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import det as fq_det, field
from carlitz import geometry as geometry_module
from carlitz.errors import DomainError
from carlitz.geometry import (
    MAX_GALOIS_ORDER,
    Fraction,
    NormalBasisData,
    descartes_form,
    galois_embed,
    geodesic_ray,
    normal_basis,
    random_tangent_family,
    soddy_form,
    tangent,
    tangent_family,
    tree_distance,
    tree_neighbors,
    TreeVertex,
)
from carlitz.gf import GF
from carlitz.poly import Poly, RatFn, parse_poly, poly_ext_gcd
from carlitz.series import InfLaurent


def frac(num_text, den_text, gf):
    return Fraction(parse_poly(num_text, gf), parse_poly(den_text, gf))


# ---------------------------------------------------------------- fractions


def test_fraction_normalization():
    gf = field(3)
    a = frac("2*T+2", "2", gf)
    assert str(a) == "T+1"
    b = frac("T^2+2*T+1", "T+1", gf)  # reduces to T+1
    assert a == b
    inf = Fraction.infinity(gf)
    assert inf.is_infinity()
    with pytest.raises(DomainError):
        inf.valuation_inf()
    with pytest.raises(DomainError):
        InfLaurent.from_ratfn(inf, 4)


def test_tangency_examples():
    gf = field(3)
    zero = Fraction.zero(gf)
    f1 = frac("1", "T", gf)
    assert tangent(f1, zero)
    assert tangent(zero, f1)
    assert not tangent(f1, frac("1", "T^2", gf))
    assert not tangent(f1, f1)


def test_tangent_family_frozen():
    gf = field(3)
    fam = tangent_family(frac("1", "T", gf), Fraction.zero(gf))
    labels = sorted(str(m) for m in fam)
    assert labels == ["0", "1/(T+1)", "1/(T+2)", "1/T"]
    # pairwise tangency of the whole family
    for i, a in enumerate(fam):
        for b in fam[i + 1:]:
            assert tangent(a, b)


def test_descartes_vanishes_on_tangent_families():
    gf = field(3)
    fam = tangent_family(frac("1", "T", gf), Fraction.zero(gf))
    assert descartes_form(fam).is_zero()
    rng = random.Random(17)
    for _ in range(20):
        assert descartes_form(random_tangent_family(gf, rng)).is_zero()


def test_descartes_detects_non_tangent():
    gf = field(3)
    xs = [Fraction.zero(gf), frac("1", "T^2", gf), frac("1", "T^3", gf), frac("1", "T^4", gf)]
    assert not descartes_form(xs).is_zero()


def test_descartes_arity_and_infinity():
    gf = field(3)
    with pytest.raises(DomainError):
        descartes_form([Fraction.zero(gf)] * 3)
    with pytest.raises(DomainError, match="q \\+ 1 curvatures"):
        descartes_form([])
    with pytest.raises(DomainError):
        descartes_form([Fraction.infinity(gf)] + [Fraction.zero(gf)] * 3)


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


def _same_form(xs):
    new, old = descartes_form(xs), descartes_form_stepwise(xs)
    assert (new.num, new.den) == (old.num, old.den)
    assert str(new) == str(old)
    return new


@settings(max_examples=80, deadline=None)
@given(tangent_families())
def test_descartes_form_matches_stepwise_on_tangent_families(fam):
    # pairwise tangency makes the denominators pairwise coprime, so their
    # product is their lcm
    for i, a in enumerate(fam):
        for b in fam[i + 1:]:
            assert tangent(a, b)
    assert _same_form(fam).is_zero()


def _over(den, nums, q):
    gf = field(q)
    return [frac(n, den, gf) for n in nums]


@settings(max_examples=120, deadline=None)
@given(curvature_tuples())
# the product of the denominators exceeds their lcm: one shared denominator
# at q = 3, 4 and 5, and denominators with a common factor beside a Poly
@example(_over("T^2+1", ["1", "T", "T+1", "2"], 3))
@example([frac("1", "T", field(3)), frac("1", "T^2+T", field(3)),
          frac("T", "T+1", field(3)), parse_poly("T+2", field(3))])
@example(_over("T^3+T+1", ["1", "T", "T^2", "T+1", "w*T"], 4))
@example(_over("T^2+2", ["1", "T", "2*T+1", "3", "T^2+4", "4*T"], 5))
# denominators of degree 0 enter no product: every member a Poly (D = 1), one
# fraction among polynomials, and a repeated denominator beside unit ones
@example([parse_poly(t, field(3)) for t in ["T", "T^2+1", "2", "T+2"]])
@example([frac("T", "T^2+3", field(5))]
         + [parse_poly(t, field(5)) for t in ["1", "T", "T^2+4", "2*T+1", "3"]])
@example([frac("1", "T^2+w", field(4)), parse_poly("T", field(4)),
          frac("T", "T^2+w", field(4)), frac("w", "1", field(4)), parse_poly("T+1", field(4))])
def test_descartes_form_matches_stepwise_on_tuples(xs):
    _same_form(xs)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_descartes_form_divides_nothing_on_tangent_families(q, monkeypatch):
    # each cofactor comes from prefix and suffix products, and the form is 0,
    # so the final reduction runs no gcd either
    calls = []
    divmod_ = Poly.__divmod__

    def counted(a, b):
        calls.append(b)
        return divmod_(a, b)

    gf = field(q)
    rng = random.Random(q)
    fams = [random_tangent_family(gf, rng) for _ in range(5)]
    monkeypatch.setattr(Poly, "__divmod__", counted)
    for fam in fams:
        assert descartes_form(fam).is_zero()
    assert calls == []


# ---------------------------------------------------------------- Moebius action

MOBIUS_QS = [2, 3, 4, 5]


def mobius(g, pair):
    """g = ((alpha, beta), (gamma, delta)) on an unreduced pair (a, b):
    (alpha*a + beta*b, gamma*a + delta*b)."""
    (alpha, beta), (gamma, delta) = g
    a, b = pair
    return alpha * a + beta * b, gamma * a + delta * b


def cross(p1, p2):
    """The cross-determinant of two unreduced pairs."""
    return p1[0] * p2[1] - p2[0] * p1[1]


def det(g):
    (alpha, beta), (gamma, delta) = g
    return alpha * delta - beta * gamma


def act(g, f: RatFn) -> RatFn:
    return RatFn(*mobius(g, (f.num, f.den)))


@st.composite
def unit_det_matrices(draw, gf):
    """g with det g in F_q^*: a unimodular g from a random coprime column
    (a, c), its first row scaled by a random unit."""
    a, c = _nonzero_poly(draw, gf, 3), _nonzero_poly(draw, gf, 3)
    g, x, y = poly_ext_gcd(a, c)
    assume(g.degree == 0)
    unit = draw(st.integers(1, gf.q - 1))
    # a*x + c*y = 1, so ((a, -y), (c, x)) has determinant 1
    return (a.scale(unit), y.scale(gf.neg(unit))), (c, x)


@st.composite
def tangent_pairs(draw):
    """A tangent pair (f1, f2): the columns of a matrix whose determinant is
    a unit; f2 may be infinity."""
    gf = field(draw(st.sampled_from(MOBIUS_QS)))
    (a, b), (c, d) = draw(unit_det_matrices(gf))
    return RatFn(a, c), RatFn(b, d)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mobius_scales_the_cross_determinant_by_det(data):
    # on unreduced pairs, cross_det(g.f1, g.f2) = det g * cross_det(f1, f2)
    gf = field(data.draw(st.sampled_from(MOBIUS_QS)))
    g = tuple(tuple(_poly(data.draw, gf, 3) for _ in range(2)) for _ in range(2))
    p1, p2 = [tuple(_poly(data.draw, gf, 3) for _ in range(2)) for _ in range(2)]
    assert cross(mobius(g, p1), mobius(g, p2)) == det(g) * cross(p1, p2)


@settings(max_examples=100, deadline=None)
@given(tangent_pairs())
def test_tangent_family_is_the_mobius_image_of_infinity_and_F_q(pair):
    # the family is g.(infinity, 0, 1, ..., q-1) in order, for
    # g = ((num2, num1), (den2, den1))
    f1, f2 = pair
    gf = f1.gf
    g = (f2.num, f1.num), (f2.den, f1.den)
    assert det(g).degree == 0
    points = [RatFn.infinity(gf)] + [RatFn.from_poly(Poly(gf, [b])) for b in range(gf.q)]
    assert tangent_family(f1, f2) == [act(g, x) for x in points]


@settings(max_examples=100, deadline=None)
@given(tangent_pairs(), st.data())
def test_unit_det_mobius_maps_families_onto_families(pair, data):
    # det g in F_q^* keeps the pair tangent, and g carries the family of
    # (f1, f2) onto the family of (g.f1, g.f2)
    f1, f2 = pair
    g = data.draw(unit_det_matrices(f1.gf))
    assert det(g).degree == 0
    image = tangent_family(act(g, f1), act(g, f2))
    assert len(set(image)) == f1.gf.q + 1
    assert set(image) == {act(g, m) for m in tangent_family(f1, f2)}


def test_soddy_values():
    assert soddy_form(2, (-1, 2, 2, 3)) == 0
    assert soddy_form(2, (1, 1, 1, 1)) == 8
    with pytest.raises(DomainError):
        soddy_form(2, (1, 1, 1))


# ---------------------------------------------------------------- tree


def base_vertex(gf):
    return TreeVertex(gf, 0, {})


def test_tree_neighbors_structure():
    gf = field(3)
    v = base_vertex(gf)
    nbrs = tree_neighbors(v)
    assert len(nbrs) == 4
    assert len({n.label() for n in nbrs}) == 4
    for n in nbrs:
        assert tree_distance(v, n) == 1


def test_tree_parent_child_roundtrip():
    gf = field(3)
    v = base_vertex(gf)
    for a in range(3):
        c = v.child(a)
        assert c.level == 1
        assert c.parent() == v
        assert tree_distance(v, c) == 1


def test_tree_distance_examples():
    gf = field(3)
    v = base_vertex(gf)
    c0, c1 = v.child(0), v.child(1)
    assert tree_distance(v, v) == 0
    assert tree_distance(c0, c1) == 2  # siblings meet at the parent
    assert tree_distance(c0.child(1), c1) == 3
    assert tree_distance(v.parent(), c0) == 2


def test_tree_distance_symmetry_random():
    gf = field(3)
    rng = random.Random(23)
    verts = [base_vertex(gf)]
    for _ in range(40):
        verts.append(rng.choice(tree_neighbors(rng.choice(verts))))
    for _ in range(60):
        a, b = rng.choice(verts), rng.choice(verts)
        assert tree_distance(a, b) == tree_distance(b, a)
        c = rng.choice(verts)
        assert tree_distance(a, b) <= tree_distance(a, c) + tree_distance(c, b)


def test_geodesic_ray_is_a_path():
    gf = field(3)
    for f in (frac("1", "T", gf), frac("T+1", "1", gf), Fraction.infinity(gf), Fraction.zero(gf)):
        ray = geodesic_ray(f, 6)
        assert len(ray) == 7
        for a, b in zip(ray, ray[1:]):
            assert tree_distance(a, b) == 1


def test_geodesic_ray_refuses_negative_steps():
    gf = field(3)
    for f in (Fraction.infinity(gf), Fraction.zero(gf)):
        with pytest.raises(DomainError):
            geodesic_ray(f, -1)


def test_geodesic_ray_digit_cap(monkeypatch):
    # the cap counts the class digits the vertices hold, exactly: a ray of
    # that many is built, and one more than the cap is refused
    gf = field(3)
    for f, steps in [(frac("1", "T+1", gf), 12), (frac("T^3+1", "T^2+2", gf), 9), (frac("T^2", "1", gf), 5)]:
        total = sum(len(v.cls) for v in geodesic_ray(f, steps))
        monkeypatch.setattr(geometry_module, "MAX_RAY_DIGITS", total)
        assert len(geodesic_ray(f, steps)) == steps + 1
        monkeypatch.setattr(geometry_module, "MAX_RAY_DIGITS", total - 1)
        with pytest.raises(DomainError, match=f"a ray of {total} class digits"):
            geodesic_ray(f, steps)
    monkeypatch.undo()

    # 1/(T+1) has a digit at every exponent, 2999 * 3000 / 2 in the vertices
    # of 3000 steps (`ray` took about 5 s and 400 MB): refused before any vertex
    def unreachable(*args):
        raise AssertionError("a vertex was built")

    monkeypatch.setattr(geometry_module, "TreeVertex", unreachable)
    with pytest.raises(DomainError, match="a ray of 4498500 class digits is above the supported maximum 2\\^22"):
        geodesic_ray(frac("1", "T+1", gf), 3000)
    monkeypatch.undo()
    # 1/T has one digit, so each vertex holds at most one at any length
    ray = geodesic_ray(frac("1", "T", gf), 20000)
    assert len(ray) == 20001 and ray[-1].cls == ((1, 1),)


def test_geodesic_ray_vertex_cap(monkeypatch):
    # the cap counts the steps + 1 vertices exactly, whatever digits they
    # hold: a ray of that many is built, and one more is refused
    gf = field(3)
    rays = (Fraction.zero(gf), Fraction.infinity(gf), frac("1", "T+1", gf))
    monkeypatch.setattr(geometry_module, "MAX_RAY_VERTICES", 10)
    for f in rays:
        assert len(geodesic_ray(f, 9)) == 10
        with pytest.raises(DomainError, match="a ray of 11 vertices"):
            geodesic_ray(f, 10)
    monkeypatch.undo()

    # toward 0 or inf no vertex holds a digit, and `ray --steps 3000000`
    # ran 24.7 s: refused before f is expanded or any vertex is built
    def unreachable(*args, **kwargs):
        raise AssertionError("the ray was started")

    monkeypatch.setattr(geometry_module, "TreeVertex", unreachable)
    monkeypatch.setattr(InfLaurent, "from_ratfn", unreachable)
    for f in rays:
        with pytest.raises(DomainError, match="a ray of 3000001 vertices is above the supported maximum 2\\^19"):
            geodesic_ray(f, 3000000)


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


@settings(max_examples=200, deadline=None)
@given(boundary_points(), st.integers(0, 12))
@example(Fraction.infinity(field(2)), 0)
@example(Fraction.zero(field(3)), 12)
@example(frac("T^14", "1", field(3)), 12)  # v(f) = -14 < -steps
@example(frac("1", "T^3+1", field(4)), 7)  # v(f) = 3 > 0
@example(frac("1", "T^7+1", field(3)), 5)  # v(f) = 7 > steps
def test_geodesic_ray_matches_stepwise(f, steps):
    ray = geodesic_ray(f, steps)
    assert len(ray) == steps + 1
    assert ray == geodesic_ray_stepwise(f, steps)


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


@settings(max_examples=300, deadline=None)
@given(vertex_pairs())
def test_tree_distance_matches_digit_by_digit(pair):
    v1, v2 = pair
    assert tree_distance(v1, v2) == tree_distance_by_dicts(v1, v2) == tree_distance(v2, v1)


# ---------------------------------------------------------------- normal basis


def test_normal_basis_frozen_q3():
    gf = field(3)
    data = normal_basis(gf)
    assert isinstance(data, NormalBasisData)
    assert data.change_matrix == [[1, 1], [1, 2]]
    assert data.det_valuation == 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_normal_basis_matrix_invertible(q):
    gf = field(q)
    data = normal_basis(gf)
    assert fq_det(gf, data.change_matrix) != 0


def test_normal_basis_and_galois_embed_cap():
    # q - 1 = 127 is built, q - 1 = 130 is refused before anything is
    gf = GF(2, 7)
    assert len(normal_basis(gf).change_matrix) == len(galois_embed(gf)) == 127 <= MAX_GALOIS_ORDER
    for f in (normal_basis, galois_embed):
        with pytest.raises(DomainError, match="q - 1 = 130 is above the supported maximum 2"):
            f(GF(131))


@pytest.mark.parametrize("q", [3, 5, 7])
def test_galois_embed_group_law(q):
    gf = field(q)
    mats = galois_embed(gf)
    n = q - 1
    assert len(mats) == n

    def mul(A, B):
        return tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(n)) % gf.p for j in range(n))
            for i in range(n)
        )

    key = {tuple(tuple(r) for r in m): i for i, m in enumerate(mats)}
    for a in range(n):
        for b in range(n):
            prod = mul(mats[a], mats[b])
            assert key[prod] == (a + b) % n
