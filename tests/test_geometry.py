"""Horoball curvature geometry (tangency, Descartes-type form, Soddy check),
the Moebius action of GL_2(F_q[T]) on tangent pairs, and the Bruhat-Tits
tree at infinity, plus the normal-basis data of the residue extension.  The
form, the ray and the distance against their stepwise oracles are rows of
tests/test_oracles.py."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import _nonzero_poly, _poly, det as fq_det, field, frac
from test_oracles import earlier_tests
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
from carlitz.poly import Poly, RatFn, poly_ext_gcd
from carlitz.series import InfLaurent

# the rows of tests/test_oracles.py that keep their earlier ids in this module
globals().update(earlier_tests(__name__))


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
