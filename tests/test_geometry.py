"""Horoball curvature geometry (tangency, Descartes-type form, Soddy check)
and the Bruhat-Tits tree at infinity, plus the normal-basis data of the
residue extension."""

import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import field
from carlitz.errors import DomainError
from carlitz.geometry import (
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


FORM_QS = [2, 3, 4, 5, 7, 9]


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
def test_descartes_form_matches_stepwise_on_tuples(xs):
    _same_form(xs)


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


# ---------------------------------------------------------------- normal basis


def test_normal_basis_frozen_q3():
    gf = field(3)
    data = normal_basis(gf)
    assert isinstance(data, NormalBasisData)
    assert data.change_matrix == [[1, 1], [1, 2]]
    assert data.det_valuation == 0


@pytest.mark.parametrize("q", [3, 5])
def test_normal_basis_matrix_invertible(q):
    gf = field(q)
    data = normal_basis(gf)
    from carlitz.geometry import _det

    assert _det(gf, data.change_matrix) != 0


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
