"""Power residue symbols, the reciprocity law, splitting oracles, Newton
polygons of the reduced division polynomial, and the Kummer correspondence."""

import random
from fractions import Fraction

import pytest

from conftest import field, rand_poly
from test_oracles import earlier_tests
from carlitz import reciprocity as reciprocity_module
from carlitz.errors import CarlitzError, DomainError
from carlitz.gf import GF
from carlitz.padic import PadicCtx
from carlitz.poly import Poly, euler_phi, is_irreducible, monic_irreducibles, parse_poly
from carlitz.operator import cyclotomic_poly
from carlitz.reciprocity import (
    check_reciprocity,
    kummer_map,
    kummer_solve,
    newton_polygon,
    residue_degree_cyclotomic,
    residue_symbol,
    star_action,
    xi_poly,
)
from carlitz.residues import ddf
from carlitz.series import InfLaurent, VqElem
from carlitz.torsion import torsion_vq

# the rows of tests/test_oracles.py that keep their earlier ids in this module
globals().update(earlier_tests(__name__))


# ---------------------------------------------------------------- symbols


def test_residue_symbol_values():
    gf = field(3)
    T = Poly.T(gf)
    one = Poly.one(gf)
    # T mod (T+1) is -1, a non-square in F_3
    assert residue_symbol(T, T + one, 2) == 2
    # T mod (T-1) is 1, a square
    assert residue_symbol(T, T - one, 2) == 1
    # d = 1 symbol is always trivial
    assert residue_symbol(T, T + one, 1) == 1


def test_residue_symbol_preconditions():
    gf = field(3)
    T = Poly.T(gf)
    one = Poly.one(gf)
    with pytest.raises(DomainError):
        residue_symbol(T, T, 2)  # not coprime
    with pytest.raises(DomainError):
        residue_symbol(T, T * T, 2)  # modulus not irreducible
    with pytest.raises(DomainError):
        residue_symbol(T, T + one, 4)  # d does not divide q - 1


# ---------------------------------------------------------------- the prime memo

_memo = reciprocity_module._check_prime


def test_only_the_symbol_fills_the_prime_memo():
    # the other users of a prime's irreducibility run their own test
    gf = field(9)
    P = parse_poly("T^2+T+(w)", gf)
    assert is_irreducible(P)
    _memo.cache_clear()
    assert is_irreducible(P)
    ddf(cyclotomic_poly(Poly.T(gf)).coeffs, P)
    PadicCtx(P, 3)
    cyclotomic_poly(P)
    assert _memo.cache_info().currsize == 0
    residue_symbol(Poly.T(gf), P, 2)
    assert _memo.cache_info().currsize == 1


def test_prime_memo_caches_no_failure():
    gf = field(3)
    T, one = Poly.T(gf), Poly.one(gf)
    bad = [T * T, T.scale(2) + one, one]  # reducible, non-monic, constant
    _memo.cache_clear()
    for _ in range(2):
        for P in bad:
            with pytest.raises(DomainError, match="not monic irreducible"):
                residue_symbol(T + one, P, 2)
        # a success on another prime leaves the failures failing
        assert residue_symbol(T, T + one, 2) == 2
    assert _memo.cache_info().currsize == 1


def test_cold_and_warm_symbols_agree():
    gf = field(9)
    rng = random.Random(12)
    primes = [P for P in monic_irreducibles(gf, 2) if P.degree == 2][:6]
    args = [(rand_poly(gf, rng, 4, nonzero=True), P, d) for P in primes for d in (1, 2, 4, 8)]
    args = [(A, P, d) for A, P, d in args if not (A % P).is_zero()]
    cold = []
    for A, P, d in args:
        _memo.cache_clear()
        cold.append(residue_symbol(A, P, d))
    warm = [residue_symbol(A, P, d) for A, P, d in args]
    assert cold == warm
    assert _memo.cache_info().hits >= len(args) - len(primes)


def test_prime_memo_is_bounded():
    gf = GF(601)
    T = Poly.T(gf)
    maxsize = _memo.cache_info().maxsize
    assert maxsize is not None and 512 <= maxsize < gf.q
    for c in range(1, gf.q):
        residue_symbol(T, T + Poly.const(gf, c), 2)
        assert _memo.cache_info().currsize <= maxsize
    assert _memo.cache_info().currsize == maxsize


def test_symbol_multiplicativity():
    gf = field(5)
    P = parse_poly("T^2+2", gf)
    rng = random.Random(4)
    for _ in range(30):
        A = rand_poly(gf, rng, 3, nonzero=True)
        B = rand_poly(gf, rng, 3, nonzero=True)
        if (A % P).is_zero() or (B % P).is_zero():
            continue
        for d in (1, 2, 4):
            assert residue_symbol(A * B, P, d) == gf.mul(
                residue_symbol(A, P, d), residue_symbol(B, P, d)
            )


def test_reciprocity_exhaustive_small():
    gf = field(3)
    irr = monic_irreducibles(gf, 2)
    for P in irr:
        for Q in irr:
            if P == Q:
                continue
            for d in (1, 2):
                lhs, rhs, holds = check_reciprocity(P, Q, d)
                assert holds, (str(P), str(Q), d, lhs, rhs)


@pytest.mark.parametrize("q, max_sum", [(4, 6), (9, 3)])
def test_reciprocity_over_extension_fields(q, max_sum):
    # every ordered pair of distinct monic irreducibles of degree <= 3 with
    # deg P + deg Q <= max_sum, every d | q - 1: 1740 checks over F_4 and
    # 2880 over F_9, where the symbol's norm is a resultant over F_{p^r}
    gf = field(q)
    irr = monic_irreducibles(gf, 3 if q == 4 else 2)
    divisors = [d for d in range(1, q) if (q - 1) % d == 0]
    total = 0
    for P in irr:
        for Q in irr:
            if P == Q or P.degree + Q.degree > max_sum:
                continue
            for d in divisors:
                lhs, rhs, holds = check_reciprocity(P, Q, d)
                assert holds, (str(P), str(Q), d, lhs, rhs)
                total += 1
    assert total == {4: 1740, 9: 2880}[q]


# ---------------------------------------------------------------- splitting


def test_residue_degree_cyclotomic_values():
    gf = field(3)
    T = Poly.T(gf)
    one = Poly.one(gf)
    # T = -1 mod (T+1): order 2
    assert residue_degree_cyclotomic(T, T + one) == 2
    # T = 1 mod (T-1): order 1
    assert residue_degree_cyclotomic(T, T - one) == 1
    with pytest.raises(DomainError):
        residue_degree_cyclotomic(T, T * T)


def test_residue_degree_cyclotomic_unit_modulus():
    # a constant A leaves the trivial group (F_q[T]/A)^*, where P = 1 mod A
    # and the order is 1; gcd(P, 0) = P, so A = 0 is coprime to no
    # nonconstant P
    gf = field(3)
    T = Poly.T(gf)
    for c in (1, 2):
        A = Poly.const(gf, c)
        assert euler_phi(A) == 1
        assert residue_degree_cyclotomic(T, A) == 1
        assert residue_degree_cyclotomic(T * T + Poly.one(gf), A) == 1
    with pytest.raises(DomainError, match="T is not coprime to 0"):
        residue_degree_cyclotomic(T, Poly.zero(gf))


# ---------------------------------------------------------------- newton


def test_xi_poly_reconstructs_operator():
    gf = field(3)
    A = parse_poly("T^2", gf)
    xi = xi_poly(A)
    # rho_A(u) = u * Xi(u^{q-1}): check on polynomial arguments
    from carlitz.operator import carlitz_act

    rng = random.Random(6)
    for _ in range(10):
        u = rand_poly(gf, rng, 2)
        uq = u * u  # u^{q-1} for q = 3
        assert carlitz_act(A, u) == u * xi.evaluate(uq)


def test_newton_polygon_frozen_T2():
    gf = field(3)
    np_ = newton_polygon(xi_poly(parse_poly("T^2", gf)))
    assert np_.vertices == [(0, -2), (1, -3), (4, 0)]
    assert np_.slopes() == [Fraction(-1), Fraction(1)]
    assert np_.root_valuations() == [
        (Fraction(1), Fraction(1)),
        (Fraction(-1), Fraction(3)),
    ]


def test_newton_polygon_custom_valuation():
    gf = field(3)
    # x^2 + T*x + T^3 with v = -deg: points (0,-3), (1,-1), (2,0)
    from carlitz.operator import XPoly

    f = XPoly(gf, [parse_poly("T^3", gf), Poly.T(gf), Poly.one(gf)])
    np_ = newton_polygon(f)
    # (1, -1) lies above the chord from (0, -3) to (2, 0), so the hull has a
    # single segment of slope 3/2
    assert np_.vertices == [(0, -3), (2, 0)]
    assert np_.slopes() == [Fraction(3, 2)]


# ---------------------------------------------------------------- kummer


def test_kummer_map_lands_on_lattice():
    gf = field(3)
    ts = torsion_vq(Poly.T(gf), 10)
    for u in ts:
        if u.is_zero():
            continue
        # kappa(u) = u^{q-1}; for rho_T-torsion this is exactly -T
        img = kummer_map(u)
        assert img.agrees(InfLaurent.from_poly(Poly.T(gf).scale(gf.neg(1))), upto=4)


def test_kummer_roundtrip_polynomials():
    gf = field(3)
    rng = random.Random(8)
    for _ in range(25):
        u = VqElem.from_poly(rand_poly(gf, rng, 3, nonzero=True))
        M = kummer_map(u)
        y = kummer_solve(M)
        back = kummer_map(y)
        assert back.agrees(M, upto=min(x for x in (back.prec, M.prec, 10) if x is not None))


def test_kummer_solve_rejects_bad_residue():
    gf = field(3)
    # -1 * T^2 has kappa-residue -1 != 1, so it is not in the image
    M = InfLaurent.from_poly(parse_poly("2*T^2", gf))
    with pytest.raises(CarlitzError):
        kummer_solve(M)


def test_star_action_identity_and_compatibility():
    gf = field(3)
    one = Poly.one(gf)
    u = VqElem.from_poly(parse_poly("T+1", gf)).truncate(20)
    nu = kummer_map(u)
    assert star_action(one, nu) == nu
    # star is kappa-conjugate to the module action
    from carlitz.operator import carlitz_act

    A = parse_poly("T+2", gf)
    lhs = star_action(A, nu)
    rhs = kummer_map(carlitz_act(A, kummer_solve(nu)))
    upto = min(x for x in (lhs.prec, rhs.prec, 6) if x is not None)
    assert lhs.agrees(rhs, upto=upto)
