"""Shared helpers for the test suite."""

from carlitz.gf import GF
from carlitz.poly import Poly, is_irreducible

_FIELDS = {}

# one line per acceptance criterion, echoed after the run (see
# pytest_terminal_summary below) so the gate is visible even when capture
# swallows in-test prints
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def field(q: int) -> GF:
    """A finite field of size q, cached across tests."""
    if q not in _FIELDS:
        p, r = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                8: (2, 3), 9: (3, 2)}[q]
        _FIELDS[q] = GF(p, r)
    return _FIELDS[q]


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
