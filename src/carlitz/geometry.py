"""Horoball fractions on the projective line over F_q(T), tangency and
Descartes/Soddy forms, the (q+1)-valent Bruhat-Tits tree, and the normal
basis of the ramified (q-1)-extension at infinity.
"""

from __future__ import annotations

from fractions import Fraction as Rational

from .errors import DomainError
from .poly import Poly, RatFn, poly_ext_gcd
from .series import InfLaurent, VqElem

__all__ = [
    "Fraction",
    "random_tangent_family",
    "tangent",
    "tangent_family",
    "descartes_form",
    "soddy_form",
    "TreeVertex",
    "tree_neighbors",
    "tree_distance",
    "geodesic_ray",
    "NormalBasisData",
    "normal_basis",
    "galois_embed",
]


# horoballs are points of the projective line over F_q(T), infinity 1/0;
# Fraction is the geometry layer's name for them
Fraction = RatFn


def _cross_det(f1: RatFn, f2: RatFn) -> Poly:
    return f1.num * f2.den - f2.num * f1.den


def tangent(f1: RatFn, f2: RatFn) -> bool:
    """Two horoballs are tangent when the cross-determinant is a unit."""
    d = _cross_det(f1, f2)
    return d.degree == 0


def tangent_family(f1: RatFn, f2: RatFn):
    """The q+1 mutually tangent horoballs spanned by a tangent pair:
    f2 together with (num1 + b*num2)/(den1 + b*den2) for b in F_q.

    These are the images of infinity, 0, ..., q-1 under the Moebius map
    g = ((num2, num1), (den2, den1)).  det g = -cross_det(f1, f2) is a unit,
    so g is a bijection of the projective line and the members are distinct.
    On unreduced pairs cross_det(g f1, g f2) = det g * cross_det(f1, f2), so
    every g with a unit determinant maps the family of (f1, f2) onto the
    family of (g f1, g f2).
    """
    if not tangent(f1, f2):
        raise DomainError(f"{f1} and {f2} are not tangent")
    return [f2] + [
        RatFn(f1.num + f2.num.scale(b), f1.den + f2.den.scale(b)) for b in range(f1.gf.q)
    ]


def _times(a: Poly, b: Poly) -> Poly:
    """a * b for monic a and b, where degree 0 means 1 and costs no product."""
    return b if a.degree == 0 else a if b.degree == 0 else a * b


def descartes_form(xs) -> RatFn:
    """The form (sum X_i)^(q-1) - sum X_i^(q-1) on q+1 exact curvatures.

    Curvatures are fractions or polynomials; infinity is rejected.  With D
    the product of the denominators (their lcm on a tangent family, whose
    cross-determinants are units) and X_i = n_i/D, the form is
    (S^(q-1) - sum n_i^(q-1)) / D^(q-1), S = sum n_i, reduced once.

    n_i = num_i * prod_{j != i} den_j takes the cofactor of den_i from one
    prefix and one suffix product over the denominators, with no exact
    division (Montgomery's simultaneous-inversion trick).  A denominator of
    degree 0 is exactly 1 (a fraction's is monic, a polynomial's is 1), so
    it enters no product.
    """
    pairs = []
    for x in xs:
        if isinstance(x, RatFn):
            if x.is_infinity():
                raise DomainError("descartes form is undefined on a family containing infinity")
            pairs.append((x.num, x.den))
        else:
            pairs.append((x, Poly.one(x.gf)))
    if not pairs:
        raise DomainError("descartes form needs q + 1 curvatures, got none")
    gf = pairs[0][0].gf
    q = gf.q
    if len(pairs) != q + 1:
        raise DomainError(f"expected {q + 1} curvatures, got {len(pairs)}")
    one = Poly.one(gf)
    prefix = [one]  # prefix[i] is the product of the denominators before pairs[i]
    for _, den in pairs:
        prefix.append(_times(prefix[-1], den))
    D = prefix.pop()
    ns = []
    suffix = one  # the product of the denominators after the current pair
    for (num, den), before in zip(reversed(pairs), reversed(prefix)):
        c = D if den.degree == 0 else _times(before, suffix)
        ns.append(num * c if c.degree else num)
        # once every denominator before is 1, no cofactor left reads suffix
        if before.degree:
            suffix = _times(den, suffix)
    S = Poly.zero(gf)
    for n in ns:
        S = S + n
    top = S ** (q - 1)
    for n in ns:
        top = top - n ** (q - 1)
    return RatFn(top, D ** (q - 1))


def soddy_form(n: int, ks) -> Rational:
    """The classical characteristic-zero form (sum k)^2 - n * sum k^2."""
    ks = [Rational(k) for k in ks]
    if len(ks) != n + 2:
        raise DomainError(f"expected {n + 2} curvatures, got {len(ks)}")
    s = sum(ks)
    return s * s - n * sum(k * k for k in ks)


def random_tangent_family(gf, rng):
    """A random mutually tangent family: start from a random unimodular pair
    of polynomials of degree at most 3.

    a and c are never both zero when poly_ext_gcd runs, and ad - bc = 1 makes
    the columns a/c and b/d tangent, hence distinct.
    """
    while True:
        a = Poly(gf, [rng.randrange(gf.q) for _ in range(rng.randint(1, 4))])
        c = Poly(gf, [rng.randrange(gf.q) for _ in range(rng.randint(1, 4))])
        if a.is_zero() and c.is_zero():
            continue
        g, x, y = poly_ext_gcd(a, c)
        if g.degree != 0:
            continue
        inv = gf.inv(g.lc)
        b = y.scale(gf.neg(inv))
        d = x.scale(inv)
        # now a*d - b*c = 1; the two columns give a tangent pair
        f1 = RatFn(a, c)
        f2 = RatFn(b, d)
        if f1.is_infinity() or f2.is_infinity():
            continue
        fam = tangent_family(f1, f2)
        if any(m.is_infinity() for m in fam):
            continue
        return fam


class TreeVertex:
    """A vertex (level n, class a mod pi^n) of the Bruhat-Tits tree at
    infinity, pi = 1/T.  The class is stored as its nonzero digits at
    u-exponents below n."""

    __slots__ = ("gf", "level", "cls")

    def __init__(self, gf, level: int, digits):
        self.gf = gf
        self.level = level
        self.cls = tuple(sorted((e, c) for e, c in dict(digits).items() if c and e < level))

    @classmethod
    def base(cls, gf):
        return cls(gf, 0, {})

    def parent(self) -> "TreeVertex":
        return TreeVertex(self.gf, self.level - 1, dict(self.cls))

    def child(self, digit: int) -> "TreeVertex":
        d = dict(self.cls)
        if digit:
            d[self.level] = digit
        return TreeVertex(self.gf, self.level + 1, d)

    def __eq__(self, other):
        return (
            isinstance(other, TreeVertex)
            and self.gf == other.gf
            and self.level == other.level
            and self.cls == other.cls
        )

    def __hash__(self):
        return hash((self.gf, self.level, self.cls))

    def label(self) -> str:
        ser = InfLaurent.from_terms(self.gf, dict(self.cls), prec=self.level)
        return f"({self.level}; {ser})"

    def __repr__(self):
        return f"TreeVertex{self.label()}"


def tree_neighbors(v: TreeVertex):
    """The parent and the q children; always q+1 vertices."""
    return [v.parent()] + [v.child(d) for d in range(v.gf.q)]


def tree_distance(v1: TreeVertex, v2: TreeVertex) -> int:
    """Graph distance: (m - l) + (n - l) where l, the level of the deepest
    common ancestor, is the least of the two levels and of every exponent
    at which the two classes differ."""
    if v1.gf != v2.gf:
        raise DomainError("vertices of different trees")
    l = min(v1.level, v2.level, *(e for e, _ in set(v1.cls) ^ set(v2.cls)))
    return (v1.level - l) + (v2.level - l)


# the most class digits a ray's vertices hold in all: a dense f reaches it
# near 2900 steps; `ray --steps 4000` on one took about 12.5 s and 700 MB
MAX_RAY_DIGITS = 2**22
# the most vertices a ray lists, whatever digits they hold: a ray toward 0 or
# inf holds none, and `ray --q 3 --f 0 --steps 3000000` took 24.7 s; the
# largest ray under the cap takes about 2.7 s
MAX_RAY_VERTICES = 2**19


def geodesic_ray(f: RatFn, steps: int):
    """The first steps+1 vertices of the ray from the base vertex toward the
    boundary point f.

    f is expanded once, to precision steps + 1.  The ray descends through
    (n, 0) for n = 0, -1, ..., down = min(0, v(f)), then climbs through
    (n, f mod pi^n) for n = down + 1, down + 2, ..., the classes read off
    the Laurent digits of f; toward infinity it descends forever, so there
    down = -steps.  A negative steps is refused.  Each climbing vertex
    holds every digit below its level, so a dense f gives about steps^2/2
    digits in all: above 2^22 (MAX_RAY_DIGITS) the ray is refused before
    any vertex is built, and so is one of more than 2^19 vertices
    (MAX_RAY_VERTICES) before f is expanded.
    """
    if steps < 0:
        raise DomainError(f"a ray has steps >= 0, got {steps}")
    if steps + 1 > MAX_RAY_VERTICES:
        raise DomainError(f"a ray of {steps + 1} vertices is above the supported maximum 2^19")
    gf = f.gf
    if f.is_infinity():
        digits, down = {}, -steps
    else:
        digits = dict(InfLaurent.from_ratfn(f, prec=steps + 1).terms())
        down = max(min([0, *digits]), -steps)
    top = 2 * down + steps
    # the digit at e sits in the climbing vertices of levels max(e, down) + 1 .. top
    total = sum(max(0, top - max(e, down)) for e in digits)
    if total > MAX_RAY_DIGITS:
        raise DomainError(f"a ray of {total} class digits is above the supported maximum 2^22")
    return [TreeVertex(gf, n, {}) for n in range(0, down - 1, -1)] + [
        TreeVertex(gf, n, digits) for n in range(down + 1, top + 1)
    ]


class NormalBasisData:
    __slots__ = ("theta", "conjugates", "change_matrix", "det_valuation")

    def __init__(self, theta, conjugates, change_matrix, det_valuation):
        self.theta = theta
        self.conjugates = conjugates
        self.change_matrix = change_matrix
        self.det_valuation = det_valuation


# normal_basis builds the (q-1) x (q-1) matrix (zeta^(ij)), and galois_embed
# builds q - 1 matrices of that size.  At q = 128 they take about 0.02 s and
# 0.2 s (31 MB), at q = 257 0.03 s and 1.3 s (154 MB; Python 3.11, 2-vCPU
# x86-64).  Above this q - 1 both are refused before anything is built.
MAX_GALOIS_ORDER = 2**7


def _galois_order(gf) -> int:
    """q - 1, the order of the Galois group of the T-torsion, up to the cap."""
    n = gf.q - 1
    if n > MAX_GALOIS_ORDER:
        raise DomainError(f"Galois group order q - 1 = {n} is above the supported maximum 2^7")
    return n


def normal_basis(gf) -> NormalBasisData:
    """theta = sum of lambda^{-i} for a T-torsion generator lambda = s^{-1};
    the Galois conjugates lambda -> zeta*lambda expand over the power basis
    {s^i} through the Vandermonde matrix (zeta^{ij}).  Its determinant is
    prod_{i<j} (zeta^j - zeta^i), a unit when the nodes zeta^i, i < q - 1,
    are distinct: O(q) steps check that, and no determinant is taken."""
    n = _galois_order(gf)
    zeta = gf.primitive_element()
    nodes = [gf.pow(zeta, i) for i in range(n)]
    if len(set(nodes)) < n:
        raise DomainError("normal basis change matrix is singular")
    matrix = [[gf.pow(x, j) for x in nodes] for j in range(n)]
    conjugates = [VqElem.from_terms(gf, dict(enumerate(row))) for row in matrix]
    return NormalBasisData(conjugates[0], conjugates, matrix, 0)


def galois_embed(gf):
    """Matrices of the cyclic Galois group (order q-1) acting on the normal
    basis: the regular representation, i.e. cyclic permutation matrices."""
    n = _galois_order(gf)
    mats = []
    for k in range(n):
        mats.append([[1 if (i - j) % n == k else 0 for j in range(n)] for i in range(n)])
    return mats
