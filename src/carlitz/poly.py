"""Dense polynomials F_q[T] and reduced rational functions F_q(T).

All arithmetic is exact.  Coefficients are GF element ints; the coefficient
vector is ascending in powers of T with no trailing zeros, so the zero
polynomial has an empty vector and degree -1 by convention.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import struct
from typing import TYPE_CHECKING

from .errors import CarlitzError, DomainError

if TYPE_CHECKING:
    from .gf import GF


# The q-th power is built densely, so its degree q*deg is capped before the
# list is allocated: at the cap the list alone takes 128 MiB of pointers.
MAX_FROBENIUS_DEGREE = 2**24


def check_frobenius_degree(degree: int) -> None:
    """Refuse a dense q-th power image whose degree is above the cap."""
    if degree > MAX_FROBENIUS_DEGREE:
        raise DomainError(
            f"q-th power of degree {degree} is above the supported maximum "
            f"2^{MAX_FROBENIUS_DEGREE.bit_length() - 1}"
        )


def spread(coeffs, q: int) -> list:
    """The digits of c(T^q) from the digits c: c_i moves to i*q, zeros
    between.  A degree above the cap is refused before the list is built."""
    check_frobenius_degree(q * (len(coeffs) - 1))
    out = [0] * (q * len(coeffs) - q + 1) if coeffs else []
    out[::q] = coeffs
    return out


# Poly.__divmod__ divides over F_{p^r}, r > 1, by a divisor of degree
# db >= 2 with the schoolbook loop on the field's tables (GF.long_division)
# while nq db, nq the number of quotient digits, is at most this; above it,
# and over F_p at every size, by the packed loop.  The table loop makes
# nq db table reads.  The packed loop packs both operands and unpacks the
# remainder, and each quotient digit costs it a reduction-table lookup and
# one bigint multiply-add, so it wins once db and nq are both long.  The
# 512 is a crossover timed by hand (README, "Crossovers"): over F_4, F_8,
# F_9 and F_27 the table loop was 1.5-2x faster at 256 at every shape
# timed and about as fast or faster at 512; at 1024 the packed loop was up
# to 1.3x faster at db = 64.  Over F_p a loop mod p won only while
# nq db < 64 and was 2-4x slower from 512 on.  The `symbols` benchmark
# workload takes most of its divisions here: at seed 1, 1565 of its 1614
# divisions over F_9 by a divisor of degree >= 2 have nq db <= 256, from
# Modulus's reciprocals, the gcds of distinct_degrees, and residue_symbol
# with its norms.
DIVISION_CROSSOVER = 512


class Poly:
    __slots__ = ("gf", "coeffs")

    def __init__(self, gf: GF, coeffs):
        self.gf = gf
        coeffs = tuple(coeffs)
        n = len(coeffs)
        while n and coeffs[n - 1] == 0:
            n -= 1
        self.coeffs = coeffs[:n]

    # -- constructors --

    @classmethod
    def zero(cls, gf):
        return cls(gf, ())

    @classmethod
    def one(cls, gf):
        return cls(gf, (1,))

    @classmethod
    def const(cls, gf, c):
        return cls(gf, (c,))

    @classmethod
    def T(cls, gf):
        return cls(gf, (0, 1))

    # -- structure --

    @property
    def degree(self) -> int:
        """Degree, with deg(0) = -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    # -- ring operations --

    def __add__(self, other):
        return Poly(self.gf, self.gf.add_vec(self.coeffs, self._coerce(other).coeffs))

    def __neg__(self):
        return Poly(self.gf, self.gf.neg_vec(self.coeffs))

    def __sub__(self, other):
        return Poly(self.gf, self.gf.sub_vec(self.coeffs, self._coerce(other).coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        gf = self.gf
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(gf)
        k = _slot_bytes(min(len(a), len(b)) * gf.r * (gf.p - 1) ** 2)
        x = _pack(gf, a, k)
        y = x if b is a else _pack(gf, b, k)
        return Poly(gf, _unpack(gf, x * y, len(a) + len(b) - 1, k))

    __rmul__ = __mul__

    def scale(self, c: int):
        return Poly(self.gf, self.gf.scale_vec(c, self.coeffs))

    def __divmod__(self, other):
        """Quotient and remainder, on one of four paths.  A constant
        divisor is one scale by its inverse.  A linear one, b1 (T - c), is
        Horner's rule at its root c (GF.horner): the partial sums times
        1/b1 are the quotient's digits and the last one is the remainder
        a(c).  A longer one over F_{p^r}, r > 1, with nq deg b at most
        DIVISION_CROSSOVER, nq the number of quotient digits, is the
        schoolbook loop on the field's tables (GF.long_division).  Every
        other one runs the packed loop, one bigint multiply-add of the
        packed divisor per quotient digit, in slots sized for
        (p - 1) + min(nq, deg b) r (p - 1)^2."""
        other = self._coerce(other)
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        gf = self.gf
        a, b = self.coeffs, other.coeffs
        db = len(b) - 1
        nq = len(a) - db
        if nq <= 0:
            return Poly.zero(gf), self
        if db == 0:
            return self.scale(gf.inv(b[0])), Poly.zero(gf)
        inv_lc = gf.inv(b[-1])
        if db == 1:
            # b = b1 (T - c) with root c = -b0/b1: Horner's rule at c gives
            # a // (T - c) above the remainder a(c)
            s = gf.horner(a, gf.neg(gf.mul(b[0], inv_lc)))
            return Poly(gf, gf.scale_vec(inv_lc, s[1:])), Poly(gf, s[:1])
        if gf.r > 1 and nq * db <= DIVISION_CROSSOVER:
            quo, rem = gf.long_division(a, b)
            return Poly(gf, quo), Poly(gf, rem)
        # The remainder is packed leading coefficient first, so the digit to
        # clear is always group 0: quotient digit f adds (-f) * (divisor
        # without its leading term) at groups 1..db, and group 0 is dropped.
        # A group takes at most min(nq, db) such additions.  Over F_p a
        # group is one slot holding the coefficient itself.  Over F_{p^r}
        # digit c is read from group 0's 2r-1 slots by shift and mask and the
        # field's reduction table, and -f comes packed from a table of the q
        # elements, so the loop neither unpacks nor packs.
        p, r = gf.p, gf.r
        k = _slot_bytes(p - 1 + min(nq, db) * r * (p - 1) ** 2)
        width = (2 * r - 1) * 8 * k
        mask = (1 << width) - 1
        rem = _pack(gf, a[::-1], k)
        low = _pack(gf, b[:-1][::-1], k) << width
        if r > 1:
            _, _, _, reduce, groups = gf.kernel_tables.get(k) or _slot_tables(gf, k)
            slot, shifts = (1 << 8 * k) - 1, range(0, width, 8 * k)
        quo = [0] * nq
        for i in range(nq - 1, -1, -1):
            top = rem & mask
            c = top % p if r == 1 else reduce[tuple([(top >> s & slot) % p for s in shifts])]
            if c:
                f = quo[i] = gf.mul(c, inv_lc)
                # over F_p, -f is p - f
                rem += (p - f if r == 1 else groups[gf.neg(f)]) * low
            rem >>= width
        return Poly(gf, quo), Poly(gf, _unpack(gf, rem, db, k)[::-1])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative polynomial power")
        return square_multiply(self, e) if e else Poly.one(self.gf)

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.gf.inv(self.lc))

    @staticmethod
    def from_poly(f):
        """Embed f in F_q[T]: f itself (every ring here has from_poly)."""
        return f

    def frobenius(self):
        """The q-th power: coefficients fixed, T-exponents multiplied by q."""
        return Poly(self.gf, spread(self.coeffs, self.gf.q))

    def rho_T(self, a: int = 0, w=None):
        """The Carlitz step u^q + T*u, plus a*w for a in F_q (Horner's term
        in carlitz_act)."""
        v = self.frobenius() + self.shift(1)
        return v + w.scale(a) if a else v

    def derivative(self):
        """The formal derivative: i*c_i at T^(i-1), with i read mod p."""
        gf = self.gf
        return Poly(gf, [gf.mul(i % gf.p, c) for i, c in enumerate(self.coeffs[1:], start=1)])

    def shift(self, k: int):
        """Multiply by T^k, k >= 0."""
        if k < 0:
            raise DomainError(f"negative shift T^{k}")
        if self.is_zero():
            return self
        return Poly(self.gf, (0,) * k + self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented  # a RatFn compares itself with a Poly
        return self.gf == other.gf and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.gf, self.coeffs))

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.gf is not self.gf and other.gf != self.gf:
                raise DomainError("mixed coefficient fields")
            return other
        raise TypeError(f"cannot combine Poly with {type(other).__name__}")

    # -- text form (see "One text grammar" in the README) --

    def __str__(self):
        gf = self.gf
        # over F_p an element's text is the int itself
        fmt = str if gf.r == 1 else gf.fmt_elem
        parts = [format_term(fmt(c), "T", i) for i, c in enumerate(self.coeffs) if c]
        return "+".join(reversed(parts)) or "0"

    def __repr__(self):
        return f"Poly({self})"


# -- packed kernel --
#
# Poly multiplication and division run on Python ints (Kronecker
# substitution).  Coefficient i of a polynomial over F_{p^r} becomes group i
# of one int: 2r-1 slots of k bytes each, the r coordinates of the
# coefficient in the low slots and zeros above.  Multiplying two packed ints
# adds, in group i+j, the product of the coordinate polynomials of a_i and
# b_j: a polynomial in w of degree <= 2r-2, unreduced, which fills the group.
# Callers take k from the largest sum a slot can reach, so slots never carry
# into their neighbours: min(len a, len b) r (p - 1)^2 for a product, and
# k is 1, 2, 4, 8 or 16 bytes.  Unpacking reads every slot mod p, by
# bytes.translate while k (p - 1) < 256; over F_p that is the coefficient,
# over F_{p^r} the group's 2r-1 digits are the key of the field's reduction
# table.  _slot_tables builds each field's tables, one set per slot width.

# struct codes of 2-, 4- and 8-byte slots, for p > 256 and where byte lanes
# could carry; _pack packs wider slots through int.to_bytes, _unpack reads
# them as pairs of 8-byte words
_FORMATS = {2: "H", 4: "I", 8: "Q"}


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for slot values up to bound: the least power of two."""
    k = 1
    while bound >> (8 * k):
        k *= 2
    return k


def _slot_tables(gf: GF, k: int):
    """The packed kernel's tables for k-byte slots over gf, (residues,
    lanes, digits, reduce, groups), built on first use into
    gf.kernel_tables (k -> tables), which only this module reads.  The
    tables of every k share residues, digits and reduce.

    - residues maps byte i to i mod p, a bytes.translate table.
    - lanes read k-byte slots mod p while k (p - 1) < 256, else None:
      table j maps byte b to b 256^j mod p, the residue of byte j of a slot.
    - digits, over F_{p^r} (else None): digits[a] is the bytes of the r
      coordinates of a followed by r-1 zeros, the 2r-1 slots of one packed
      coefficient.
    - reduce, over F_{p^r} (else None), maps the tuple of 2r-1 coefficients
      of a polynomial in w of degree <= 2r-2 to the element it reduces to;
      p^(2r-1) entries.  The digits c split as low + w^r * high with
      low = c[:r] and high = c[r:], so each entry is one product and one
      sum in F_q.
    - groups, over F_{p^r} (else None): groups[a] is _pack of [a], the int
      whose slot j holds coordinate j of a.
    """
    tables, p, r = gf.kernel_tables, gf.p, gf.r
    if tables:
        residues, _, digits, reduce, _ = next(iter(tables.values()))
    else:
        residues, digits, reduce = bytes(i % p for i in range(256)), None, None
        if r > 1:
            coords = [gf.coords(a) for a in range(gf.q)]
            digits = [bytes(c + (0,) * (r - 1)) for c in coords]
            w_r, reduce = gf.mul(p ** (r - 1), p), {}
            for high in range(p ** (r - 1)):
                top, key = gf.mul(w_r, high), coords[high][: r - 1]
                for low in range(gf.q):
                    reduce[coords[low] + key] = gf.add(low, top)
    lanes = [bytes(b * 256**j % p for b in range(256)) for j in range(k)] if k * (p - 1) < 256 else None
    groups = digits and [sum(d << 8 * k * j for j, d in enumerate(g)) for g in digits]
    tables[k] = residues, lanes, digits, reduce, groups
    return tables[k]


def _pack(gf: GF, coeffs, k: int) -> int:
    """coeffs in one int, one group of k-byte slots per coefficient."""
    if gf.r == 1:
        slots = coeffs
    else:
        digits = (gf.kernel_tables.get(k) or _slot_tables(gf, k))[2]
        slots = b"".join([digits[c] for c in coeffs])
    if k == 1:
        data = bytes(slots)
    elif gf.p <= 256:
        # every slot value fits its low byte: one strided copy widens them
        data = bytearray(len(slots) * k)
        data[::k] = bytes(slots)
    elif k in _FORMATS:
        data = struct.pack(f"<{len(slots)}{_FORMATS[k]}", *slots)
    else:
        data = b"".join([s.to_bytes(k, "little") for s in slots])
    return int.from_bytes(data, "little")


def _unpack(gf: GF, x: int, n: int, k: int):
    """The first n coefficients packed in x, reduced, as a sequence of ints."""
    p, g = gf.p, 2 * gf.r - 1
    residues, lanes, _, reduce, _ = gf.kernel_tables.get(k) or _slot_tables(gf, k)
    data = x.to_bytes(n * g * k, "little")
    if k == 1:
        digits = data.translate(residues)
    elif k * (p - 1) < 256:
        # byte j of every slot read mod p by one translate, the k residues
        # summed as ints (below 256, so no carry) and read mod p once more
        total = sum([int.from_bytes(data[j::k].translate(lanes[j]), "little") for j in range(k)])
        digits = total.to_bytes(n * g, "little").translate(residues)
    else:
        if k in _FORMATS:
            slots = struct.unpack(f"<{n * g}{_FORMATS[k]}", data)
        else:
            # k = 16, the widest slot: with p <= MAX_PRIME = 2^40 and fewer
            # than 2^48 coefficients, slot values stay below 2^128
            words = struct.unpack(f"<{2 * n * g}Q", data)
            slots = [lo | hi << 64 for lo, hi in zip(words[::2], words[1::2])]
        digits = [s % p for s in slots]
    if g == 1:
        return digits
    # zip of g references to one iterator yields the digits group by group
    return [reduce[w] for w in zip(*[iter(digits)] * g)]


# -- the text grammar (README, "One text grammar") --


def format_term(c: str, var: str, k: int) -> str:
    """The term c*var^k from the text c of its coefficient: var^k when c is
    "1", var when k = 1, and c alone when k = 0."""
    if k == 0:
        return c
    power = var if k == 1 else f"{var}^{k}"
    return power if c == "1" else f"{c}*{power}"


def _bracket(text: str, coeffs) -> str:
    """The text of a sum with coefficients coeffs, in parentheses when more
    than one of them is nonzero: a sum printed as one factor."""
    return f"({text})" if sum(1 for c in coeffs if c) > 1 else text


def _dense(terms: dict, zero=0, lo=0) -> list:
    """terms (exponent -> coefficient) as the list of the coefficients at
    lo, lo + 1, ..., max(terms), zero where terms has none; [] for {}."""
    vec = [zero] * (max(terms, default=lo - 1) - lo + 1)
    for k, c in terms.items():
        vec[k - lo] = c
    return vec


def parse_int(text: str, signed: bool = False) -> int:
    """The integer in ASCII digits, after a minus when ``signed``; ValueError
    otherwise (int() also reads other digits, underscores, signs, spaces)."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def parse_term(term: str, var: str, coeff):
    """(c, k) from one term c*var^k, c*var, var^k, var or c, as written by
    format_term; ``coeff`` reads the coefficient text.  k may be negative.
    A coefficient or exponent that is no integer is a syntax error."""
    try:
        if var not in term:
            return coeff(term), 0
        cpart, _, power = term.partition(var)
        c = coeff(cpart.rstrip("*") or "1")
        if power == "":
            return c, 1
        if power.startswith("^"):
            return c, parse_int(power[1:], signed=True)
    except ValueError:
        pass
    raise DomainError(f"syntax error in term {term!r}")


def split_terms(s: str):
    """Split on + at paren depth 0 (coefficients over F_{p^r} carry parens)."""
    terms, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    return terms


def parse_poly(s: str, gf: GF) -> Poly:
    """Parse a polynomial in T: terms joined by +, each c, c*T^k, T^k or T
    (README, "One text grammar")."""
    s = "".join(s.split())
    if not s:
        raise DomainError("empty polynomial string")
    coeffs = {}
    pos = 0
    for term in split_terms(s):
        if not term:
            raise DomainError(f"syntax error near position {pos} in {s!r}")
        c, k = parse_term(term, "T", gf.parse_elem)
        if k < 0:
            raise DomainError("negative exponent in polynomial")
        coeffs[k] = gf.add(coeffs.get(k, 0), c)
        pos += len(term) + 1
    return Poly(gf, _dense(coeffs))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; defined as long as not both arguments are zero."""
    if a.is_zero() and b.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_ext_gcd(a: Poly, b: Poly):
    """Extended gcd: returns (g, x, y) with g = a*x + b*y, g monic."""
    gf = a.gf
    r0, r1 = a, b
    x0, x1 = Poly.one(gf), Poly.zero(gf)
    y0, y1 = Poly.zero(gf), Poly.one(gf)
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if r0.is_zero():
        raise DomainError("gcd(0, 0) is undefined")
    c = gf.inv(r0.lc)
    return r0.scale(c), x0.scale(c), y0.scale(c)


def pow_mod(a: Poly, e: int, modulus: Poly) -> Poly:
    """a^e mod modulus by square-and-multiply."""
    if e < 0:
        raise DomainError("negative exponent in pow_mod")
    if e == 0:
        return Poly.one(a.gf)
    return square_multiply(a % modulus, e, lambda x, y: (x * y) % modulus)


def square_multiply(x, e: int, mul=operator.mul):
    """x^e for e >= 1, from the top bit of e down: no product by one and no
    squaring past the top bit."""
    res = x
    for bit in bin(e)[3:]:
        res = mul(res, res)
        if bit == "1":
            res = mul(res, x)
    return res


def inv_mod(a: Poly, modulus: Poly) -> Poly:
    """Inverse of a modulo modulus; a must be a unit in the quotient."""
    a = a % modulus
    if a.degree == 0:
        return Poly.const(a.gf, a.gf.inv(a.lc))
    g, x, _ = poly_ext_gcd(a, modulus)
    if g.degree != 0:
        raise DomainError("element is not invertible modulo the given modulus")
    return x % modulus


# Modulus.frobenius takes h^q mod f as the spread h(T^q) and one reduce while
# the spread packs at most this many slots, (2r - 1) q (deg f - 1); above it,
# square-and-multiply through reduce.  That branch exists for large q, where
# the spread cannot be built: over GF(2^32+15) the spread of T has degree q,
# above the 2^24 cap on q-th powers.  The 400 is a crossover timed by hand on
# the steps T^(q^k) mod f, k = 1..n, for random monic f of degree n, spread
# time over square-and-multiply time (Python 3.11, 2-vCPU x86-64): 0.64 at
# (q, n) = (3, 128), 0.83 at (257, 2), 1.29 at (257, 3), 0.89 at (9, 12),
# 1.23 at (9, 16), 0.86 at (16, 4), 1.50 at (16, 6), 5.9 at (256, 2).
# The `symbols` benchmark workload runs both sides: at seed 1 its batch takes
# 196 steps by square-and-multiply (q = 9, in ddf: deg f = 80 for a degree-2
# A's cyclotomic polynomial at a degree-1 prime, and the norms of degree 16
# and 24 at primes of degree 2 and 3) and 273 by the spread, most of them the
# conjugates that form those norms.  `quotient` takes only the spread, and
# `infinity` and `geometry` neither.
SPREAD_CROSSOVER = 400


def reciprocal(f: Poly, m: int) -> tuple:
    """The m digits of x^(deg f - 1 + m) // f, for deg f - 1 + m >= 0, by one
    packed division.  Read backwards they are the first m digits of
    1/rev(f), rev(f) = x^(deg f) f(1/x), a power series in x (von zur
    Gathen-Gerhard, Modern Computer Algebra, 9.1)."""
    return (Poly.one(f.gf).shift(f.degree - 1 + m) // f).coeffs


class Modulus:
    """Reduction mod a fixed nonzero f by two packed products (Barrett;
    von zur Gathen-Gerhard, Modern Computer Algebra, 9.1).

    For a of degree n - 1 + m, n = deg f, the quotient a // f has m digits.
    Reversed, they are the first m digits of rev(a) / rev(f), so they are
    rev(a)'s first m digits times 1/rev(f) mod x^m.  Read forwards, with R
    the first L >= m digits of 1/rev(f) backwards, they are digits
    L-1 .. L+m-2 of a's top m digits times R, and the product has no digit
    above them: the top digits are one shift of packed a, the quotient one
    shift of the product.  The remainder is then a - quotient * f mod x^n,
    which only needs f's low n digits.  R is reciprocal(f, L), stored with
    the modulus, built again only for a longer quotient and cut by one shift
    for a shorter one.  The first rho_T within the cap on q-th powers fixes
    a plan of slot width, packed operands and R for the longest quotient a
    step can have, so later steps size, fetch and shift nothing.
    """

    __slots__ = ("f", "_recip", "_packed", "_plan")

    def __init__(self, f: Poly):
        if f.is_zero():
            raise DomainError("polynomial division by zero")
        self.f = f
        self._recip = ()
        # slot bytes k -> (packed -f_low, packed R)
        self._packed = {}
        self._plan = None

    def _operands(self, m: int, k: int):
        """The Barrett pass's plan for quotients of up to m digits in k-byte
        slots: (k, bits per group, mask of n groups, packed -f_low, packed R
        cut to its first m digits, the shift that reads the quotient)."""
        gf, n = self.f.gf, self.f.degree
        if m > len(self._recip):
            self._recip = reciprocal(self.f, m)
            self._packed = {}
        if k not in self._packed:
            self._packed[k] = (_pack(gf, gf.neg_vec(self.f.coeffs[:-1]), k), _pack(gf, self._recip, k))
        neg_low, recip = self._packed[k]
        bits = (2 * gf.r - 1) * 8 * k
        # a product with all L digits of R would cost about L/m times as much
        return k, bits, (1 << n * bits) - 1, neg_low, recip >> (len(self._recip) - m) * bits, (m - 1) * bits

    def _barrett(self, x: int, m: int, plan) -> Poly:
        """The remainder mod f of the polynomial packed in x, with m >= 0
        digits above T^(n-1), on a plan from _operands for at least m: the
        one Barrett pass of reduce and rho_T."""
        k, bits, mask, neg_low, recip, read = plan
        gf, n = self.f.gf, self.f.degree
        if m:
            quo = _unpack(gf, (x >> n * bits) * recip >> read, m, k)
            x += _pack(gf, quo, k) * neg_low
        return Poly(gf, _unpack(gf, x & mask, n, k))

    def reduce(self, a: Poly) -> Poly:
        """a mod f."""
        a = self.f._coerce(a)
        gf, n = a.gf, self.f.degree
        if len(a.coeffs) <= n:
            return a
        if n == 0:
            return Poly.zero(gf)
        m, e = len(a.coeffs) - n, gf.r * (gf.p - 1) ** 2
        plan = self._operands(m, _slot_bytes(max(m * e, gf.p - 1 + min(m, n) * e)))
        return self._barrett(_pack(gf, a.coeffs, plan[0]), m, plan)

    def rho_T(self, h: Poly, a: int = 0, w: Poly = None) -> Poly:
        """(h^q + T*h + a*w) mod f for h and w reduced mod f, deg f >= 1, and
        a in F_q.  While a step's spread h(T^q) stays within the cap on q-th
        powers, q (deg f - 1) <= MAX_FROBENIUS_DEGREE, this is one Barrett
        pass: the spread, T*h and a*w are summed packed, with T*h's digit at
        T^n added to the spread's (f need not be monic, so that digit cannot
        stand in for -f_low).  Past the cap h^q is frobenius(h), to which
        the reduced T*h and a*w are added, and no plan is sized."""
        gf, n = self.f.gf, self.f.degree
        p, q, r = gf.p, gf.q, gf.r
        if q * (n - 1) > MAX_FROBENIUS_DEGREE:
            v = self.frobenius(h) + self.reduce(h.shift(1))
            return v + w.scale(a) if a else v
        s, t = spread(h.coeffs, q), h.coeffs
        if len(t) == n:
            # T*h's digit at T^n joins the spread's, so the top stays reduced
            s += [0] * (n + 1 - len(s))
            s[n] = gf.add(s[n], t[-1])
            t = t[:-1]
        if self._plan is None:
            # every step's quotient has at most M digits: h^q reaches
            # T^(q(n-1)), or T*h reaches T^1 when n = 1
            M, e = max((q - 1) * (n - 1), 1), r * (p - 1) ** 2
            self._plan = self._operands(M, _slot_bytes(max(M * e, 2 * (p - 1) + e + min(M, n) * e)))
        k, bits = self._plan[:2]
        x = _pack(gf, s, k) + (_pack(gf, t, k) << bits)
        if a:
            scale = a if r == 1 else (gf.kernel_tables.get(k) or _slot_tables(gf, k))[4][a]
            x += scale * _pack(gf, w.coeffs, k)
        return self._barrett(x, max(len(s) - n, 0), self._plan)

    def frobenius(self, h: Poly) -> Poly:
        """h^q mod f for h reduced mod f."""
        gf, n = self.f.gf, self.f.degree
        if (2 * gf.r - 1) * gf.q * (n - 1) <= SPREAD_CROSSOVER:
            return self.reduce(h.frobenius())
        return square_multiply(h, gf.q, lambda x, y: self.reduce(x * y))


# A bounded memo: the CLI factors a prime --q, and GF then checks the same
# p, which costs a trial division up to sqrt(p), 0.13 s near 2^40.
@functools.lru_cache(maxsize=512)
def prime_divisors(n: int) -> tuple:
    """The primes dividing n >= 1, ascending, by trial division up to the
    square root of what is left.  The one integer trial division: the
    primes of n for order_dividing, the primality of p in GF, the prime
    power --q and the divisors of q - 1 in the reciprocity sweep."""
    primes, d = [], 2
    while d * d <= n:
        if n % d == 0:
            primes.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


def order_dividing(n: int, is_one) -> int:
    """The order of a group element x with x^n = 1, from is_one(e), which
    tells whether x^e = 1: n divided by each prime l of n while
    x^(n/l) = 1 (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 1.4.3)."""
    for l in prime_divisors(n):
        while n % l == 0 and is_one(n // l):
            n //= l
    return n


def distinct_degrees(f: Poly):
    """The distinct-degree factorization of f over F_q, deg f >= 1: yields
    (e, number of irreducible factors of degree e), e ascending, as soon as
    degree e is split off (von zur Gathen-Gerhard, Modern Computer Algebra,
    14.2).  The counts hold for squarefree f; for any reducible f the first
    e is its least factor degree, at most deg f / 2, so an irreducible f of
    degree n takes floor(n/2) steps x^(q^e) mod f.

    The degrees go in blocks of ceil(sqrt(deg f)) (von zur Gathen-Shoup,
    Comput. Complexity 2, 1992): the block's x^(q^e) - x are multiplied
    together mod the unsplit part, and one gcd with their product holds the
    factors of every degree in the block.  Only a nontrivial block gcd is
    split, degree by degree in ascending order, so a factor of degree e is
    gone before the gcd with x^(q^(2e)) - x is taken.  The steps reduce by
    a Modulus of the unsplit part, built again each time it shrinks; under
    residues.ddf that part is the norm of f mod P, of degree up to
    deg P times deg f."""
    gf = f.gf
    x = Poly.T(gf)
    block = math.isqrt(f.degree - 1) + 1
    h, d, rest, mod = x, 0, f, Modulus(f)
    while rest.degree >= 2 * (d + 1):
        # hs[i] = x^(q^e) mod rest for e = d + 1 + i
        hs = []
        while len(hs) < block and rest.degree >= 2 * (d + 1):
            d += 1
            h = mod.frobenius(h)
            prod = mod.reduce(prod * (h - x)) if hs else h - x
            hs.append(h)
        g = poly_gcd(rest, prod)
        if g.degree == 0:
            continue
        for e, he in enumerate(hs, start=d + 1 - len(hs)):
            ge = poly_gcd(g, he - x)
            if ge.degree > 0:
                yield e, ge.degree // e
                g = g // ge
                rest, r = divmod(rest, ge)
                if not r.is_zero():
                    raise CarlitzError("ddf: a gcd factor does not divide the polynomial")
        h, mod = h % rest, Modulus(rest)
    if rest.degree > 0:
        yield rest.degree, 1


def is_irreducible(f: Poly) -> bool:
    """Whether f is irreducible over F_q: the first pair of
    distinct_degrees(f) is (deg f, 1)."""
    n = f.degree
    if n < 1:
        raise DomainError("irreducibility is defined for degree >= 1")
    return n == 1 or next(distinct_degrees(f)) == (n, 1)


def all_polys(gf: GF, n: int, monic: bool = False):
    """The q^n polynomials of degree < n, or with monic the q^n monic ones of
    degree n, in base-q order: the constant digit runs fastest.  The one
    enumeration: the monic irreducibles, the residues mod P, the Eisenstein
    lattice coefficients and GF's default modulus all read it."""
    top = (1,) if monic else ()
    for digits in itertools.product(range(gf.q), repeat=n):
        yield Poly(gf, digits[::-1] + top)


def monic_irreducibles(gf: GF, max_deg: int):
    """All monic irreducibles of degree 1..max_deg, by increasing degree."""
    return [
        f for d in range(1, max_deg + 1) for f in all_polys(gf, d, monic=True) if is_irreducible(f)
    ]


def _squarefree_parts(m: Poly):
    """Pairs (g, i) of monic squarefree, pairwise coprime g with the monic m
    the product of the g^i (von zur Gathen-Gerhard, Modern Computer Algebra,
    14.6).  With c = gcd(m, m'), w = m / c holds the factors of multiplicity
    prime to p, and step i splits off those of multiplicity i.  Once w is 1,
    c is a p-th power; its p-th root, the digits at exponents divisible by p
    each raised to q/p, goes round again.  A squarefree m takes one gcd."""
    gf = m.gf
    p, k = gf.p, 1
    while m.degree > 0:
        c = poly_gcd(m, m.derivative())
        w, i = m // c, 1
        while w.degree > 0 and c.degree > 0:
            y = poly_gcd(w, c)
            if y.degree < w.degree:
                yield w // y, i * k
            w, c, i = y, c // y, i + 1
        if w.degree > 0:
            yield w, i * k
        m = Poly(gf, [gf.pow(a, gf.q // p) for a in c.coeffs[::p]])
        k *= p


def euler_phi(m: Poly) -> int:
    """Order of the unit group (F_q[T]/m)^*: ((q^e - 1) q^(e(i-1)))^n over
    the pairs (e, n) of distinct_degrees on each squarefree part g^i of m."""
    if m.is_zero():
        raise DomainError("euler_phi(0) is undefined")
    q = m.gf.q
    parts = _squarefree_parts(m.monic())
    return math.prod(
        ((q**e - 1) * q ** (e * (i - 1))) ** n for g, i in parts for e, n in distinct_degrees(g)
    )


class RatFn:
    """A point of the projective line over F_q(T): a reduced fraction num/den
    with den monic and gcd(num, den) = 1, or the point at infinity 1/0.

    Arithmetic needs no special cases at infinity: the usual formulas give
    inf + x = inf and x / inf = 0, and the undefined inf - inf and 0 * inf
    reach 0/0, which raises.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        gf = num.gf
        if den.is_zero():
            if num.is_zero():
                raise DomainError("0/0 is not a point of the projective line")
            self.num, self.den = Poly.one(gf), den
            return
        if not num.is_zero():
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
        else:
            den = Poly.one(gf)
        c = gf.inv(den.lc)
        self.num = num.scale(c)
        self.den = den.scale(c)

    @classmethod
    def reduced(cls, num: Poly, den: Poly):
        """num/den for a pair the caller knows to be coprime: no gcd is
        taken, but den is still made monic, and 1/0 and 0/d come out as from
        RatFn(num, den)."""
        if num.is_zero() or den.is_zero():
            return cls(num, den)  # these take no gcd
        out = cls.__new__(cls)
        c = num.gf.inv(den.lc)
        out.num, out.den = num.scale(c), den.scale(c)
        return out

    @classmethod
    def from_poly(cls, p: Poly):
        return cls(p, Poly.one(p.gf))

    @classmethod
    def zero(cls, gf):
        return cls(Poly.zero(gf), Poly.one(gf))

    @classmethod
    def infinity(cls, gf):
        return cls(Poly.one(gf), Poly.zero(gf))

    @property
    def gf(self):
        return self.num.gf

    def is_zero(self):
        return self.num.is_zero()

    def is_infinity(self):
        return self.den.is_zero()

    def __add__(self, other):
        other = self._coerce(other)
        return RatFn(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        other = self._coerce(other)
        return RatFn(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFn(-self.num, self.den)

    def __mul__(self, other):
        other = self._coerce(other)
        return RatFn(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero():
            raise DomainError("division by zero rational function")
        return RatFn(self.num * other.den, self.den * other.num)

    def __pow__(self, e: int):
        if e < 0:
            if self.is_zero():
                raise DomainError("division by zero rational function")
            return RatFn(self.den**-e, self.num**-e)
        return RatFn(self.num**e, self.den**e)

    def valuation_inf(self):
        """Valuation at the infinite place, v = deg(den) - deg(num)."""
        if self.is_infinity():
            raise DomainError("the point at infinity has no valuation at infinity")
        if self.is_zero():
            return None
        return self.den.degree - self.num.degree

    def __eq__(self, other):
        if isinstance(other, Poly):
            other = RatFn.from_poly(other)
        return isinstance(other, RatFn) and self.num == other.num and self.den == other.den

    def __hash__(self):
        # a fraction over 1 equals its numerator, so it hashes as that Poly
        return hash(self.num) if self.den.degree == 0 else hash((self.num, self.den))

    def _coerce(self, other):
        if isinstance(other, Poly):
            return RatFn.from_poly(other)
        if isinstance(other, RatFn):
            return other
        raise TypeError(f"cannot combine RatFn with {type(other).__name__}")

    def __str__(self):
        """inf, a polynomial, or num/den with a side in parens when it has
        more than one nonzero T-term: 1/T, (T+1)/T^2, (w+1)/T over F_4."""
        if self.is_infinity():
            return "inf"
        if self.den == Poly.one(self.gf):
            return str(self.num)
        return f"{_bracket(str(self.num), self.num.coeffs)}/{_bracket(str(self.den), self.den.coeffs)}"

    def __repr__(self):
        return f"RatFn({self})"
