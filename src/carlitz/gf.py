"""The coefficient field F_q, q = p^r.

Elements are plain ints in [0, q).  The base-p digits of an element are its
coordinates with respect to the power basis 1, w, ..., w^(r-1), where w is a
root of the defining modulus.  For r = 1 the element *is* its residue mod p.

The modulus, when not supplied, is the lexicographically least monic
irreducible of degree r over F_p (least in the base-p integer encoding of the
non-leading coefficients), so results are reproducible without any table
dependency.  Products of coordinate polynomials and the irreducibility test
are those of ``poly`` over GF(p).
"""

from __future__ import annotations

from .errors import DomainError
from .poly import Poly, all_polys, format_term, is_irreducible, order_dividing, parse_int, parse_term
from .poly import prime_divisors, square_multiply

# The largest fields GF builds.  A prime p is checked by trial division up to
# sqrt(p), about 0.1 s at the cap; an extension field of order q builds, on
# first use, addition and multiplication tables of q^2 entries (q(q+1)/2
# products in F_p[w] mod the modulus) and a reduction table of p^(2r-1)
# entries read from those tables, about half a second at the cap.
MAX_PRIME = 2**40
MAX_EXTENSION_ORDER = 2**8


class GF:
    """Context object for arithmetic in F_q = F_{p^r}."""

    def __init__(self, p: int, r: int = 1, modulus=None):
        if p > MAX_PRIME:
            raise DomainError(f"prime {p} is above the supported maximum 2^40")
        # r > 8 is above the cap for every p; testing it first keeps p**r small
        if r > 1 and (r > 8 or p**r > MAX_EXTENSION_ORDER):
            raise DomainError(f"extension field order {p}^{r} is above the supported maximum 2^8")
        if prime_divisors(p) != (p,):
            raise DomainError(f"{p} is not prime")
        if r < 1:
            raise DomainError("extension degree must be positive")
        self.p = p
        self.r = r
        self.q = p**r
        if r == 1:
            if modulus is not None:
                raise DomainError("prime field takes no modulus")
            self.modulus = None
        else:
            prime = GF(p)
            if modulus is None:
                modulus = next(f for f in all_polys(prime, r, monic=True) if is_irreducible(f)).coeffs
            else:
                modulus = tuple(int(c) % p for c in modulus)
                if len(modulus) != r + 1 or modulus[-1] != 1:
                    raise DomainError("modulus must be monic of degree r")
                if not is_irreducible(Poly(prime, modulus)):
                    raise DomainError("supplied modulus is reducible")
            self.modulus = modulus
        # i mod p for every byte i, a bytes.translate table for the packed kernel
        self.byte_residues = bytes(i % p for i in range(256))
        self._add_table = None
        self._neg_table = None
        self._mul_table = None
        self._inv_table = None
        self._slot_tables = None
        self._packed_groups = {}
        self._byte_lanes = {}

    # -- element arithmetic (elements are ints in [0, q)) --

    def coords(self, a: int):
        """Coordinates of a w.r.t. the power basis of the modulus."""
        out = []
        for _ in range(self.r):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def _from_coords(self, coords):
        v = 0
        for c in reversed(coords):
            v = v * self.p + (c % self.p)
        return v

    def add(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a + b) % self.p
        if self._add_table is None:
            self._build_tables()
        return self._add_table[a][b]

    def neg(self, a: int) -> int:
        if self.r == 1:
            return (-a) % self.p
        if self._neg_table is None:
            self._build_tables()
        return self._neg_table[a]

    # -- coefficient vectors, no field call per digit; a sum or difference
    # runs in place over the shorter operand and copies the longer one's tail --

    def add_vec(self, a, b) -> list:
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        if self.r == 1:
            p = self.p
            for i, y in enumerate(b):
                out[i] = (out[i] + y) % p
        else:
            add = self._add_table or self._build_tables()[0]
            for i, y in enumerate(b):
                out[i] = add[out[i]][y]
        return out

    def sub_vec(self, a, b) -> list:
        n = min(len(a), len(b))
        out = list(a) if n == len(b) else list(a) + self.neg_vec(b[n:])
        if self.r == 1:
            p = self.p
            for i, y in enumerate(b[:n]):
                out[i] = (out[i] - y) % p
        else:
            add, neg = self._add_table or self._build_tables()[0], self._neg_table
            for i, y in enumerate(b[:n]):
                out[i] = add[out[i]][neg[y]]
        return out

    def neg_vec(self, a) -> list:
        if self.r == 1:
            p = self.p
            return [p - x if x else 0 for x in a]
        neg = self._neg_table or self._build_tables()[1]
        return [neg[x] for x in a]

    def scale_vec(self, c: int, a) -> list:
        if self.r == 1:
            p = self.p
            return [c * x % p for x in a]
        row = (self._mul_table or self._build_tables()[2])[c]
        return [row[x] for x in a]

    def _build_tables(self):
        q, p = self.q, self.p
        coords = [self.coords(a) for a in range(q)]
        self._add_table = [
            [self._from_coords([x + y for x, y in zip(ca, cb)]) for cb in coords] for ca in coords
        ]
        self._neg_table = [self._from_coords([p - c for c in ca]) for ca in coords]
        prime = GF(p)
        m = Poly(prime, self.modulus)
        polys = [Poly(prime, c) for c in coords]
        table = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(a, q):
                table[a][b] = table[b][a] = self._from_coords(((polys[a] * polys[b]) % m).coeffs)
        self._mul_table = table
        # each row but 0's is a permutation of F_q, so it holds 1 exactly once
        self._inv_table = [0] + [row.index(1) for row in table[1:]]
        return self._add_table, self._neg_table, self._mul_table

    def slot_tables(self):
        """Tables of the packed polynomial kernel (``poly``), built on first use.

        ``digits[a]`` is the bytes of the r coordinates of a followed by r-1
        zeros: the 2r-1 slots of one packed coefficient.  ``reduce`` maps the
        tuple of 2r-1 coefficients of a polynomial in w of degree <= 2r-2 to
        the element it reduces to; p^(2r-1) entries.  The digits c split as
        low + w^r * high with low = c[:r] and high = c[r:], so each entry is
        one product and one sum in F_q.  Only extension fields use them.
        """
        if self._slot_tables is None:
            r = self.r
            coords = [self.coords(a) for a in range(self.q)]
            digits = [bytes(c + (0,) * (r - 1)) for c in coords]
            w_r = self.mul(self.p ** (r - 1), self.p)
            reduce = {}
            for high in range(self.p ** (r - 1)):
                top, key = self.mul(w_r, high), coords[high][: r - 1]
                for low in range(self.q):
                    reduce[coords[low] + key] = self.add(low, top)
            self._slot_tables = digits, reduce
        return self._slot_tables

    def packed_groups(self, k: int):
        """Every element as one packed group of k-byte slots (see
        ``slot_tables``): ``packed_groups(k)[a]`` is the int whose slot j
        holds coordinate j of a.  Built on first use for each k."""
        groups = self._packed_groups.get(k)
        if groups is None:
            shift = 8 * k
            groups = [sum(c << (shift * j) for j, c in enumerate(self.coords(a))) for a in range(self.q)]
            self._packed_groups[k] = groups
        return groups

    def byte_lanes(self, k: int):
        """The bytes.translate tables that read k-byte slots mod p (see
        ``poly._unpack``): table j maps byte b to b 256^j mod p, the residue
        of byte j of a slot.  Built on first use for each k."""
        lanes = self._byte_lanes.get(k)
        if lanes is None:
            lanes = self._byte_lanes[k] = [bytes(b * 256**j % self.p for b in range(256)) for j in range(k)]
        return lanes

    def mul(self, a: int, b: int) -> int:
        if self.r == 1:
            return (a * b) % self.p
        if self._mul_table is None:
            self._build_tables()
        return self._mul_table[a][b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("division by zero in F_q")
        if self.r == 1:
            return pow(a, self.p - 2, self.p)
        if self._inv_table is None:
            self._build_tables()
        return self._inv_table[a]

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.r == 1:
            return pow(a, e, self.p)
        return square_multiply(a, e, self.mul) if e else 1

    def primitive_element(self) -> int:
        """A generator of the multiplicative group F_q^*."""
        n = self.q - 1
        for g in range(1, self.q):
            if self.order(g) == n:
                return g
        raise AssertionError("no primitive element")

    def order(self, a: int) -> int:
        """Multiplicative order of a nonzero element, a divisor of q - 1."""
        if a == 0:
            raise DomainError("0 has no multiplicative order")
        return order_dividing(self.q - 1, lambda e: self.pow(a, e) == 1)

    # -- text form (README, "One text grammar") --

    def fmt_elem(self, a: int) -> str:
        """a as terms c*w^i, highest i first, in parentheses when more than one."""
        if self.r == 1 or a < self.p:
            return str(a)
        parts = [format_term(str(c), "w", i) for i, c in enumerate(self.coords(a)) if c]
        return parts[0] if len(parts) == 1 else "(" + "+".join(reversed(parts)) + ")"

    def parse_elem(self, s: str) -> int:
        """Parse a field element: terms c, c*w^i, w^i or w joined by +, with
        0 <= c < p and 0 <= i < r, in parentheses or not (README, "One text
        grammar")."""
        s = "".join(s.split())
        if s.startswith("(") and s.endswith(")"):
            s = s[1:-1]
        coords = [0] * self.r
        for term in s.split("+"):
            if not term:
                raise DomainError("empty coefficient term")
            if "w" in term and self.r == 1:
                raise DomainError("w not allowed over a prime field")
            c, i = parse_term(term, "w", parse_int)
            if not 0 <= c < self.p:
                raise DomainError(f"coefficient {c} out of range [0, {self.p})")
            if not 0 <= i < self.r:
                raise DomainError(f"w^{i} out of range for degree-{self.r} extension")
            coords[i] = (coords[i] + c) % self.p
        return self._from_coords(coords)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, GF)
            and self.p == other.p
            and self.r == other.r
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        if self.r == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.r})"
