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
from .poly import Poly, _bracket, all_polys, format_term, is_irreducible, order_dividing, parse_int, parse_term
from .poly import prime_divisors, square_multiply

# The largest fields GF builds.  A prime p is checked by trial division up to
# sqrt(p), about 0.1 s at the cap; an extension field of order q builds, on
# first use, addition and multiplication tables of q^2 entries (q(q+1)/2
# products in F_p[w] mod the modulus), and poly's packed kernel a reduction
# table of p^(2r-1) entries read from those tables, about half a second at
# the cap.
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
        self._add_table = None
        self._neg_table = None
        self._mul_table = None
        self._inv_table = None
        # the packed kernel's tables by slot bytes, which poly fills and reads
        self.kernel_tables = {}

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
    # runs in place over the shorter operand and copies the longer one's tail,
    # as a comprehension's fixed set-up per call would cost the short
    # operands of F_q[T]/P^N in full; none of them packs, since the RatFn
    # arithmetic of geometry runs at degree <= 4, where packing costs more --

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

    def horner(self, a, c: int) -> list:
        """Horner's rule at c: the partial sums s_i = a_i + c*s_(i+1), taken
        from the top coefficient down and listed in a's order, so s_0 = a(c)
        and s_1 ... s_n are the digits of a // (T - c)."""
        out, s = [], 0
        if self.r == 1:
            p = self.p
            for x in reversed(a):
                s = (x + c * s) % p
                out.append(s)
        else:
            add, row = self._add_table or self._build_tables()[0], self._mul_table[c]
            for x in reversed(a):
                s = add[x][row[s]]
                out.append(s)
        out.reverse()
        return out

    def long_division(self, a, b) -> tuple:
        """Schoolbook division over F_{p^r}, r > 1, on the field's tables
        (von zur Gathen-Gerhard, Modern Computer Algebra, 2.4): the digits
        of a // b and the len(b) - 1 low digits of a % b, for digit lists
        a and b with nonzero top digits and len(a) >= len(b) >= 2.  From
        the top down, quotient digit f clears the remainder's top digit by
        adding -f times b below its top digit."""
        add, neg, mul = self._add_table or self._build_tables()[0], self._neg_table, self._mul_table
        rem, low = list(a), b[:-1]
        db = len(low)
        by_lc = mul[self._inv_table[b[-1]]]
        quo = [0] * (len(a) - db)
        for i in range(len(quo) - 1, -1, -1):
            c = rem[i + db]
            if c:
                f = quo[i] = by_lc[c]
                row = mul[neg[f]]
                for j, y in enumerate(low, i):
                    rem[j] = add[rem[j]][row[y]]
        return quo, rem[:db]

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
        coords = self.coords(a)
        parts = [format_term(str(c), "w", i) for i, c in enumerate(coords) if c]
        return _bracket("+".join(reversed(parts)), coords)

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
