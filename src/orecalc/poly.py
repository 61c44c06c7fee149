"""Dense univariate polynomials over F_{p^m} and the structure operations
the eigengroup machinery needs: exact root multisets over a splitting tower,
exponent decompositions f = f_1^(p^s), the additive polynomial f_V and the
multiplier field of the F_p-span V of any spanning set (both work from the
reduced echelon basis space_basis returns), and decomposition through a
fixed inner polynomial.

Coefficients are stored low degree first as packed field values; the zero
polynomial is the empty tuple.  Polynomials are immutable and hashable.

Roots are found without scans, in one residue-ring kernel _Residues for
F[x]/(g) on plain coefficient lists: a product is a schoolbook product of
inner products (FieldDesc.dot) folded back by long division by g, so x^k
mod g takes at most one fold up to k = 2 deg g - 2.  Its Frobenius steps
give x^(e^j) mod g one at a time, by raising the last to the e-th power or,
once that has cost as much as building it, by one step of the matrix whose
rows are x^(i e) mod g (Berlekamp's q-power matrix for e = q; J. von zur
Gathen and J. Gerhard, Modern Computer Algebra, ch. 14):

- distinct_degree_parts takes x^(q^d) one step per degree d, modulo the
  part of radical(f) still unsplit; roots_in_ext without parts stops those
  steps at the degree of the extension, and is_irreducible (Rabin) takes
  x^(q^k) the same way;
- split_roots splits a part lifted to the extension F_Q, Q = p^m, by
  equal-degree splitting (Cantor-Zassenhaus): for h = a x + b,
  h^(p^i) = a^(p^i) x^(p^i) + b^(p^i) with x^(p^i) from the p-power steps,
  so the trace (p = 2) is a sum and h^((Q-1)/2) = N(h)^((p-1)/2) takes
  m - 1 products; a root r found brings its conjugates r^q, q = |base|.

Every answer is checked: split roots evaluate to zero and number deg g,
roots_in_ext evaluates each root in f, and roots_with_multiplicity
reconstructs f exactly from the root multiset.  poly_pow_mod runs on the
same kernel.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from math import comb, gcd

from .errors import DomainError, InternalCheckError
from .gf import FieldDesc, FieldTower, FqElement, Span, divisors, prime_factors, primitive_root_of_unity, tower_over


class Poly:
    __slots__ = ("field", "c")

    def __init__(self, field: FieldDesc, coeffs=()):
        vals = []
        for c in coeffs:
            if isinstance(c, FqElement):
                if c.field is not field:
                    raise DomainError("coefficient from a different field")
                vals.append(c.val)
            else:
                vals.append(c % field.p)
        while vals and vals[-1] == 0:
            vals.pop()
        self.field = field
        self.c = tuple(vals)

    @classmethod
    def from_values(cls, field: FieldDesc, vals) -> "Poly":
        p = cls.__new__(cls)
        vals = list(vals)
        while vals and vals[-1] == 0:
            vals.pop()
        p.field = field
        p.c = tuple(vals)
        return p

    @classmethod
    def x(cls, field: FieldDesc) -> "Poly":
        return cls.from_values(field, (0, 1))

    @classmethod
    def one(cls, field: FieldDesc) -> "Poly":
        return cls.from_values(field, (1,))

    @classmethod
    def zero(cls, field: FieldDesc) -> "Poly":
        return cls.from_values(field, ())

    @classmethod
    def constant(cls, field: FieldDesc, v) -> "Poly":
        return cls(field, (v,))

    # -- structure ------------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def is_constant(self) -> bool:
        return len(self.c) <= 1

    def is_monic(self) -> bool:
        return bool(self.c) and self.c[-1] == 1

    @property
    def lc(self) -> int:
        if not self.c:
            raise DomainError("leading coefficient of zero")
        return self.c[-1]

    def coeff(self, i: int) -> FqElement:
        v = self.c[i] if 0 <= i < len(self.c) else 0
        return FqElement(self.field, v)

    def coeffs(self) -> list[FqElement]:
        return [FqElement(self.field, v) for v in self.c]

    def __eq__(self, other):
        return isinstance(other, Poly) and self.field is other.field and self.c == other.c

    def __hash__(self):
        return hash((id(self.field), self.c))

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            v = self.c[i]
            if not v:
                continue
            if i == 0:
                parts.append(self._coeff_str(v))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                parts.append(xpow if v == 1 else f"{self._coeff_str(v)}*{xpow}")
        return " + ".join(parts)

    def _coeff_str(self, v: int) -> str:
        if self.field.m == 1:
            return str(v)
        return "[" + ",".join(str(d) for d in self.field.unpack(v)) + "]"

    # -- ring operations --------------------------------------------------------

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.field is not self.field:
                raise DomainError("mixed-field polynomial arithmetic")
            return other
        if isinstance(other, FqElement):
            return Poly.from_values(self.field, (self.field.element(other).val,))
        if isinstance(other, int):
            return Poly.from_values(self.field, (other % self.field.p,))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        F = self.field
        a, b = self.c, o.c
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, v in enumerate(b):
            out[i] = F.add(out[i], v)
        return Poly.from_values(F, out)

    __radd__ = __add__

    def __neg__(self):
        F = self.field
        return Poly.from_values(F, (F.neg(v) for v in self.c))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        F = self.field
        out = list(self.c) + [0] * (len(o.c) - len(self.c))
        for i, v in enumerate(o.c):
            out[i] = F.sub(out[i], v)
        return Poly.from_values(F, out)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if isinstance(other, (int, FqElement)):
            v = self.field.element(other).val
            if v == 0:
                return Poly.zero(self.field)
            F = self.field
            return Poly.from_values(F, (F.mul(c, v) for c in self.c))
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        F = self.field
        a, b = self.c, o.c
        if not a or not b:
            return Poly.zero(F)
        out = [0] * (len(a) + len(b) - 1)
        add, mul = F.add, F.mul
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = add(out[i + j], mul(ai, bj))
        return Poly.from_values(F, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative polynomial power")
        r = Poly.one(self.field)
        b = self
        while e:
            if e & 1:
                r = r * b
            b = b * b
            e >>= 1
        return r

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        o = self._coerce(other)
        if o is NotImplemented or o.is_zero():
            raise DomainError("division by zero polynomial")
        rem = list(self.c)
        quo = _divide(self.field, rem, o.c)
        return Poly.from_values(self.field, quo), Poly.from_values(self.field, rem[: o.degree])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd, by remainders of plain coefficient lists."""
        F = self.field
        a, b = list(self.c), list(self._coerce(other).c)
        while b:
            _divide(F, a, b)
            a, b = b, a[: len(b) - 1]
            while b and b[-1] == 0:
                b.pop()
        return Poly.from_values(F, a).monic()

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        F = self.field
        inv = F.inv(self.lc)
        return Poly.from_values(F, (F.mul(v, inv) for v in self.c))

    def derivative(self) -> "Poly":
        F = self.field
        p = F.p
        return Poly.from_values(F, (F.mul(i % p, v) for i, v in enumerate(self.c) if i))

    # -- evaluation and composition ----------------------------------------------

    def eval_value(self, v: int) -> int:
        F = self.field
        acc = 0
        add, mul = F.add, F.mul
        for c in reversed(self.c):
            acc = add(mul(acc, v), c)
        return acc

    def __call__(self, x):
        if isinstance(x, Poly):
            return self.compose(x)
        return FqElement(self.field, self.eval_value(self.field.element(x).val))

    def compose(self, inner: "Poly") -> "Poly":
        if inner.field is not self.field:
            raise DomainError("mixed-field composition")
        acc = Poly.zero(self.field)
        for c in reversed(self.c):
            acc = acc * inner + Poly.from_values(self.field, (c,))
        return acc

    def compose_affine(self, lam: int, mu: int) -> "Poly":
        """self(lam*x + mu): an in-place Taylor shift by mu on packed values,
        then the coefficient of x^i times lam^i."""
        F = self.field
        add, mul = F.add, F.mul
        b = list(self.c)
        n = len(b)
        if mu:
            for i in range(n - 1):
                for j in range(n - 2, i - 1, -1):
                    b[j] = add(b[j], mul(b[j + 1], mu))
        if lam != 1:
            pw = 1
            for i in range(1, n):
                pw = mul(pw, lam)
                b[i] = mul(b[i], pw)
        return Poly.from_values(F, b)

    def scale_value(self, v: int) -> "Poly":
        """Multiply by the field element with the given packed value."""
        F = self.field
        return Poly.from_values(F, (F.mul(c, v) for c in self.c))

    def valuation(self) -> int:
        """Largest t with x^t dividing self (0 for nonzero constants)."""
        if not self.c:
            raise DomainError("valuation of the zero polynomial")
        t = 0
        while self.c[t] == 0:
            t += 1
        return t


def _divide(F: FieldDesc, rem: list[int], b) -> list[int]:
    """Long division of the coefficient list rem by b (nonzero top
    coefficient) in place: rem[:deg b] is left holding the remainder,
    untrimmed.  Returns the quotient's coefficients."""
    db = len(b) - 1
    low = b[:db]
    inv_lb = 1 if b[-1] == 1 else F.inv(b[-1])
    quo = [0] * max(0, len(rem) - db)
    for shift in range(len(rem) - 1 - db, -1, -1):
        c = rem[shift + db]
        if c:
            if inv_lb != 1:
                c = F.mul(c, inv_lb)
            quo[shift] = c
            rem[shift : shift + db] = F.row_sub(rem[shift : shift + db], c, low)
    return quo


# Most entries a Frobenius power table may hold: it is n x n, and 2^20
# entries take 36 MB as packed values below 2^30 (8 MB below 2^8).
_TABLE_MAX_ENTRIES = 1 << 20


class _Residues:
    """The ring F[x]/(g) for a monic g of degree n >= 1, on plain lists of n
    packed coefficients, low degree first.

    A product is the schoolbook product of two residues, each coefficient
    one FieldDesc.dot, folded back by long division by g, so x^k mod g for
    k <= 2n - 2 is one fold and no product.  Only power_table keeps n rows.
    """

    __slots__ = ("field", "n", "x", "one", "_g", "_spans")

    def __init__(self, g: Poly):
        n = g.degree
        self.field, self.n, self._g = g.field, n, g.c
        self.one = [1] + [0] * (n - 1)
        self.x = self._fold([0, 1] + [0] * (n - 1))
        # coefficient k of a product is a[i:] . reversed(b)[j:]
        self._spans = [(max(0, k - n + 1), max(n - 1 - k, 0)) for k in range(2 * n - 1)]

    def residue(self, c) -> list[int]:
        """The residue of a coefficient sequence of length at most n."""
        return list(c) + [0] * (self.n - len(c))

    def x_power(self, k: int) -> list[int]:
        """x^k mod g: at most one fold up to k = 2n - 2, above that
        square-and-multiply from the longest such prefix of k's bits, where
        each multiplication by x is one fold."""
        n = self.n
        if k < n:
            return [0] * k + [1] + [0] * (n - 1 - k)
        if k <= 2 * n - 2:
            return self._fold([0] * k + [1])
        if n == 1:
            return [self.field.pow(self.x[0], k)]
        bits = bin(k)[2:]
        i = 1
        while int(bits[: i + 1], 2) <= 2 * n - 2:
            i += 1
        r = self.x_power(int(bits[:i], 2))
        for bit in bits[i:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self._fold([0, *r])
        return r

    def _fold(self, c: list[int]) -> list[int]:
        """The residue of a coefficient list of length at least n, which is
        divided by g in place."""
        _divide(self.field, c, self._g)
        return c[: self.n]

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        dot, rb = self.field.dot, b[::-1]
        return self._fold([dot(a[i:], rb[j:]) for i, j in self._spans])

    def pow(self, a: list[int], e: int) -> list[int]:
        if e == 0:
            return list(self.one)
        r = a
        for bit in bin(e)[3:]:
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def power_table(self, e: int, xe: list[int]) -> list[tuple[int, ...]]:
        """The matrix whose row i is x^(i*e) mod g, i < n, stored by columns,
        given xe = x^e mod g.  Row i + 1 is row i times x^e: a shift and one
        fold when e < n, else a product."""
        n = self.n
        rows = [self.one, xe][:n]
        while len(rows) < n:
            rows.append(self._fold([0] * e + rows[-1]) if e < n else self.mul(rows[-1], xe))
        return list(zip(*rows))

    def apply(self, table, a: list[int], coeff=None) -> list[int]:
        """sum_i coeff(a_i) * row i of a power_table: a^(p^t) when the table
        holds x^(i p^t) and coeff is the field's p^t-power map, or a^q for a
        q-power table over F_q with coeff the identity (None)."""
        c = a if coeff is None else [coeff(v) for v in a]
        dot = self.field.dot
        return [dot(c, col) for col in table]

    def frobenius(self, e: int, coeff=None, h=None, steps: int = 0):
        """Yields h^(e^j) mod g for j = 1, 2, ..., h = x when not given
        (coeff as for apply); steps, when known, is how many the caller takes.

        x^(e^j) is one fold while e^j <= 2n - 2, and the next comes from
        x_power; the first, x^e, is kept for the table.  A later step raises
        the last value to the e-th power, pay products, or is one step of the
        e-power table, about half a product, once that table is built for
        about build products.  It is built when the powered steps have cost
        build, so that for an unknown number of steps neither path costs more
        than twice the other, or sooner when the steps still to come save as
        much; never past _TABLE_MAX_ENTRIES.
        """
        n, taken, xe = self.n, 0, None
        if h is None:
            h = xe = self.x_power(e)
            taken, k = 1, e
            yield h
            while k <= 2 * n - 2:
                k *= e
                h, taken = self.x_power(k), taken + 1
                yield h
        pay = e.bit_length() + bin(e).count("1") - 2
        build = (n - 2) * min(e, 2 * n) / (2 * n)  # rows by a shift and a fold of e terms, or a product
        spent = 0
        while n * n > _TABLE_MAX_ENTRIES or spent + max(steps - taken, 0) * (pay - 0.5) < build:
            h = self.pow(h, e)
            spent, taken = spent + pay, taken + 1
            yield h
        table = self.power_table(e, self.x_power(e) if xe is None else xe)
        while True:
            h = self.apply(table, h, coeff)
            yield h


def poly_pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    """The remainder of base^e modulo a nonzero mod."""
    g = mod.monic()
    b = base % g
    if g.degree < 1:
        return b
    ring = _Residues(g)
    return Poly.from_values(base.field, ring.pow(ring.residue(b.c), e))


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: x^(q^d) = x mod f and gcd(x^(q^(d/r)) - x, f) = 1 for
    each prime r | d, with x^(q^k), k = 1..d, from the Frobenius steps of
    F[x]/(f)."""
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    F = f.field
    g = f.monic()
    ring = _Residues(g)
    powers = ring.frobenius(F.q, steps=d)
    x = Poly.x(F)
    checks = {d // r for r in prime_factors(d)}
    for k in range(1, d + 1):
        h = next(powers)
        if k in checks and g.gcd(Poly.from_values(F, h) - x).degree != 0:
            return False
    return h == ring.x


# ---------------------------------------------------------------------------
# Exponent decomposition  f = f_1^(p^s)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentDecomp:
    """f = f1**(p**s) with f1' != 0; gcd_p is the prime-to-p exponent gcd."""

    s: int
    gcd_p: int
    f1: Poly


def exponent_gcd(f: Poly) -> int:
    """gcd of the exponents i >= 1 with nonzero coefficient (0 for constants)."""
    g = 0
    for i, c in enumerate(f.c):
        if i and c:
            g = gcd(g, i)
    return g


def poly_pth_root(f: Poly) -> Poly:
    """The unique g with g^p = f; requires all exponents divisible by p."""
    F = f.field
    p = F.p
    out = [0] * (f.degree // p + 1) if not f.is_zero() else []
    for i, c in enumerate(f.c):
        if c:
            if i % p:
                raise DomainError("polynomial is not a p-th power")
            out[i // p] = F.pth_root(c)
    return Poly.from_values(F, out)


def exponent_decomp(f: Poly) -> ExponentDecomp:
    if f.is_constant():
        raise DomainError("exponent decomposition needs a nonconstant polynomial")
    p = f.field.p
    e = exponent_gcd(f)
    s = 0
    while e % p == 0:
        e //= p
        s += 1
    f1 = f
    for _ in range(s):
        f1 = poly_pth_root(f1)
    return ExponentDecomp(s, e, f1)


def gcd_p(f: Poly) -> int:
    """The prime-to-p part of the exponent gcd (0 for constants)."""
    g, p = exponent_gcd(f), f.field.p
    while g and g % p == 0:
        g //= p
    return g


def binom_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem, one base-p digit at a time."""
    out = 1
    while k and out:
        (n, a), (k, b) = divmod(n, p), divmod(k, p)
        out = out * comb(a, b) % p
    return out


def shift_coeffs(f: Poly, ks):
    """For each k in ks, b_k(mu) = sum_{i >= k} C(i, k) f_i mu^(i - k), the
    x^k coefficient of f(x + mu) as a polynomial in mu; zero f_i are skipped."""
    F, terms = f.field, [(i, c) for i, c in enumerate(f.c) if c][::-1]
    for k in ks:
        out = []
        for i, c in terms:
            if i < k:
                break
            if b := binom_mod_p(i, k, F.p):
                out = out or [0] * (i - k + 1)
                out[i - k] = F.mul(b, c)
        yield Poly.from_values(F, out)


# ---------------------------------------------------------------------------
# Roots over a splitting tower
# ---------------------------------------------------------------------------


def radical(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f."""
    if f.is_zero():
        raise DomainError("radical of zero")
    F = f.field
    out = Poly.one(F)
    f = f.monic()
    while f.degree > 0:
        d = f.derivative()
        if d.is_zero():
            f = poly_pth_root(f)
            continue
        r = f.gcd(d)
        if r.degree == 0 and out.degree == 0:  # f is squarefree
            return f
        g1 = (f // r).monic()  # factors whose multiplicity is prime to p
        out = out * (g1 // out.gcd(g1))
        # strip every factor sharing a root with g1; what remains is a p-th power
        while True:
            g = f.gcd(g1)
            if g.degree <= 0:
                break
            f = f // g
    return out


def distinct_degree_parts(f: Poly) -> list[tuple[int, Poly]]:
    """Pairs (d, g_d), d ascending, for each d such that f has an irreducible
    factor of degree d; g_d is the monic product of those distinct factors."""
    g = radical(f)
    return _degree_parts(g, g.degree)


def _degree_parts(g: Poly, limit: int) -> list[tuple[int, Poly]]:
    """The pairs (d, g_d) of distinct_degree_parts with d <= limit, for a
    monic squarefree g.

    x^(q^d) is kept modulo the part g still unsplit, one Frobenius step of
    F[x]/(g) per d.  When a part splits off, the last power is reduced
    modulo the rest of g and the steps go on in that smaller ring."""
    F = g.field
    x = Poly.x(F)
    powers = _Residues(g).frobenius(F.q) if g.degree > 0 else None
    parts = []
    d = 0
    while g.degree > 0 and d < limit:
        d += 1
        if d > g.degree:
            raise InternalCheckError("distinct-degree split ran past the degree")
        h = Poly.from_values(F, next(powers))
        gd = g.gcd(h - x)
        if gd.degree > 0:
            parts.append((d, gd))
            g = g // gd
            if g.degree > 0:
                ring = _Residues(g)
                powers = ring.frobenius(F.q, h=ring.residue((h % g).c))
    return parts


def splitting_degree(f: Poly, parts=None) -> int:
    """Degree over F_p of the smallest field containing the base and all roots.
    parts, when given, is distinct_degree_parts(f), which is then not redone."""
    if f.is_constant():
        raise DomainError("splitting degree of a constant")
    k = f.field.m
    out = 1
    for d, _ in distinct_degree_parts(f) if parts is None else parts:
        out = out * d // gcd(out, d)
    return k * out


def splitting_tower(f: Poly, extra_degrees=(), parts=None) -> FieldTower:
    """Tower whose extension splits f and contains F_{p^j} for each extra j;
    parts as for splitting_degree."""
    M = splitting_degree(f, parts)
    for j in extra_degrees:
        M = M * j // gcd(M, j)
    return tower_over(f.field, M)


def checked_splitting_tower(f: Poly, tower: FieldTower | None = None) -> tuple[FieldTower, list]:
    """(tower, distinct_degree_parts(f)): the splitting tower of f, or the
    caller's tower, refused as bad input when it misses the splitting field
    of a factor (a part of degree d splits there exactly when d | M/k)."""
    if tower is not None and f.field is not tower.base:
        raise DomainError("polynomial is not over the tower base")
    parts = distinct_degree_parts(f)
    if tower is None:
        return splitting_tower(f, parts=parts), parts
    if any((tower.M // tower.k) % d for d, _ in parts):
        raise DomainError("input does not split over the provided tower")
    return tower, parts


def lift_poly(f: Poly, tower: FieldTower) -> Poly:
    if f.field is tower.ext:
        return f
    if f.field is not tower.base:
        raise DomainError("polynomial is not over the tower base")
    lvl = tower.level(tower.k)
    return Poly.from_values(tower.ext, (lvl.lift(v) for v in f.c))


def lower_poly(f: Poly, tower: FieldTower, j: int | None = None) -> Poly:
    lvl = tower.level(tower.k if j is None else j)
    return Poly.from_values(lvl.desc, (lvl.lower(v).val for v in f.c))


@dataclass(frozen=True)
class RootMultiset:
    """All roots of f in the tower extension, with multiplicities.

    pairs is sorted by packed root value; the construction asserts that the
    multiplicities account for the whole degree and that the monic product
    of (x - root)^mult reproduces the lifted polynomial exactly.  lifted is
    that polynomial, poly over the tower extension.
    """

    poly: Poly
    tower: FieldTower
    pairs: tuple[tuple[int, int], ...]
    lifted: Poly

    def distinct(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.pairs)

    def multiplicity(self, r: int) -> int:
        for root, m in self.pairs:
            if root == r:
                return m
        return 0

    def as_multiset(self) -> dict[int, int]:
        return {r: m for r, m in self.pairs}

    @property
    def splitting_degree(self) -> int:
        return self.tower.M


def roots_with_multiplicity(f: Poly, tower: FieldTower | None = None) -> RootMultiset:
    """Exact root multiset of f over (a tower splitting) f.

    The distinct roots come from roots_in_ext, the multiplicities from
    repeated exact division.  The tower comes from checked_splitting_tower,
    so a nonconstant remainder is an internal fault.
    Nothing is cached: a caller that needs the roots again keeps the
    returned multiset (shift_space takes it as its input), and f is split
    into distinct-degree parts once, for both the tower and the roots.
    """
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    if f.is_constant():
        raise DomainError("roots of a constant")
    tower, parts = checked_splitting_tower(f, tower)
    fe = lift_poly(f, tower)
    L = tower.ext
    pairs = []
    rem = fe
    for r in roots_in_ext(f, tower, parts):
        lin = Poly.from_values(L, (L.neg(r), 1))
        m = 0
        while True:
            quo, rr = rem.divmod(lin)
            if not rr.is_zero():
                break
            rem = quo
            m += 1
        if m == 0:
            raise InternalCheckError("claimed root fails division")
        pairs.append((r, m))
    if rem.degree != 0:
        raise InternalCheckError("splitting tower does not split the input")
    # exact product reconstruction
    check = Poly.from_values(L, (rem.c[0] if rem.c else 1,))
    for r, m in pairs:
        check = check * Poly.from_values(L, (L.neg(r), 1)) ** m
    if check != fe:
        raise InternalCheckError("root multiset does not reconstruct the polynomial")
    return RootMultiset(f, tower, tuple(pairs), fe)


def roots_in_ext(f: Poly, tower: FieldTower, parts=None) -> list[int]:
    """Sorted packed values in the tower extension that are roots of f.

    f is over the tower base; the extension need not split f, only the roots
    that happen to lie in it are returned.  An irreducible factor of degree d
    has its roots in the extension exactly when d divides n = M/k, and the
    parts with d | n are lifted and split by split_roots.  parts, when
    given, is distinct_degree_parts(f); without parts, the distinct-degree
    steps stop at d = n, or sooner once radical(f) is used up.
    """
    if f.field is not tower.base:
        raise DomainError("polynomial is not over the tower base")
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    if f.is_constant():
        return []
    n = tower.M // tower.k
    roots = []
    for d, gd in _degree_parts(radical(f), n) if parts is None else parts:
        if n % d == 0:
            roots += split_roots(lift_poly(gd, tower), tower.k)
    fe = lift_poly(f, tower)
    if any(fe.eval_value(r) for r in roots):
        raise InternalCheckError("a split root is not a root of the input")
    return sorted(roots)


def split_roots(g: Poly, k: int) -> list[int]:
    """Sorted roots of a monic g that is a product of distinct linear factors
    over its field F_Q, Q = p^m, with its coefficients in F_{p^k}.

    Equal-degree splitting: a random h = a*x + b (a != 0) splits g by
    gcd(g, h^((Q-1)/2) - 1) for odd p and by the trace
    gcd(g, sum_{i<m} h^(p^i) mod g) for p = 2.  a is random because for
    p = 2 the trace of x + b is constant on Frobenius orbits of roots; b is
    random in all of F_Q because a b in a subfield never separates its
    conjugates.  Each factor u keeps x^(p^i) mod u, i < m, from the p-power
    Frobenius steps of F_Q[x]/(u), so h^(p^i) = a^(p^i) x^(p^i) + b^(p^i)
    costs no product: the trace is their sum, and h^((Q-1)/2) =
    N(h)^((p-1)/2) with N(h) = h h^p ... h^(p^(m-1)) takes m - 1 products.
    The smaller factor of a split is split first, and a linear factor x - r
    gives r with its orbit under r -> r^(p^k), roots of g as well; the split
    stops once deg g roots are known, so an irreducible over F_{p^k} needs
    one descent to a single root.  The generator is local and seeded per
    call; the output is sorted.
    """
    F, rng = g.field, random.Random(0)
    p, m = F.p, F.m
    out, todo = set(), [g]
    while todo and len(out) < g.degree:
        u = todo.pop()
        if u.degree == 1:
            r = F.neg(u.c[0])
            while r not in out:
                out.add(r)
                r = F.frob(r, k)
            continue
        ring = _Residues(u)
        xs = list(islice(ring.frobenius(p, F.frob, steps=m - 1), m - 1))  # x^(p^i) mod u, 0 < i < m
        for _ in range(64):  # failed draws in a row before the split is declared faulty
            b, a = rng.randrange(F.q), rng.randrange(1, F.q)
            s = ring.residue((b, a))  # h
            for xi in xs:  # h^(p^i) = a^(p^i) x^(p^i) + b^(p^i)
                a, b = F.frob(a), F.frob(b)
                t = [F.mul(a, c) for c in xi]
                t[0] = F.add(t[0], b)
                s = [F.add(c, d) for c, d in zip(s, t)] if p == 2 else ring.mul(s, t)
            if p != 2:
                s = ring.pow(s, (p - 1) // 2)
                s[0] = F.sub(s[0], 1)
            w = u.gcd(Poly.from_values(F, s))
            if 0 < w.degree < u.degree:
                v = u // w
                todo += [w, v] if w.degree >= v.degree else [v, w]
                break
        else:
            raise InternalCheckError("equal-degree splitting found no split")
    if len(out) != g.degree or any(g.eval_value(r) for r in out):
        raise InternalCheckError("split roots do not account for the degree")
    return sorted(out)


# ---------------------------------------------------------------------------
# Additive polynomials f_V and multiplier fields
# ---------------------------------------------------------------------------


def space_basis(field: FieldDesc, values) -> tuple[int, ...]:
    """Reduced echelon F_p-basis (as packed values) of the span of the given values."""
    span = Span(field.prime_field)
    for v in values:
        span.add(field.unpack(v if isinstance(v, int) else field.element(v).val))
    return tuple(field.pack(b) for b in span.basis())


def f_V(field: FieldDesc, V, nu=0) -> Poly:
    """prod_{v in V} (x - nu - v) for the F_p-span V of the given values (a
    basis or all of V); additive when nu = 0.

    Built from the reduced echelon basis of V by Ore's recursion
    f_{U + <b>} = f_U^p - f_U(b)^(p-1) f_U, starting from f_0 = x; f_V is
    additive, so the shift by nu is f_V(x) - f_V(nu).
    """
    nu_val = field.element(nu).val if not isinstance(nu, int) else nu
    p = field.p
    out = Poly.x(field)
    for b in space_basis(field, V):
        c = field.pow(out.eval_value(b), p - 1)
        frob = [0] * (out.degree * p + 1)
        frob[::p] = (field.frob(v) for v in out.c)
        out = Poly.from_values(field, frob) - out.scale_value(c)
    return out - Poly.from_values(field, (out.eval_value(nu_val),))


def multiplier_field(field: FieldDesc, V) -> int:
    """Largest e with F_{p^e} V <= V, for the nonzero F_p-span V of the given
    values: F_p(gamma) stabilises V exactly when gamma times its reduced
    echelon basis spans nothing new."""
    basis = space_basis(field, V)
    if not basis:
        raise DomainError("multiplier field of the zero space")
    best = 1
    for e in divisors(gcd(len(basis), field.m)):
        if e == 1:
            continue
        gamma = primitive_root_of_unity(field.p**e - 1, field).val
        if space_basis(field, basis + tuple(field.mul(gamma, b) for b in basis)) == basis:
            best = max(best, e)
    return best


# ---------------------------------------------------------------------------
# Composition peeling: find g with f = g(h)
# ---------------------------------------------------------------------------


def decompose_through(f: Poly, h: Poly) -> Poly | None:
    """The unique g with f = g(h), or None when no such g exists.

    Works by base-h expansion from the top degree down; the h^j have distinct
    degrees, so the expansion is forced at every step.
    """
    if h.degree < 1:
        raise DomainError("inner polynomial must be nonconstant")
    F = f.field
    cur = f
    coeffs: dict[int, int] = {}
    hp: dict[int, Poly] = {0: Poly.one(F)}

    def h_pow(j: int) -> Poly:
        if j not in hp:
            hp[j] = h_pow(j - 1) * h
        return hp[j]

    lc_h = h.lc
    while not cur.is_zero():
        d = cur.degree
        j, r = divmod(d, h.degree)
        if d > 0 and r != 0:
            return None
        if d == 0:
            coeffs[0] = cur.c[0]
            break
        c = F.div(cur.lc, F.pow(lc_h, j))
        coeffs[j] = c
        cur = cur - h_pow(j).scale_value(c)
        if not cur.is_zero() and cur.degree >= d:
            raise InternalCheckError("peeling failed to reduce the degree")
    g = Poly.from_values(F, (coeffs.get(i, 0) for i in range(max(coeffs) + 1 if coeffs else 0)))
    return g


def contract_exponents(f: Poly, n: int) -> Poly:
    """g with f(x) = g(x^n); requires every exponent divisible by n."""
    F = f.field
    if n == 1:
        return f
    out = [0] * (f.degree // n + 1) if not f.is_zero() else []
    for i, c in enumerate(f.c):
        if c:
            if i % n:
                raise DomainError("exponents are not all divisible by n")
            out[i // n] = c
    return Poly.from_values(F, out)
