"""Dense univariate polynomials over F_{p^m} and the structure operations
the eigengroup machinery needs: exact root multisets over a splitting tower,
exponent decompositions f = f_1^(p^s), additive polynomials f_V, multiplier
fields, and decomposition through a fixed inner polynomial.

Roots come from the distinct-degree parts over the base field, split into
linear factors over the tower extension (Cantor-Zassenhaus), not from scans.

Coefficients are stored low degree first as packed field values; the zero
polynomial is the empty tuple.  Polynomials are immutable and hashable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .errors import DomainError, InternalCheckError
from .gf import FieldDesc, FieldTower, FqElement, Span, divisors, prime_factors, tower_over


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
        F = self.field
        rem = list(self.c)
        db = o.degree
        inv_lb = 1 if o.lc == 1 else F.inv(o.lc)
        quo = [0] * max(0, len(rem) - db)
        while len(rem) - 1 >= db and rem:
            c = rem[-1] if inv_lb == 1 else F.mul(rem[-1], inv_lb)
            shift = len(rem) - 1 - db
            quo[shift] = c
            for i, bi in enumerate(o.c):
                if bi:
                    rem[shift + i] = F.sub(rem[shift + i], F.mul(c, bi))
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly.from_values(F, quo), Poly.from_values(F, rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def gcd(self, other: "Poly") -> "Poly":
        """Monic gcd."""
        a, b = self, self._coerce(other)
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()

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


def poly_pow_mod(base: Poly, e: int, mod: Poly) -> Poly:
    r = Poly.one(base.field)
    b = base % mod
    while e:
        if e & 1:
            r = (r * b) % mod
        b = (b * b) % mod
        e >>= 1
    return r


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: x^(q^d) = x mod f and gcd(x^(q^(d/r)) - x, f) = 1."""
    d = f.degree
    if d < 1:
        return False
    if d == 1:
        return True
    q = f.field.q
    x = Poly.x(f.field)
    for r in prime_factors(d):
        h = poly_pow_mod(x, q ** (d // r), f)
        if (h - x).gcd(f).degree != 0:
            return False
    return poly_pow_mod(x, q**d, f) == x % f


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
    """The prime-to-p part of the exponent gcd."""
    return exponent_decomp(f).gcd_p if not f.is_constant() else 0


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
        g1 = (f // f.gcd(d)).monic()  # factors whose multiplicity is prime to p
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
    q = f.field.q
    parts = []
    x = Poly.x(f.field)
    h = x % g
    d = 0
    while g.degree > 0:
        d += 1
        if d > g.degree:
            raise InternalCheckError("distinct-degree split ran past the degree")
        h = poly_pow_mod(h, q, g)
        gd = g.gcd(h - x)
        if gd.degree > 0:
            parts.append((d, gd))
            g = g // gd
            h = h % g if g.degree > 0 else h
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
    repeated exact division.  A caller's tower that misses a factor's
    splitting field leaves a nonconstant remainder and is refused as bad
    input; on the tower built here that remainder is an internal fault.
    Nothing is cached: a caller that needs the roots again keeps the
    returned multiset (shift_space takes it as its input), and f is split
    into distinct-degree parts once, for both the tower and the roots.
    """
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    if f.is_constant():
        raise DomainError("roots of a constant")
    supplied = tower is not None
    if supplied and f.field is not tower.base:
        raise DomainError("polynomial is not over the tower base")
    parts = distinct_degree_parts(f)
    if not supplied:
        tower = splitting_tower(f, parts=parts)
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
        if supplied:
            raise DomainError("input does not split over the provided tower")
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
    has its roots in the extension exactly when k*d divides M, so only those
    distinct-degree parts of radical(f) are lifted and split by split_roots.
    parts, when given, is distinct_degree_parts(f), which is then not redone.
    """
    if f.field is not tower.base:
        raise DomainError("polynomial is not over the tower base")
    if f.is_zero():
        raise DomainError("roots of the zero polynomial")
    if f.is_constant():
        return []
    roots = []
    for d, gd in distinct_degree_parts(f) if parts is None else parts:
        if tower.M % (tower.k * d) == 0:
            roots += split_roots(lift_poly(gd, tower))
    fe = lift_poly(f, tower)
    if any(fe.eval_value(r) for r in roots):
        raise InternalCheckError("a split root is not a root of the input")
    return sorted(roots)


def split_roots(g: Poly) -> list[int]:
    """Sorted roots of a monic g that is a product of distinct linear factors
    over its field F_Q, by equal-degree splitting: a random h = a*x + b
    (a != 0) splits g by gcd(g, h^((Q-1)/2) - 1) for odd p and by the trace
    gcd(g, sum_{i<m} h^(2^i) mod g) for p = 2.  a is random because for p = 2
    the trace of x + b is constant on Frobenius orbits of roots; b is random
    in all of F_Q because a b in a subfield never separates its conjugates.
    The generator is local and seeded per call; the output is sorted.
    """
    F, rng = g.field, random.Random(0)
    out, todo = [], [g]
    while todo:
        u = todo.pop()
        if u.degree <= 1:
            out.extend(F.neg(u.c[0]) for _ in range(u.degree))
            continue
        for _ in range(64):  # failed draws in a row before the split is declared faulty
            h = Poly.from_values(F, (rng.randrange(F.q), rng.randrange(1, F.q)))
            if F.p == 2:
                t = s = h % u
                for _ in range(F.m - 1):
                    t = (t * t) % u
                    s = s + t
            else:
                s = poly_pow_mod(h, (F.q - 1) // 2, u) - 1
            w = u.gcd(s)
            if 0 < w.degree < u.degree:
                todo += [w, u // w]
                break
        else:
            raise InternalCheckError("equal-degree splitting found no split")
    if len(set(out)) != g.degree or any(g.eval_value(r) for r in out):
        raise InternalCheckError("split roots do not account for the degree")
    return sorted(out)


# ---------------------------------------------------------------------------
# Additive polynomials f_V and multiplier fields
# ---------------------------------------------------------------------------


def verify_fp_subspace(field: FieldDesc, values) -> tuple[int, ...]:
    """Check that a finite set is an F_p-subspace; returns the sorted values.

    A set containing 0 is a subspace exactly when it has p^rank elements,
    rank being the dimension of its span.
    """
    vals = tuple(sorted({field.element(v).val if not isinstance(v, int) else v for v in values}))
    if 0 not in vals:
        raise DomainError("an F_p-subspace must contain 0")
    if len(vals) != field.p ** len(space_basis(field, vals)):
        raise DomainError("set is not closed under addition")
    return vals


def space_basis(field: FieldDesc, values) -> tuple[int, ...]:
    """Reduced echelon F_p-basis (as packed values) of the span of the given values."""
    span = Span(field.prime_field)
    for v in values:
        span.add(field.unpack(v if isinstance(v, int) else field.element(v).val))
    return tuple(field.pack(b) for b in span.basis())


def f_V(field: FieldDesc, V, nu=0) -> Poly:
    """prod_{v in V} (x - nu - v) for an F_p-subspace V; additive when nu = 0."""
    vals = verify_fp_subspace(field, V)
    nu_val = field.element(nu).val if not isinstance(nu, int) else nu
    out = Poly.one(field)
    for v in vals:
        out = out * Poly.from_values(field, (field.neg(field.add(nu_val, v)), 1))
    return out


def multiplier_field(field: FieldDesc, V) -> int:
    """Largest e with F_{p^e} V <= V, for a nonzero subspace V inside the field."""
    vals = verify_fp_subspace(field, V)
    if len(vals) == 1:
        raise DomainError("multiplier field of the zero space")
    n = 0
    size = len(vals)
    while size > 1:
        size //= field.p
        n += 1
    from .gf import primitive_root_of_unity

    vset = set(vals)
    basis = space_basis(field, vals)
    best = 1
    for e in divisors(gcd(n, field.m)):
        if e == 1:
            continue
        gamma = primitive_root_of_unity(field.p**e - 1, field).val
        if all(field.mul(gamma, b) in vset for b in basis):
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
