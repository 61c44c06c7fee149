"""Reference arithmetic for the benchmark's answer checks and input generation.

Written apart from orecalc on purpose: finite fields are residues modulo a
monic irreducible (the same modulus orecalc reports, re-checked here by trial
division), elements use orecalc's packed-integer encoding so answers can be
compared value for value, and polynomials are plain low-first lists of packed
values.  Nothing here imports orecalc.
"""

from __future__ import annotations

from itertools import product
from math import gcd


class CheckFailed(Exception):
    """An answer disagrees with the benchmark's own computation."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mobius(n: int) -> int:
    ps = _prime_factors(n)
    m = n
    for p in ps:
        m //= p
        if m % p == 0:
            return 0
    return -1 if len(ps) % 2 else 1


# ---------------------------------------------------------------------------
# Prime-field polynomials on digit lists (only used to build extension fields)
# ---------------------------------------------------------------------------


def _fp_polymod(a: list[int], m: list[int], p: int) -> list[int]:
    a = [c % p for c in a]
    dm = len(m) - 1
    inv = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm:
        c = a[-1] * inv % p
        s = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[s + i] = (a[s + i] - c * mi) % p
        while a and a[-1] == 0:
            a.pop()
    return a


def fp_irreducible(m: list[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(m)/2."""
    d = len(m) - 1
    for e in range(1, d // 2 + 1):
        for low in product(range(p), repeat=e):
            if not _fp_polymod(m, list(low) + [1], p):
                return False
    return d >= 1


class Field:
    """GF(p^k) as F_p[t]/(modulus), packed as sum d_i p^i, with log tables."""

    def __init__(self, p: int, k: int = 1, modulus=None):
        self.p, self.k, self.q = p, k, p**k
        if k > 1:
            modulus = [c % p for c in modulus]
            require(len(modulus) == k + 1 and modulus[-1] == 1, f"modulus of GF({p}^{k}) is not monic of degree {k}")
            require(fp_irreducible(modulus, p), f"modulus {modulus} of GF({p}^{k}) is reducible")
        self.modulus = modulus
        self.digits = [tuple((v // p**i) % p for i in range(k)) for v in range(self.q)]
        self.exp, self.log = self._log_tables()

    def pack(self, digits) -> int:
        v = 0
        for i, d in enumerate(digits):
            v += (d % self.p) * self.p**i
        return v

    def _mul_slow(self, a: int, b: int) -> int:
        p = self.p
        if self.k == 1:
            return a * b % p
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(self.digits[a]):
            for j, y in enumerate(self.digits[b]):
                prod[i + j] += x * y
        return self.pack(_fp_polymod(prod, self.modulus, p))

    def _pow_slow(self, a: int, e: int) -> int:
        out = 1
        while e:
            if e & 1:
                out = self._mul_slow(out, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return out

    def _log_tables(self):
        q1 = self.q - 1
        primes = _prime_factors(q1)
        gen = next(g for g in range(1, self.q) if all(self._pow_slow(g, q1 // r) != 1 for r in primes))
        exp = [1] * q1
        for i in range(1, q1):
            exp[i] = self._mul_slow(exp[i - 1], gen)
        log = [0] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        return exp, log

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        return self.pack(x + y for x, y in zip(self.digits[a], self.digits[b]))

    def neg(self, a: int) -> int:
        if self.k == 1:
            return -a % self.p
        return self.pack(-x for x in self.digits[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def inv(self, a: int) -> int:
        require(a != 0, "inverse of zero")
        return self.exp[(-self.log[a]) % (self.q - 1)]

    def scalar(self, n: int) -> int:
        return n % self.p


# ---------------------------------------------------------------------------
# Polynomials: low-first lists of packed values, trimmed
# ---------------------------------------------------------------------------


def trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def padd(F: Field, a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] = F.add(out[i], v)
    return trim(out)


def psub(F: Field, a, b) -> list[int]:
    return padd(F, a, [F.neg(v) for v in b])


def pscale(F: Field, a, c: int) -> list[int]:
    return trim([F.mul(v, c) for v in a])


def pmul(F: Field, a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return trim(out)


def ppow(F: Field, a, e: int) -> list[int]:
    out = [1]
    for _ in range(e):
        out = pmul(F, out, a)
    return out


def pdivmod(F: Field, a, b):
    require(bool(b), "division by the zero polynomial")
    rem = list(a)
    db = len(b) - 1
    inv = F.inv(b[-1])
    quo = [0] * max(0, len(rem) - db)
    while len(rem) - 1 >= db and rem:
        c = F.mul(rem[-1], inv)
        s = len(rem) - 1 - db
        quo[s] = c
        for i, v in enumerate(b):
            rem[s + i] = F.sub(rem[s + i], F.mul(c, v))
        trim(rem)
    return trim(quo), rem


def pmod(F: Field, a, b) -> list[int]:
    return pdivmod(F, a, b)[1]


def pmonic(F: Field, a) -> list[int]:
    return pscale(F, a, F.inv(a[-1])) if a else a


def pgcd(F: Field, a, b) -> list[int]:
    while b:
        a, b = b, pmod(F, a, b)
    return pmonic(F, a)


def ppowmod(F: Field, a, e: int, m) -> list[int]:
    out, base = [1], pmod(F, a, m)
    while e:
        if e & 1:
            out = pmod(F, pmul(F, out, base), m)
        base = pmod(F, pmul(F, base, base), m)
        e >>= 1
    return out


def pderiv(F: Field, a) -> list[int]:
    return trim([F.mul(F.scalar(i), v) for i, v in enumerate(a)][1:])


def peval(F: Field, a, v: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = F.add(F.mul(acc, v), c)
    return acc


def pcompose_affine(F: Field, a, lam: int, mu: int) -> list[int]:
    """a(lam*x + mu) by Horner."""
    acc: list[int] = []
    inner = trim([mu, lam])
    for c in reversed(a):
        acc = padd(F, pmul(F, acc, inner), [c] if c else [])
    return acc


def is_irreducible(F: Field, a) -> bool:
    """Rabin: x^(q^d) = x mod a, and gcd(x^(q^(d/r)) - x, a) = 1 for r | d."""
    d = len(a) - 1
    if d < 1:
        return False
    x = [0, 1]
    for r in _prime_factors(d):
        h = ppowmod(F, x, F.q ** (d // r), a)
        if len(pgcd(F, psub(F, h, x), a)) != 1:
            return False
    return psub(F, ppowmod(F, x, F.q**d, a), pmod(F, x, a)) == []


def random_irreducible(F: Field, e: int, rng) -> list[int]:
    while True:
        cand = [rng.randrange(F.q) for _ in range(e)] + [1]
        if is_irreducible(F, cand):
            return cand


def roots_in_field(F: Field, a) -> list[int]:
    return [v for v in range(F.q) if peval(F, a, v) == 0]


def linear(F: Field, r: int) -> list[int]:
    """x - r."""
    return [F.neg(r), 1]


def product_of(F: Field, factors) -> list[int]:
    """prod a_i^m_i for (a_i, m_i) pairs."""
    out = [1]
    for a, m in factors:
        out = pmul(F, out, ppow(F, a, m))
    return out


def span_values(F: Field, basis) -> list[int]:
    vals = {0}
    for b in basis:
        vals |= {F.add(v, F.mul(F.scalar(c), b)) for v in vals for c in range(1, F.p)}
    return sorted(vals)


def f_V(F: Field, values) -> list[int]:
    out = [1]
    for v in values:
        out = pmul(F, out, linear(F, v))
    return out


def compose(F: Field, outer, inner) -> list[int]:
    acc: list[int] = []
    for c in reversed(outer):
        acc = padd(F, pmul(F, acc, inner), [c] if c else [])
    return acc


def c_poly(F: Field, f) -> list[int]:
    """c = (delta^(p-2) f)' for delta = f d/dx (c = f' when p = 2)."""
    g = list(f)
    for _ in range(max(0, F.p - 2)):
        g = pmul(F, f, pderiv(F, g))
    return pderiv(F, g)


# ---------------------------------------------------------------------------
# Eigen-substitutions
# ---------------------------------------------------------------------------


def eigen_pairs(F: Field, f) -> set[tuple[int, int]]:
    """All (lam, mu) in F^x * F with f(lam*x + mu) = lam^deg f * f, by enumeration."""
    d = len(f) - 1
    out = set()
    for mu in range(F.q):
        sh = pcompose_affine(F, f, 1, mu)  # f(x + mu); then f(lam x + mu) has coeffs sh_j lam^j
        for lam in range(1, F.q):
            ld = F.pow(lam, d)
            if all(F.mul(sh[j], F.pow(lam, j)) == F.mul(ld, f[j]) for j in range(d - 1, -1, -1)):
                out.add((lam, mu))
    return out


def eigen_pairs_split(F: Field, f, roots: list[int]) -> set[tuple[int, int]]:
    """The same set for a squarefree f with the given roots, all in F (>= 2 of them).

    An eigen-substitution maps roots to roots, so it is pinned by the images of
    two of them; every candidate is then checked by substitution.
    """
    d = len(f) - 1
    r1, r2 = roots[0], roots[1]
    den = F.inv(F.sub(r1, r2))
    out = set()
    for a in roots:
        for b in roots:
            if a == b:
                continue
            lam = F.mul(F.sub(a, b), den)
            mu = F.sub(a, F.mul(lam, r1))
            if pcompose_affine(F, f, lam, mu) == pscale(F, f, F.pow(lam, d)):
                out.add((lam, mu))
    return out


# ---------------------------------------------------------------------------
# Matrices over a Field (row-major lists)
# ---------------------------------------------------------------------------


def mat_mul(F: Field, A, B):
    Bt = list(zip(*B))
    out = []
    for row in A:
        r = []
        for col in Bt:
            acc = 0
            for a, b in zip(row, col):
                if a and b:
                    acc = F.add(acc, F.mul(a, b))
            r.append(acc)
        out.append(r)
    return out


def mat_sub(F: Field, A, B):
    return [[F.sub(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_scalar(F: Field, n: int, s: int):
    return [[s if i == j else 0 for j in range(n)] for i in range(n)]


def mat_poly(F: Field, g, A):
    n = len(A)
    out = mat_scalar(F, n, 0)
    for c in reversed(g):
        out = mat_mul(F, out, A)
        if c:
            for i in range(n):
                out[i][i] = F.add(out[i][i], c)
    return out


def mat_pow(F: Field, A, e: int):
    out = mat_scalar(F, len(A), 1)
    for _ in range(e):
        out = mat_mul(F, out, A)
    return out


def as_lists(M):
    return [list(r) for r in M]


# ---------------------------------------------------------------------------
# Spectrum bookkeeping
# ---------------------------------------------------------------------------


def max_ideal_counts(q: int, factor_degrees: list[int], bound: int) -> dict[int, int]:
    """Frobenius orbits of points (xi, rho) off V(f^p) with residue degree exactly j.

    N_t = (q^t - r_t) q^t points lie in F_{q^t}^2 off the locus, r_t being the
    number of roots of f in F_{q^t}; Mobius inversion over t | j leaves the
    points of exact degree j, which fall into orbits of size j.
    """
    def n_points(t: int) -> int:
        r_t = sum(e for e in factor_degrees if t % e == 0)
        return (q**t - r_t) * q**t

    out = {}
    for j in range(1, bound + 1):
        exact = sum(mobius(j // t) * n_points(t) for t in range(1, j + 1) if j % t == 0)
        require(exact % j == 0, "exact-degree point count is not a multiple of the orbit size")
        out[j] = exact // j
    return out


def lcm_all(nums) -> int:
    out = 1
    for n in nums:
        out = out * n // gcd(out, n)
    return out


def factor_degrees(F: Field, f) -> list[int]:
    """Sorted degrees of the distinct irreducible factors of f (distinct-degree split)."""
    g = pmonic(F, f)
    g = pdivmod(F, g, pgcd(F, g, pderiv(F, g)))[0] if pderiv(F, g) else g
    x, h, d, out = [0, 1], [0, 1], 0, []
    while len(g) > 1:
        d += 1
        h = ppowmod(F, h, F.q, g)
        gd = pgcd(F, psub(F, h, x), g)
        if len(gd) > 1:
            out.append(d)
            g = pdivmod(F, g, gd)[0]
            h = pmod(F, h, g) if len(g) > 1 else h
    return out


def has_factor_of_degree(F: Field, g, d: int) -> bool:
    """Whether g has an irreducible factor of degree exactly d."""
    if len(g) <= d:
        return False
    x = [0, 1]
    G = pgcd(F, psub(F, ppowmod(F, x, F.q**d, g), x), g)
    for e in range(1, d):
        if d % e == 0 and len(G) > 1:
            G = pdivmod(F, G, pgcd(F, psub(F, ppowmod(F, x, F.q**e, G), pmod(F, x, G)), G))[0]
    return len(G) > 1
