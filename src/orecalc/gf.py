"""Exact arithmetic in finite fields F_{p^m} and explicit subfield towers.

Representation
--------------
An element of F_{p^m} = F_p[t]/(modulus) is the coefficient vector
(c_0, ..., c_{m-1}) of its residue w.r.t. the power basis 1, t, ..., t^{m-1},
packed into the integer c_0 + c_1 p + ... + c_{m-1} p^{m-1}.  Packing gives a
canonical total order on elements (used wherever a deterministic choice is
needed) and O(1) hashing.  FieldDesc works on packed integers; FqElement is
the thin operator-overloading wrapper around (field, value).

Moduli default to the lexicographically smallest monic irreducible of the
required degree (scanning packed values upward, each candidate tested by
Rabin's test, poly.is_irreducible, over F_p), so field construction is
reproducible across runs; an explicit modulus passes the same test.  Prime
fields (m = 1) compute on plain ints mod p and keep no tables.  Extension
fields with q <= 2^16 keep a digit string and three lists, about 60 bytes
per element.  The digit string is one bytes object of q*m digits, those of
v at v*m, digit 0 first.  The lists hold exp and log to the smallest
multiplicative generator g, through which multiplication, inversion and
powering go, and, for odd p, the Zech logarithms Z(n) = log(1 + g^n)
(K. Huber, IEEE Trans. IT 36, 1990), with no entry at n = (q-1)/2, where
1 + g^n = 0: then a + b = g^(log a + Z(log b - log a)),
-a = g^(log a + (q-1)/2), and a - b is the sum with that offset on log b,
so no operand is unpacked.  In characteristic 2 a sum is the XOR of packed
values.  The lists share one int object per value.  Multiplying by g is
F_p-linear, so exp is built from the images of the low and the high half
of the digits: in characteristic 2 a step is the XOR of two lookups; for
odd p the images are written in base 2p - 1, where their sum carries
nothing, and two tables over base-(2p-1) numerals reduce its digits mod p
back to packed values.  Fields too large for tables (q > 2^16) add digit
by digit (add_digits, also the test oracle for the Zech sum) and multiply
by one Kronecker product of slot-packed digit vectors (D. Harvey,
J. Symbolic Comput. 44, 2009), whose high slots are folded back through the
stored slot-packed images of t^m, ..., t^(2m-2); the same product finds the
generator and the log tables of the smaller fields.

A FieldTower fixes a base K = F_{p^k} inside an extension L = F_{p^M},
k | M, with the embedding stored explicitly: for every level j | M the image
of the canonical degree-j generator is the packed-smallest root of its
modulus in L.  All subfield tests, lifts and lowerings go through the tower,
never through implicit coercions.

Packed F_p vectors
------------------
Over a prime field, linear algebra keeps a whole vector in one int: entry i
sits in slot i, a field of `width` bytes in native byte order, and slots
are not reduced mod p until they are read.  A row operation v - c*row is
then the single big-int step v + (p - c)*row, and a matrix applied to a
vector is one sum of packed columns scaled by its entries (LinearMap).  The
width is the fewest bytes (rounded up to an array item size when there is
one) that hold the largest value a slot can reach: (p-1) + n(p-1)^2 in a
Span of length-n vectors, which meets at most n stored rows, and n(p-1)^2
in a product with inner dimension n.  Span and LinearMap use the format
(FieldDesc.mat_mul applies A's rows to the LinearMap of B's rows), and so
does FieldDesc._mul_slow on the digit vectors of extension-field elements,
with slots sized for m(p-1)^2 + p.
"""

from __future__ import annotations

import operator
import shlex
import sys
from array import array

from .errors import DomainError, InternalCheckError

_LOG_TABLE_LIMIT = 1 << 16

# Default desk-scale caps; overridable per call.
DEFAULT_P_CAP = 13
DEFAULT_Q_CAP = 1 << 20
# Most pairs (xi, rho) spectrum covers, sum_j q^(2j) over residue degrees j up
# to its bound (not overridable).  It lists one point per Frobenius orbit,
# about sum_j q^(2j)/j, so the cap bounds its output; GF(13) up to degree 3,
# 4,855,539 pairs, is within it.
SPECTRUM_PAIR_CAP = 1 << 26


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first 13 prime bases, exact below 3.317 * 10^24
    (J. Sorenson and J. Webster, Math. Comp. 86, 2017).  Above that bound a
    composite may pass; it is then past the characteristic cap, so with the
    default caps only which refusal message prints can differ."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    if n < 2 or any(n % a == 0 for a in bases):
        return n in bases
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    for a in bases:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


def field_spec(field: FieldDesc) -> str:
    """The field as the CLI reads it, with its modulus when m > 1."""
    return repr(field) if field.m == 1 else f"GF({field.p}^{field.m}, mod={','.join(map(str, field.modulus))})"


def _reproducer(command: str, spec: str, *opts: str) -> str:
    """The one-line CLI call that repeats a computation over the field that
    spec reads as, for check errors."""
    return "reproduce: " + shlex.join(["orecalc", command, "--field", spec, *opts])


def _build_error(stage: str, spec: str, msg: str) -> InternalCheckError:
    """A failed check while the field spec is built; every command builds its
    --field first, so the centre of x repeats it."""
    return InternalCheckError(f"{msg}; {_reproducer('centre', spec, '--f', 'x')}", stage)


# Array item sizes (bytes) with their typecodes, for packing and unpacking
# slots of those widths in C.
_SLOT_CODES = {array(code).itemsize: code for code in "QLIHB"}


def _slot_width(bound: int) -> int:
    """Bytes per slot for values up to bound."""
    need = max(1, (bound.bit_length() + 7) // 8)
    return next((w for w in sorted(_SLOT_CODES) if w >= need), need)


def _pack(vec, width: int) -> int:
    """The entries of vec (nonnegative, each fitting width bytes) in slots."""
    code = _SLOT_CODES.get(width)
    if code is not None:
        return int.from_bytes(array(code, vec).tobytes(), sys.byteorder)
    return int.from_bytes(b"".join(a.to_bytes(width, sys.byteorder) for a in vec), sys.byteorder)


def _unpack(x: int, n: int, width: int, p: int) -> list[int]:
    """The n slots of x, each reduced mod p."""
    raw = x.to_bytes(n * width, sys.byteorder)
    code = _SLOT_CODES.get(width)
    if code is not None:
        return [a % p for a in array(code, raw)]
    return [int.from_bytes(raw[i : i + width], sys.byteorder) % p for i in range(0, len(raw), width)]


def _digit_sums(tables) -> list[int]:
    """Entry sum c_i b^i holds sum tables[i][c_i], where b = len(tables[i])."""
    out = [0]
    for t in tables:
        out = [a + x for x in t for a in out]
    return out


def _unpack_int(v: int, m: int, p: int) -> list[int]:
    out = []
    for _ in range(m):
        v, r = divmod(v, p)
        out.append(r)
    return out


_MODULUS_CACHE: dict[tuple[int, int], tuple[int, ...]] = {}


def _is_irreducible(p: int, coeffs) -> bool:
    """Rabin's test (poly.is_irreducible) on a coefficient vector over F_p."""
    from .poly import Poly, is_irreducible

    return is_irreducible(Poly.from_values(GF(p, p_cap=p), coeffs))


def canonical_modulus(p: int, m: int) -> tuple[int, ...]:
    """Packed-smallest monic irreducible of degree m over F_p."""
    if m == 1:
        return (0, 1)
    key = (p, m)
    hit = _MODULUS_CACHE.get(key)
    if hit is not None:
        return hit
    for v in range(p**m):
        cand = (*_unpack_int(v, m, p), 1)
        if v % p and _is_irreducible(p, cand):  # t divides a zero constant term
            _MODULUS_CACHE[key] = cand
            return cand
    raise _build_error("gf.modulus", f"GF({p}^{m})", f"no irreducible of degree {m} over F_{p}")


class LinearMap:
    """The matrix with the given columns, each of length n, applied to a
    vector v as sum_j v_j col_j; v may be longer than the list of columns,
    and its extra entries are ignored.  Over a prime field each column is
    packed once and a product is one sum of packed columns scaled by the
    entries of v, unpacked mod p; over an extension field it is one
    FieldDesc.dot per row.  append adds a column, up to max(n, the number
    of columns given), the most a product's slots are sized for."""

    __slots__ = ("field", "n", "_cap", "_width", "_cols", "_rows")

    def __init__(self, F: "FieldDesc", n: int, cols=()):
        cols = list(cols)
        self.field, self.n, self._cap = F, n, max(n, len(cols))
        if F.m == 1:
            self._width = _slot_width(self._cap * (F.p - 1) ** 2)
            self._cols = [_pack(col, self._width) for col in cols]
        else:
            self._cols = cols
            self._rows = [list(row) for row in zip(*cols)] or [[] for _ in range(n)]

    def append(self, col) -> None:
        if len(self._cols) >= self._cap:
            raise DomainError(f"a LinearMap of length-{self.n} columns holds at most {self._cap} columns")
        if self.field.m == 1:
            self._cols.append(_pack(col, self._width))
        else:
            self._cols.append(col)
            for row, v in zip(self._rows, col):
                row.append(v)

    def apply(self, v) -> list[int]:
        F = self.field
        if F.m == 1:
            return _unpack(sum(map(operator.mul, v, self._cols)), self.n, self._width, F.p)
        return [F.dot(row, v) for row in self._rows]


# ---------------------------------------------------------------------------
# Field descriptors
# ---------------------------------------------------------------------------


class FieldDesc:
    """F_{p^m} with a fixed modulus; all methods operate on packed values."""

    def __init__(self, p: int, m: int, modulus: tuple[int, ...]):
        self.p = p
        self.m = m
        self.q = p**m
        self.modulus = modulus
        self._pw = tuple(p**i for i in range(m + 1))
        self._has_tables = m > 1 and self.q <= _LOG_TABLE_LIMIT
        self._zech = None
        # for _mul_slow: the slot width of a Kronecker product, and the
        # slot-packed images of t^(m+i) mod modulus for i < m - 1
        self._kw = w = _slot_width(m * (p - 1) ** 2 + p)
        t_m = [-c % p for c in modulus[:m]]
        img, self._red = t_m, []
        for _ in range(m - 1):
            self._red.append(_pack(img, w))
            img = [(a + img[-1] * c) % p for a, c in zip([0, *img[:-1]], t_m)]
        if self._has_tables:
            # the digits of v sit at v*m, digit 0 first: digit i of 0, 1, ...
            # is p^i zeros, p^i ones, ..., repeated
            digits = bytearray(self.q * m)
            for i, pi in enumerate(self._pw[:m]):
                digits[i::m] = b"".join(bytes([c]) * pi for c in range(p)) * (self.q // pi // p)
            self._digits = bytes(digits)
            self._build_log_tables()
        else:
            self._digits = None
            self.generator = self._find_generator()

    # -- construction helpers ------------------------------------------------

    def _mul_slow(self, a: int, b: int) -> int:
        """a*b without tables: one Kronecker product of the packed digit
        vectors, whose slot m + i then adds its multiple of the image of
        t^(m+i); slots are reduced mod p when they are read.  A prime-field
        operand scales the other's digits."""
        p, m, w = self.p, self.m, self._kw
        if a < p or b < p:
            c, v = (a, b) if a < p else (b, a)
            return self.pack([c * d for d in self.unpack(v)])
        prod = _unpack(_pack(self.unpack(a), w) * _pack(self.unpack(b), w), 2 * m - 1, w, p)
        acc = _pack(prod[:m], w) + sum(map(operator.mul, prod[m:], self._red))
        return self.pack(_unpack(acc, m, w, p))

    def _pow_slow(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_slow(r, a)
            a = self._mul_slow(a, a)
            e >>= 1
        return r

    def _find_generator(self) -> int:
        n = self.q - 1
        if n == 1:
            return 1
        primes = prime_factors(n)
        for g in range(2, self.q):
            if all(self._pow_slow(g, n // r) != 1 for r in primes):
                return g
        raise _build_error("gf.generator", field_spec(self), "no multiplicative generator found")

    def _build_log_tables(self) -> None:
        self.generator = g = self._find_generator()
        p, m, pw, q1 = self.p, self.m, self._pw, self.q - 1
        # x -> g*x is F_p-linear: tabulate it on the low h digits and on the
        # high m - h digits, so each power of g is one sum of two lookups
        h = (m + 1) // 2
        imgs = [self._mul_slow(pw[i], g) for i in range(m)]
        lo, hi = self._linear_images(imgs[:h]), self._linear_images(imgs[h:])
        exp = [1] * q1
        if p == 2:
            cur, mask = 1, pw[h] - 1
            for i in range(1, q1):
                cur = lo[cur & mask] ^ hi[cur >> h]
                exp[i] = cur
        else:
            # written in base B = 2p - 1, two images add digit by digit with
            # no carry.  The state is g^i as the base-B numerals y and x of
            # its low and high digits; rlo[y] + rhi[x] reduces their digits
            # mod p to the packed g^i, and lo2[y] + hi2[x] is g^(i+1) in base B
            B = 2 * p - 1
            rlo = _digit_sums([[c % p * pw[i] for c in range(B)] for i in range(h)])
            rhi = _digit_sums([[c % p * pw[i] for c in range(B)] for i in range(h, m)])
            Bpw = [B**i for i in range(m)]
            lo2 = [sum(map(operator.mul, self.unpack(lo[a]), Bpw)) for a in rlo]
            hi2 = [sum(map(operator.mul, self.unpack(hi[b // pw[h]]), Bpw)) for b in rhi]
            Bh, x, y = B**h, 0, 1
            for i in range(1, q1):
                x, y = divmod(lo2[y] + hi2[x], Bh)
                exp[i] = rlo[y] + rhi[x]
        # one int object per value, shared by the three tables
        vals = list(range(self.q))
        self._exp = exp = list(map(vals.__getitem__, exp))
        self._log = log = [0] * self.q
        for i, v in zip(vals, exp):
            log[v] = i
        if p != 2:
            # Zech logarithms Z(n) = log(1 + g^n): adding 1 changes digit 0
            # only, and 1 + g^n = 0 exactly at g^n = -1, n = (q-1)/2
            self._q1, self._half = q1, q1 // 2
            zech = [log[v - v % p + (v + 1) % p] for v in exp]
            zech[self._half] = None
            self._zech = zech

    def _linear_images(self, imgs: list[int]) -> list[int]:
        """Entry sum c_i p^i holds sum c_i imgs[i], for all digit vectors c."""
        out = [0]
        for img in imgs:
            mults = [0]
            for _ in range(1, self.p):
                mults.append(self.add(mults[-1], img))
            out = [self.add(a, cm) for cm in mults for a in out]
        return out

    # -- packing -------------------------------------------------------------

    def pack(self, coeffs) -> int:
        v = 0
        for i, c in enumerate(coeffs):
            v += (c % self.p) * self._pw[i]
        return v

    def _digit_seq(self, v: int):
        """The m digits of v, low first, as a slice of the digit table or a list."""
        if self._digits is not None:
            i = v * self.m
            return self._digits[i : i + self.m]
        return _unpack_int(v, self.m, self.p)

    def unpack(self, v: int) -> tuple[int, ...]:
        return tuple(self._digit_seq(v))

    # -- arithmetic on packed values ------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a + b) % self.p
        if self._zech is None:
            return self.add_digits(a, b)
        # a + b = g^(log a + Z(log b - log a)); a negative index wraps
        # around, so neither index needs reducing mod q - 1
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        z = self._zech[log[b] - la]
        return 0 if z is None else self._exp[la + z - self._q1]

    def add_digits(self, a: int, b: int) -> int:
        """a + b digit by digit: the sum in fields without Zech tables, and
        the oracle for the tabled sum."""
        da, db, p, pw = self._digit_seq(a), self._digit_seq(b), self.p, self._pw
        v = 0
        for i in range(self.m):
            v += ((da[i] + db[i]) % p) * pw[i]
        return v

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.m == 1:
            return -a % self.p
        if self._zech is None:
            return self.pack(tuple((-d) % self.p for d in self.unpack(a)))
        # -1 = g^((q-1)/2)
        return self._exp[self._log[a] - self._half] if a else 0

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.m == 1:
            return (a - b) % self.p
        if self._zech is None:
            return self.pack([x - y for x, y in zip(self.unpack(a), self.unpack(b))])
        if not b:
            return a
        log, exp = self._log, self._exp
        lnb = log[b] - self._half  # an index of -b in exp
        if not a:
            return exp[lnb]
        la = log[a]
        z = self._zech[(lnb - la) % self._q1]
        return 0 if z is None else exp[la + z - self._q1]

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._has_tables:
            return self._exp[(self._log[a] + self._log[b]) % (self.q - 1)]
        if self.m == 1:
            return a * b % self.p
        return self._mul_slow(a, b)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DomainError("inverse of zero")
        if self._has_tables:
            return self._exp[(-self._log[a]) % (self.q - 1)]
        if self.m == 1:
            return pow(a, self.p - 2, self.p)
        return self._pow_slow(a, self.q - 2)

    def row_sub(self, v, c: int, row) -> list[int]:
        """The vector v - c*row, entrywise."""
        return [self.sub(a, self.mul(c, b)) for a, b in zip(v, row)]

    def dot(self, u, v) -> int:
        """The inner product sum u_i v_i."""
        if self.m == 1:
            return sum(map(operator.mul, u, v)) % self.p
        acc = 0
        for a, b in zip(u, v):
            if a and b:
                acc = self.add(acc, self.mul(a, b))
        return acc

    def mat_mul(self, A, B) -> tuple[tuple[int, ...], ...]:
        """The product A B of row-major matrices: row i is row i of A
        applied to the LinearMap whose columns are the rows of B."""
        rows = LinearMap(self, len(B[0]) if B else 0, B)
        return tuple(tuple(rows.apply(row)) for row in A)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e > 0:
                return 0
            if e == 0:
                return 1
            raise DomainError("inverse of zero")
        if self._has_tables:
            return self._exp[(self._log[a] * e) % (self.q - 1)]
        if self.m == 1:
            return pow(a, e % (self.q - 1), self.p)
        if e < 0:
            a, e = self._pow_slow(a, self.q - 2), -e
        return self._pow_slow(a, e % (self.q - 1)) if e else 1

    def frob(self, a: int, t: int = 1) -> int:
        """a^(p^t)."""
        if a == 0:
            return 0
        return self.pow(a, pow(self.p, t, self.q - 1) if self.q > 2 else 1)

    def pth_root(self, a: int) -> int:
        """The unique b with b^p = a (Frobenius is bijective)."""
        return self.frob(a, self.m - 1) if self.m > 1 else a

    def order_of(self, a: int) -> int:
        if a == 0:
            raise DomainError("multiplicative order of zero")
        n = self.q - 1
        for r in prime_factors(n):
            while n % r == 0 and self.pow(a, n // r) == 1:
                n //= r
        return n

    # -- element interface -----------------------------------------------------

    def element(self, x) -> "FqElement":
        """x as an element: an int n is the integer n mod p, not a packed
        value (from_value takes those); a digit sequence is packed."""
        if isinstance(x, FqElement):
            if x.field is not self:
                raise DomainError("element belongs to a different field")
            return x
        if isinstance(x, int):
            return FqElement(self, x % self.p)
        return FqElement(self, self.pack(x))

    def from_value(self, v: int) -> "FqElement":
        return FqElement(self, v)

    @property
    def zero(self) -> "FqElement":
        return FqElement(self, 0)

    @property
    def one(self) -> "FqElement":
        return FqElement(self, 1)

    @property
    def gen(self) -> "FqElement":
        """The residue class of t (zero when m == 1 and modulus is t)."""
        return FqElement(self, self._pw[1] if self.m > 1 else (-self.modulus[0]) % self.p)

    @property
    def prime_field(self) -> "FieldDesc":
        """F_p, over which digit vectors (unpacked values) are computed."""
        return GF(self.p, p_cap=self.p)

    def elements(self):
        return range(self.q)

    def units(self):
        return range(1, self.q)

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.m})"

    def describe(self) -> dict:
        return {"p": self.p, "degree": self.m, "modulus": list(self.modulus)}

    def __reduce__(self):  # unpickled as the cached field: equality of Poly is by field identity
        return _cached_field, (self.p, self.m, self.modulus)


_FIELD_CACHE: dict[tuple[int, int, tuple[int, ...]], FieldDesc] = {}


def GF(p: int, m: int = 1, modulus=None, *, p_cap: int | None = None, q_cap: int | None = None) -> FieldDesc:
    """Cached field constructor; identical arguments return the same object."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if m < 1:
        raise DomainError("extension degree must be >= 1")
    if p > (p_cap if p_cap is not None else DEFAULT_P_CAP):
        raise DomainError(f"characteristic {p} exceeds the configured cap")
    q_cap = q_cap if q_cap is not None else DEFAULT_Q_CAP
    if m >= q_cap.bit_length() or p**m > q_cap:  # p^m >= 2^m: no huge power is built
        raise DomainError(f"field size {p}^{m} exceeds the configured cap")
    if modulus is None:
        mod = canonical_modulus(p, m)
    else:
        mod = tuple(c % p for c in modulus)
        if len(mod) != m + 1 or mod[-1] != 1:
            raise DomainError("modulus must be monic of the stated degree")
        if not _is_irreducible(p, mod):
            raise DomainError("modulus is reducible")
    return _cached_field(p, m, mod)


def _cached_field(p: int, m: int, mod: tuple[int, ...]) -> FieldDesc:
    field = _FIELD_CACHE.get((p, m, mod))
    if field is None:
        field = _FIELD_CACHE[(p, m, mod)] = FieldDesc(p, m, mod)
    return field


class FqElement:
    """A field element: a FieldDesc plus a packed value."""

    __slots__ = ("field", "val")

    def __init__(self, field: FieldDesc, val: int):
        self.field = field
        self.val = val

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.unpack(self.val)

    def _coerce(self, other) -> int:
        if isinstance(other, FqElement):
            if other.field is not self.field:
                raise DomainError("mixed-field arithmetic is not defined")
            return other.val
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.add(self.val, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.sub(self.val, v))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.sub(v, self.val))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.mul(self.val, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.div(self.val, v))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return FqElement(self.field, self.field.div(v, self.val))

    def __pow__(self, e: int):
        return FqElement(self.field, self.field.pow(self.val, e))

    def __neg__(self):
        return FqElement(self.field, self.field.neg(self.val))

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        if isinstance(other, FqElement):
            return self.field is other.field and self.val == other.val
        if isinstance(other, int):
            return self.val == other % self.field.p and self.val < self.field.p
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.val))

    def __repr__(self):
        if self.field.m == 1:
            return str(self.val)
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"


# ---------------------------------------------------------------------------
# Linear algebra over a field: one echelon for word spans over F and, over the
# prime field, for digit vectors (subfields, shift spaces, descent).
# ---------------------------------------------------------------------------


class Span:
    """Row space over F, echelonized as vectors are added.

    Every stored row is monic at its pivot (its first nonzero entry) and
    vanishes at the pivots of the rows stored before it, so one pass in
    storage order reduces a vector.  Each row keeps the multipliers of its
    own reduction, from which coords() rewrites a member of the span over
    the added vectors that enlarged it.

    Over a prime field a row is stored packed (see the module docstring):
    the first vector fixes the length n, and slots are sized for
    (p-1) + n(p-1)^2, since a vector with entries below p meets at most n
    stored rows, each reduced below p and scaled by at most p - 1.  A slot
    is reduced mod p only when it is read: at a pivot, and when the reduced
    vector is unpacked.  Over an extension field rows are lists and the row
    operation is FieldDesc.row_sub.
    """

    def __init__(self, F: FieldDesc):
        self.F = F
        self._pivots: list[int] = []
        self._rows: list = []  # packed ints over a prime field, lists otherwise
        # per row: (index, c) of the rows subtracted from its added vector,
        # and the inverse of the pivot entry that the reduction left
        self._mults: list[list[tuple[int, int]]] = []
        self._inv: list[int] = []
        self._n: int | None = None  # vector length, fixed by the first vector
        self._width = 0  # bytes per slot of a packed row

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _load(self, vec):
        """vec in the form rows are stored in."""
        if self._n is None:
            p = self.F.p
            self._n = len(vec)
            self._width = _slot_width(p - 1 + self._n * (p - 1) ** 2)
        elif len(vec) != self._n:
            raise DomainError("vectors of one span must have one length")
        if self.F.m > 1:
            return list(vec)
        return _pack(vec, self._width)

    def _unload(self, v) -> list[int]:
        """The entries of a loaded vector, reduced."""
        if self.F.m > 1:
            return v
        return _unpack(v, self._n, self._width, self.F.p)

    def _eliminate(self, v, pivots, rows) -> tuple:
        """Loaded v minus the multiples of the rows that clear it at their
        pivots, in order, with the (index, multiplier) of each subtraction."""
        F, mults = self.F, []
        if F.m > 1:
            for i, (piv, row) in enumerate(zip(pivots, rows)):
                c = v[piv]
                if c:
                    mults.append((i, c))
                    v = F.row_sub(v, c, row)
            return v, mults
        p, bits = F.p, 8 * self._width
        mask = (1 << bits) - 1
        for i, (piv, row) in enumerate(zip(pivots, rows)):
            c = (v >> piv * bits & mask) % p
            if c:
                mults.append((i, c))
                v += (p - c) * row
        return v, mults

    def _reduce(self, vec) -> tuple[list[int], list[tuple[int, int]]]:
        v, mults = self._eliminate(self._load(vec), self._pivots, self._rows)
        return self._unload(v), mults

    def add(self, vec) -> bool:
        """Add a vector; returns True when it enlarges the span."""
        F = self.F
        v, mults = self._reduce(vec)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = F.inv(v[piv])
        self._pivots.append(piv)
        self._rows.append(self._load([F.mul(a, inv) for a in v]))
        self._mults.append(mults)
        self._inv.append(inv)
        return True

    def coords(self, vec) -> list[int] | None:
        """Coefficients over the added vectors that enlarged the span, in the
        order they were added, or None when vec lies outside the span."""
        F = self.F
        v, mults = self._reduce(vec)
        if any(v):
            return None
        # vec = sum d_i row_i, and added vector k = row_k / inv_k + sum c row_i
        # over its own multipliers; substitute from the last row down
        d = [0] * self.rank
        for i, c in mults:
            d[i] = c
        for k in range(self.rank - 1, -1, -1):
            d[k] = F.mul(d[k], self._inv[k])
            if d[k]:
                for i, c in self._mults[k]:
                    d[i] = F.sub(d[i], F.mul(d[k], c))
        return d

    def reduce(self, vec) -> list[int]:
        """vec minus the member of the span that clears it at every pivot."""
        return self._reduce(vec)[0]

    def basis(self) -> list[tuple[int, ...]]:
        """The reduced echelon basis, sorted by pivot (unique for the space)."""
        order = sorted(range(self.rank), key=self._pivots.__getitem__)
        rows = [self._rows[i] for i in order]
        pivots = [self._pivots[i] for i in order]
        # a row is zero before its pivot, so only rows of larger pivot need
        # clearing from it; going up, those are final and clear of each
        # other's pivots, and each result is reloaded reduced before use
        for k in range(len(rows) - 2, -1, -1):
            v, _ = self._eliminate(rows[k], pivots[k + 1 :], rows[k + 1 :])
            rows[k] = self._load(self._unload(v))
        return [tuple(self._unload(r)) for r in rows]


def span_values(field: FieldDesc, basis_vals) -> tuple[int, ...]:
    """Sorted packed values of the F_p-span of the given packed values."""
    vals = {0}
    for b in basis_vals:
        bv = b if isinstance(b, int) else field.element(b).val
        cur = list(vals)
        step = 0
        for _ in range(1, field.p):
            step = field.add(step, bv)
            vals.update(field.add(v, step) for v in cur)
    return tuple(sorted(vals))


# ---------------------------------------------------------------------------
# Roots of unity and subfield predicates
# ---------------------------------------------------------------------------


def min_field_of_unity(n: int, p: int) -> int:
    """Smallest m with n | p^m - 1 (the degree hosting a primitive n-th root)."""
    if n < 1:
        raise DomainError("n must be positive")
    if n == 1:
        return 1
    if n % p == 0:
        raise DomainError(f"no primitive {n}-th roots of unity in characteristic {p}")
    m, r = 1, p % n
    while r != 1:
        r = (r * p) % n
        m += 1
    return m


def primitive_root_of_unity(n: int, field: FieldDesc) -> FqElement:
    """Canonical element of multiplicative order exactly n."""
    if n < 1:
        raise DomainError("n must be positive")
    if (field.q - 1) % n != 0:
        raise DomainError(f"{field!r} has no element of order {n}")
    return FqElement(field, field.pow(field.generator, (field.q - 1) // n))


def in_subfield(a: FqElement, k: int) -> bool:
    """Whether a lies in F_{p^k} <= its field; requires k | m."""
    if a.field.m % k != 0:
        raise DomainError(f"F_{{p^{k}}} is not a subfield of {a.field!r}")
    return a.field.frob(a.val, k) == a.val


def pth_root(a: FqElement) -> FqElement:
    return FqElement(a.field, a.field.pth_root(a.val))


# ---------------------------------------------------------------------------
# Towers
# ---------------------------------------------------------------------------


class TowerLevel:
    """A subfield F_{p^j} of the tower's extension with an explicit embedding;
    a failed embedding check raises InternalCheckError at stage gf.tower."""

    def __init__(self, tower: "FieldTower", j: int, desc: FieldDesc):
        self.tower = tower
        self.j = j
        self.desc = desc
        ext = tower.ext
        if desc is ext:
            self.gen_img = desc.gen.val
            self.pows = tuple(ext.pow(self.gen_img, i) for i in range(j))
            self._solver = None
            return
        from .poly import Poly, split_equal_degree

        def error(msg: str) -> InternalCheckError:  # no CLI call builds a given level
            return InternalCheckError(f"{msg}: level {j} of tower_over({field_spec(tower.base)}, {ext.m})", "gf.tower")

        roots = [ext.neg(u.c[0]) for u in split_equal_degree(Poly(ext, desc.modulus), 1)]
        if len(roots) != j:
            raise error("embedding root count mismatch")
        self.gen_img = min(roots)
        self.pows = tuple(ext.pow(self.gen_img, i) for i in range(j))
        solver = Span(ext.prime_field)
        for pw in self.pows:
            solver.add(ext.unpack(pw))
        if solver.rank != j:
            raise error("embedded power basis is degenerate")
        self._solver = solver

    def lift(self, a) -> int:
        """Packed ext-value of a level element (FqElement of desc or packed int)."""
        val = a.val if isinstance(a, FqElement) else a
        if self.desc is self.tower.ext:
            return val
        return self.tower.ext.dot(self.desc._digit_seq(val), self.pows)

    def lower(self, v: int) -> FqElement:
        """The level element whose lift is v; DomainError when v is outside."""
        if self.desc is self.tower.ext:
            return FqElement(self.desc, v)
        coords = self._solver.coords(self.tower.ext.unpack(v))
        if coords is None:
            raise DomainError("value does not lie in the requested subfield")
        return FqElement(self.desc, self.desc.pack(coords))


class FieldTower:
    """Base K = F_{p^k} explicitly embedded in L = F_{p^M}, k | M."""

    def __init__(self, base: FieldDesc, ext_degree: int):
        if ext_degree % base.m != 0:
            raise DomainError("extension degree must be a multiple of the base degree")
        self.base = base
        self.p = base.p
        self.ext = base if ext_degree == base.m else GF(base.p, ext_degree)
        self._levels: dict[int, TowerLevel] = {}

    def __reduce__(self):
        return tower_over, (self.base, self.M)

    @property
    def k(self) -> int:
        return self.base.m

    @property
    def M(self) -> int:
        return self.ext.m

    def level(self, j: int) -> TowerLevel:
        if self.M % j != 0:
            raise DomainError(f"F_{{p^{j}}} is not a subfield of F_{{p^{self.M}}}")
        lvl = self._levels.get(j)
        if lvl is None:
            desc = self.base if j == self.k else (self.ext if j == self.M else GF(self.p, j))
            lvl = TowerLevel(self, j, desc)
            self._levels[j] = lvl
        return lvl

    def lift(self, a: FqElement) -> int:
        """Packed ext-value of a base element."""
        if a.field is self.ext:
            return a.val
        if a.field is not self.base:
            raise DomainError("lift expects a base-field element")
        return self.level(self.k).lift(a)

    def lower(self, v: int, j: int | None = None) -> FqElement:
        return self.level(self.k if j is None else j).lower(v)

    def in_subfield(self, v: int, j: int) -> bool:
        if self.M % j != 0:
            raise DomainError(f"F_{{p^{j}}} is not a subfield of F_{{p^{self.M}}}")
        return self.ext.frob(v, j) == v


_TOWER_CACHE: dict[tuple[int, tuple, int], FieldTower] = {}


def tower_over(base: FieldDesc, ext_degree: int) -> FieldTower:
    key = (base.p, (base.m, base.modulus), ext_degree)
    tw = _TOWER_CACHE.get(key)
    if tw is None:
        tw = FieldTower(base, ext_degree)
        _TOWER_CACHE[key] = tw
    return tw
