"""Finite field arithmetic: axioms, Frobenius, roots of unity, towers."""

import random
import tracemalloc

import pytest

from orecalc import gf
from orecalc.errors import DomainError
from orecalc.gf import (
    GF,
    LinearMap,
    Span,
    canonical_modulus,
    divisors,
    in_subfield,
    is_prime,
    min_field_of_unity,
    primitive_root_of_unity,
    prime_factors,
    pth_root,
    tower_over,
)
from orecalc.gf import _unpack_int

from oracles import is_prime_oracle, subfield_values

ALL_FIELDS = []
for p in (2, 3, 5, 7, 11, 13):
    m = 1
    while p**m <= 128:
        ALL_FIELDS.append((p, m))
        m += 1


def test_small_number_theory():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert prime_factors(1) == []
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_is_prime_matches_trial_division():
    """Miller-Rabin on the first 13 prime bases agrees with trial division
    on every n < 10^6 (by the sieve of Eratosthenes), on seeded n < 10^12,
    on products of two primes near 10^6 and on strong pseudoprimes to the
    first 4 and 12 bases.  The least strong pseudoprime to all 13 bases,
    about 3.317 * 10^24, is where it stops being exact; GF refuses it as
    past the cap rather than as composite."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (10**6 - 2)
    for i in range(2, 1001):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, 10**6, i)))
    assert [n for n in range(10**6) if is_prime(n)] == [n for n in range(10**6) if sieve[n]]
    rng = random.Random(41)
    near = [999953, 999959, 999961, 999979, 999983]
    cases = [rng.randrange(10**12) for _ in range(300)] + [a * b for a in near for b in near]
    cases += [3215031751, 2152302898747, 318665857834031151167461]
    assert [is_prime(n) for n in cases] == [is_prime_oracle(n) for n in cases[:-1]] + [False]
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521 and is_prime(psi13)
    with pytest.raises(DomainError, match=f"^characteristic {psi13} exceeds the configured cap"):
        GF(psi13)


def test_field_size_cap_is_checked_before_the_power():
    """m past the bit length of the q cap is refused without computing p^m."""
    with pytest.raises(DomainError, match="^field size 2\\^21 exceeds"):
        GF(2, 21)
    with pytest.raises(DomainError, match="^field size 3\\^10000000000 exceeds"):
        GF(3, 10**10)
    assert GF(2, 20, q_cap=1 << 20).q == 1 << 20


def test_constructor_validation():
    with pytest.raises(DomainError):
        GF(6)
    with pytest.raises(DomainError):
        GF(2, 0)
    with pytest.raises(DomainError):
        GF(2, 2, (0, 0, 1))  # t^2 is reducible
    with pytest.raises(DomainError):
        GF(2, 2, (1, 1))  # not of the stated degree
    assert GF(5) is GF(5)
    assert GF(2, 2) is GF(2, 2, canonical_modulus(2, 2))


def test_canonical_moduli_are_deterministic_and_known():
    assert canonical_modulus(2, 1) == (0, 1)
    assert canonical_modulus(2, 2) == (1, 1, 1)
    assert canonical_modulus(2, 3) == (1, 1, 0, 1)
    assert canonical_modulus(3, 2) == (1, 0, 1)
    for p, m in ALL_FIELDS:
        mod = canonical_modulus(p, m)
        assert len(mod) == m + 1 and mod[-1] == 1
        assert mod == canonical_modulus(p, m)


# ---------------------------------------------------------------------------
# Schoolbook arithmetic over F_p on coefficient lists (low degree first): the
# trial-division modulus search and the product that FieldDesc._mul_slow and
# the Rabin search in gf.py replaced, kept here as their oracles.
# ---------------------------------------------------------------------------


def _fp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _fp_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _fp_trim(out)


def _fp_mod(a, b, p):
    a, inv_lb = _fp_trim(list(a)), pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c, shift = a[-1] * inv_lb % p, len(a) - len(b)
        for i, bi in enumerate(b):
            a[shift + i] = (a[shift + i] - c * bi) % p
        _fp_trim(a)
    return a


def _fp_digits(v, m, p):
    out = []
    for _ in range(m):
        v, r = divmod(v, p)
        out.append(r)
    return out


def _fp_is_irreducible(f, p):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    d = len(f) - 1
    if d < 1:
        return False
    return all(
        _fp_mod(f, _fp_digits(v, k, p) + [1], p)
        for k in range(1, d // 2 + 1)
        for v in range(p**k)
    )


def _fp_trial_modulus(p, m):
    """The packed-smallest monic irreducible of degree m, by trial division."""
    return next(
        tuple(c) for v in range(p**m) if _fp_is_irreducible(c := _fp_digits(v, m, p) + [1], p)
    )


def _fp_field_mul(F, a, b):
    """a*b in F by the schoolbook product reduced mod the modulus."""
    prod = _fp_mul(list(F.unpack(a)), list(F.unpack(b)), F.p)
    return F.pack(_fp_mod(prod, list(F.modulus), F.p))


def test_canonical_modulus_matches_trial_division():
    for p in (2, 3, 5, 7, 11, 13):
        m = 1
        while p**m <= 1 << 12:
            assert canonical_modulus(p, m) == _fp_trial_modulus(p, m), (p, m)
            m += 1


@pytest.mark.parametrize("p", [2, 3])
def test_explicit_modulus_classified_as_by_trial_division(p):
    """Every monic of degree 1..4 is accepted as a modulus exactly when it
    is irreducible, and a reducible one is refused by name."""
    for m in range(1, 5):
        for v in range(p**m):
            mod = _fp_digits(v, m, p) + [1]
            if _fp_is_irreducible(mod, p):
                assert GF(p, m, mod).modulus == tuple(mod)
            else:
                with pytest.raises(DomainError, match="modulus is reducible"):
                    GF(p, m, mod)


@pytest.mark.parametrize("p,m", [(2, 4), (3, 3), (5, 2), (13, 2)])
def test_mul_slow_exhaustive(p, m):
    """The Kronecker product equals the schoolbook one and the log tables."""
    F = GF(p, m)
    for a in range(F.q):
        for b in range(F.q):
            got = F._mul_slow(a, b)
            assert got == _fp_field_mul(F, a, b) == F.mul(a, b), (a, b)


@pytest.mark.parametrize("p,m", [(2, 20), (3, 12), (5, 8), (7, 7), (13, 5)])
def test_mul_slow_seeded_without_tables(p, m):
    F = GF(p, m)
    assert F._digits is None
    rng = random.Random(F.q)
    edge = [0, 1, F.q - 1, F._pw[m - 1], *range(2, p)]
    pairs = [(a, b) for a in edge for b in edge]
    pairs += [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(1500)]
    pairs += [(a, rng.randrange(F.q)) for a in edge for _ in range(10)]
    for a, b in pairs:
        assert F.mul(a, b) == _fp_field_mul(F, a, b), (a, b)


@pytest.mark.parametrize("p,m", ALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    """Exhaustive ring/field axioms for every field with p^m <= 128.

    Tables A[a][b] = a+b and M[a][b] = a*b are checked for commutativity,
    associativity, distributivity, identities and inverses by whole-row
    comparisons (map keeps the inner loop in C).
    """
    F = GF(p, m)
    q = F.q
    add, mul = F.add, F.mul
    A = [[add(a, b) for b in range(q)] for a in range(q)]
    M = [[mul(a, b) for b in range(q)] for a in range(q)]

    assert A == [list(r) for r in zip(*A)]  # commutativity of +
    assert M == [list(r) for r in zip(*M)]  # commutativity of *
    idx = list(range(q))
    assert A[0] == idx and M[1] == idx and M[0] == [0] * q

    for a in range(q):
        Aa, Ma = A[a], M[a]
        for b in range(q):
            # (a+b)+c == a+(b+c) and (a*b)*c == a*(b*c), all c at once
            assert A[Aa[b]] == list(map(Aa.__getitem__, A[b]))
            assert M[Ma[b]] == list(map(Ma.__getitem__, M[b]))
            # a*(b+c) == a*b + a*c, all c at once
            assert list(map(Ma.__getitem__, A[b])) == list(map(A[Ma[b]].__getitem__, Ma))

    # additive and multiplicative inverses exist and are computed correctly
    for a in range(q):
        assert add(a, F.neg(a)) == 0
        if a:
            assert mul(a, F.inv(a)) == 1
    with pytest.raises(DomainError):
        F.inv(0)

    # packed representation round-trips through digit vectors
    for a in range(q):
        assert F.pack(F.unpack(a)) == a


@pytest.mark.parametrize("p,m", ALL_FIELDS)
def test_frobenius_additivity_and_pth_root(p, m):
    F = GF(p, m)
    q = F.q
    P = [F.pow(a, p) for a in range(q)]
    A = [[F.add(a, b) for b in range(q)] for a in range(q)]
    for a in range(q):
        # (a+b)^p == a^p + b^p for all b at once
        assert list(map(P.__getitem__, A[a])) == [F.add(P[a], P[b]) for b in range(q)]
    for a in range(q):
        r = F.pth_root(a)
        assert F.pow(r, p) == a
        assert F.pth_root(P[a]) == a
        assert F.pow(a, q) == a  # Frobenius fixes the whole field
    # spec example: p = 3, a = 2 has cube root 2
    assert GF(3).pth_root(2) == 2


@pytest.mark.parametrize("p,m", ALL_FIELDS)
def test_multiplicative_group_cyclic(p, m):
    F = GF(p, m)
    orders = {F.order_of(a) for a in F.units()}
    assert max(orders) == F.q - 1
    for a in F.units():
        assert F.pow(a, F.q - 1) == 1


@pytest.mark.parametrize("p,m", [(2, 8), (2, 12), (3, 5), (3, 8), (5, 3), (7, 4), (13, 2)])
def test_log_tables_against_slow_powers(p, m):
    """exp/log tables against square-and-multiply on polynomial residues."""
    F = GF(p, m)
    q1 = F.q - 1
    g = F.generator
    assert all(F.order_of(a) < q1 for a in range(2, g)) and F.order_of(g) == q1
    rng = random.Random(q1)
    for i in [0, 1, q1 - 1] + [rng.randrange(q1) for _ in range(40)]:
        assert F._exp[i] == F._pow_slow(g, i)
    assert sorted(F._exp) == list(range(1, F.q))
    assert all(F._log[v] == i for i, v in enumerate(F._exp))


# Tabled fields of both characteristics with odd and even m, so with both
# ways of splitting the digits into halves, and GF(3^m) for every tabled m.
TABLE_FIELDS = [(2, 2), (2, 3), (2, 8), (2, 9), (2, 16), *((3, m) for m in range(2, 11)),
                (5, 3), (5, 6), (7, 5), (11, 2), (13, 4)]


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_tables_against_a_table_free_twin(p, m, monkeypatch):
    """Every entry of exp, log and Zech against a twin field with the same
    modulus and no tables: exp by repeated Kronecker products with g, Zech
    by add_digits on digits from _unpack_int.  The three lists share one
    int object per value."""
    F = GF(p, m)
    monkeypatch.setattr(gf, "_LOG_TABLE_LIMIT", 0)
    T = gf.FieldDesc(p, m, F.modulus)
    g = T.generator
    assert T._digits is None and g == F.generator
    exp = [1]
    for _ in range(F.q - 2):
        exp.append(T._mul_slow(exp[-1], g))
    assert sorted(exp) == list(range(1, F.q)) and T._mul_slow(exp[-1], g) == 1
    log = [0] * F.q
    for i, v in enumerate(exp):
        log[v] = i
    assert F._exp == exp and F._log == log
    assert all(F._exp[F._log[i]] is i for i in F._log[1:] if i)
    if p == 2:
        assert F._zech is None
        return
    half = (F.q - 1) // 2
    assert T.add_digits(1, exp[half]) == 0
    assert F._zech == [None if i == half else log[T.add_digits(1, v)] for i, v in enumerate(exp)]
    assert all(F._exp[F._log[z]] is z for z in F._zech if z)


@pytest.mark.parametrize("p,m", TABLE_FIELDS)
def test_digit_string_unpacks_every_value(p, m):
    F = GF(p, m)
    assert isinstance(F._digits, bytes) and len(F._digits) == F.q * m
    assert all(F.unpack(v) == tuple(_unpack_int(v, m, p)) for v in range(F.q))


@pytest.mark.parametrize("p,m,k", [(3, 8, 2), (2, 12, 4), (5, 6, 3), (3, 11, 1)])
def test_lift_and_add_digits_read_digits_without_a_tuple(p, m, k, monkeypatch):
    """TowerLevel.lift and add_digits read the digits as a slice of the
    digit table (a list where the field has none): on tabled fields they
    never build the tuple that unpack returns, and their values are
    unchanged.  (Products in an untabled field unpack their factors.)"""
    F, rng = GF(p, m), random.Random(p * m)
    assert isinstance(F._digit_seq(F.q - 1), bytes if F._digits is not None else list)
    lvl = tower_over(GF(p, k), m).level(k)
    vals = [rng.randrange(F.q) for _ in range(40)]
    low = [rng.randrange(p**k) for _ in range(40)]
    want = [F.add_digits(a, b) for a, b in zip(vals, vals[1:])], [lvl.lift(a) for a in low]
    assert want[0] == [F.pack([x + y for x, y in zip(F.unpack(a), F.unpack(b))]) for a, b in zip(vals, vals[1:])]

    def no_tuple(self, v):
        raise AssertionError("unpack called")

    if F._digits is not None:
        monkeypatch.setattr(gf.FieldDesc, "unpack", no_tuple)
    assert ([F.add_digits(a, b) for a, b in zip(vals, vals[1:])], [lvl.lift(a) for a in low]) == want


def test_tables_take_under_80_bytes_per_element():
    """GF(13^4) keeps 4 digit bytes, three list slots of 8 bytes and one
    shared int object per element."""
    mod = canonical_modulus(13, 4)
    tracemalloc.start()
    try:
        F = gf.FieldDesc(13, 4, mod)
        used, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert used / F.q < 80, used / F.q


def _assert_zech_matches_digits(F, pairs):
    """Zech add/sub/neg against digit-by-digit arithmetic on the same values."""
    neg = lambda a: F.pack([-d for d in F.unpack(a)])  # noqa: E731
    for a, b in pairs:
        assert F.add(a, b) == F.add_digits(a, b), (a, b)
        assert F.sub(a, b) == F.add_digits(a, neg(b)), (a, b)
        assert F.neg(a) == neg(a), a


@pytest.mark.parametrize("p,m", [(3, 2), (5, 2), (7, 2), (3, 3)])
def test_zech_arithmetic_exhaustive(p, m):
    F = GF(p, m)
    assert F._zech is not None
    _assert_zech_matches_digits(F, [(a, b) for a in range(F.q) for b in range(F.q)])


@pytest.mark.parametrize("p,m", [(13, 4), (5, 6), (3, 10)])
def test_zech_arithmetic_seeded(p, m):
    """Seeded pairs plus the edge cases: a zero operand, b = -a (where
    log b - log a = +-(q-1)/2 and the sum vanishes), a = b (where the
    difference vanishes), and logs at both ends of the table and around
    (q-1)/2, where the wrapped indices reach their extremes."""
    F = GF(p, m)
    assert F._zech is not None
    q1, half, exp = F.q - 1, (F.q - 1) // 2, F._exp
    rng = random.Random(F.q)
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(3000)]
    edge_logs = [0, 1, half - 1, half, half + 1, q1 - 1] + [rng.randrange(q1) for _ in range(6)]
    for i in edge_logs:
        a = exp[i]
        pairs += [(a, 0), (0, a), (a, F.neg(a)), (a, a), (a, exp[(i + half) % q1])]
        pairs += [(a, exp[j]) for j in edge_logs]
    pairs.append((0, 0))
    assert any(F._log[b] - F._log[a] == half for a, b in pairs if a and b)
    assert any(F._log[b] - F._log[a] == -half for a, b in pairs if a and b)
    _assert_zech_matches_digits(F, pairs)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 3), (3, 1), (3, 2), (13, 1), (5, 7)])
def test_sub_and_row_sub(p, m):
    F = GF(p, m)
    rng = random.Random(F.q)
    v = [rng.randrange(F.q) for _ in range(30)]
    row = [rng.randrange(F.q) for _ in range(30)]
    for a, b in zip(v, row):
        assert F.sub(a, b) == F.add(a, F.neg(b))
    for c in (0, 1, rng.randrange(F.q)):
        assert F.row_sub(v, c, row) == [F.add(a, F.neg(F.mul(c, b))) for a, b in zip(v, row)]


def test_min_field_of_unity():
    assert min_field_of_unity(1, 5) == 1
    assert min_field_of_unity(3, 2) == 2
    assert min_field_of_unity(8, 3) == 2
    assert min_field_of_unity(4, 5) == 1
    assert min_field_of_unity(7, 2) == 3
    with pytest.raises(DomainError):
        min_field_of_unity(3, 3)  # p | n: no such root of unity


def test_primitive_root_of_unity():
    assert primitive_root_of_unity(2, GF(3)).val == 2
    for F in (GF(5), GF(3), GF(2, 2), GF(3, 2), GF(2, 3), GF(7)):
        assert primitive_root_of_unity(1, F).val == 1
        for n in divisors(F.q - 1):
            lam = primitive_root_of_unity(n, F).val
            assert F.pow(lam, n) == 1
            for d in divisors(n):
                if d < n:
                    assert F.pow(lam, d) != 1
    lam = primitive_root_of_unity(4, GF(5)).val
    assert GF(5).pow(lam, 2) == 4 and GF(5).pow(lam, 4) == 1
    with pytest.raises(DomainError):
        primitive_root_of_unity(3, GF(5))  # 3 does not divide 4


@pytest.mark.parametrize("p,k,j", [(2, 1, 2), (2, 2, 2), (3, 1, 2), (2, 3, 2), (5, 1, 2), (2, 1, 6)])
def test_tower_embedding_and_subfield_test(p, k, j):
    """j is the relative degree of the extension; tower degrees are absolute."""
    K = GF(p, k)
    tower = tower_over(K, k * j)
    L = tower.ext
    assert tower.k == k and tower.M == k * j
    lifted = {tower.lift(K.from_value(a)) for a in K.elements()}
    assert len(lifted) == K.q
    # the embedding is a ring homomorphism
    for a in K.elements():
        for b in K.elements():
            assert tower.lift(K.from_value(K.add(a, b))) == L.add(
                tower.lift(K.from_value(a)), tower.lift(K.from_value(b))
            )
            assert tower.lift(K.from_value(K.mul(a, b))) == L.mul(
                tower.lift(K.from_value(a)), tower.lift(K.from_value(b))
            )
    # in_subfield agrees with exhaustive enumeration of the embedded field
    fixed = {a for a in L.elements() if tower.in_subfield(a, k)}
    assert fixed == lifted
    for a in L.elements():
        assert in_subfield(L.from_value(a), k) == (a in lifted)
    # lower is inverse to lift
    for a in K.elements():
        assert tower.level(k).lower(tower.lift(K.from_value(a))).val == a


def test_subfield_values_at_intermediate_levels():
    tower = tower_over(GF(2), 6)
    L = tower.ext
    for k in (1, 2, 3, 6):
        vals = set(subfield_values(tower, k))
        assert len(vals) == 2**k
        assert vals == {a for a in L.elements() if L.frob(a, k) == a}


def test_fq_element_arithmetic_dunders():
    F = GF(3, 2)
    a = F.gen
    assert (a + 1) - 1 == a
    assert a * 0 == F.zero
    assert (a * a) / a == a
    assert -(-a) == a
    assert a**F.q == a
    assert bool(F.zero) is False and bool(a) is True
    with pytest.raises(DomainError):
        a + GF(3).one  # mixed fields


def test_fp_span_and_nullspace():
    span = Span(GF(2))
    assert span.add([1, 0]) is True
    assert span.add([1, 0]) is False
    assert span.add([1, 1]) is True
    assert span.rank == 2
    assert span.coords([0, 1]) == [1, 1]
    assert span.basis() == [(1, 0), (0, 1)]
    with pytest.raises(DomainError):
        span.add([1, 0, 1])  # the first vector fixed the length (and slot width)
    assert Span(GF(3)).coords([1, 0]) is None

    # subfield_values, against brute-force Frobenius fixed points
    for p, M in ((2, 6), (3, 4), (5, 2)):
        tw = tower_over(GF(p), M)
        L = tw.ext
        for j in divisors(M):
            fixed = tuple(v for v in L.elements() if L.frob(v, j) == v)
            assert subfield_values(tw, j) == fixed


class _ListSpan:
    """Reference echelon over GF(p) on entry lists, one entry at a time: the
    row operation that packed rows replace.  Stored rows are reduced, monic
    at the pivot and zero at the pivots stored before them."""

    def __init__(self, p):
        self.p, self.pivots, self.rows = p, [], []

    def reduce(self, vec):
        v = list(vec)
        for piv, row in zip(self.pivots, self.rows):
            c = v[piv]
            if c:
                v = [(a - c * b) % self.p for a, b in zip(v, row)]
        return v

    def add(self, vec):
        v = self.reduce(vec)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = pow(v[piv], -1, self.p)
        self.pivots.append(piv)
        self.rows.append([a * inv % self.p for a in v])
        return True

    def basis(self):
        order = sorted(range(len(self.rows)), key=self.pivots.__getitem__)
        rows = [self.rows[i] for i in order]
        for k in range(len(rows) - 1, -1, -1):
            piv = self.pivots[order[k]]
            for i in range(k):
                c = rows[i][piv]
                if c:
                    rows[i] = [(a - c * b) % self.p for a, b in zip(rows[i], rows[k])]
        return [tuple(r) for r in rows]


def _check_span_against_list_echelon(F, vectors, probes):
    """Span(F) and _ListSpan agree on add, rank, coords and basis()."""
    span, ref, added = Span(F), _ListSpan(F.p), []
    for v in vectors:
        grows = ref.add(v)
        assert span.add(v) == grows
        if grows:
            added.append(v)
    assert span.rank == len(ref.rows)
    assert span.basis() == ref.basis()
    for probe in probes:
        coords = span.coords(probe)
        if any(ref.reduce(probe)):
            assert coords is None
        else:
            # the added vectors are independent, so coordinates are unique
            combo = [sum(c * a for c, a in zip(coords, col)) % F.p for col in zip(*added)]
            assert len(coords) == len(added) and combo == list(probe)


@pytest.mark.parametrize("p", [2, 3, 13])
def test_span_matches_the_list_echelon(p):
    F, rng = GF(p), random.Random(p)
    for _ in range(30):
        n = rng.randrange(1, 25)
        base = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, n + 2))]

        def combo():
            return [sum(rng.randrange(p) * b[i] for b in base) % p for i in range(n)]

        vectors = [combo() for _ in range(n + 3)]
        probes = [combo() for _ in range(5)] + [[rng.randrange(p) for _ in range(n)] for _ in range(5)]
        _check_span_against_list_echelon(F, vectors, probes)


def test_span_slots_at_the_width_bound():
    """Every reduction of u uses the largest multiplier p - 1 on rows whose
    entries after the pivot are all p - 1, so the last slot of u collects
    168 (p-1)^2 = 24,192: more than one byte holds."""
    p, n = 13, 169
    F = GF(p)
    rows = [[0] * k + [1] + [p - 1] * (n - 1 - k) for k in range(n)]
    # after k reductions slot k holds u_k + 144 k = u_k + k (mod 13): u_k = 1 - k
    u = [(1 - k) % p for k in range(n)]
    _check_span_against_list_echelon(F, rows[:-1] + [u], [u, rows[-1]])
    _check_span_against_list_echelon(F, rows, [u, [p - 1] * n])


def test_span_over_a_prime_above_two_to_the_32():
    """Slots for p > 2^32 need more than 8 bytes."""
    p = 4294967311
    F, rng = GF(p, p_cap=p, q_cap=p), random.Random(7)
    base = [[rng.randrange(p) for _ in range(8)] for _ in range(5)]
    vectors = [[sum(rng.randrange(p) * b[i] for b in base) % p for i in range(8)] for _ in range(8)]
    probes = vectors[:3] + [[rng.randrange(p) for _ in range(8)] for _ in range(3)]
    _check_span_against_list_echelon(F, vectors + [[p - 1] * 8], probes)


def test_field_size_caps():
    with pytest.raises(DomainError):
        GF(17)
    with pytest.raises(DomainError):
        GF(2, 21)
    assert GF(17, p_cap=17).q == 17


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (13, 1), (2, 2), (3, 2)], ids=lambda v: str(v))
def test_linear_map_equals_the_dot_path(p, m):
    """LinearMap.apply, one sum of packed columns over a prime field, equals
    one FieldDesc.dot per row at lengths 1 and p, with all columns given at
    once or appended one at a time (each product then meets the columns
    appended so far), and FieldDesc.mat_mul, which applies it, equals the
    product by dots.  A column past max(n, the columns given), more than
    the slots are sized for, is refused."""
    F, rng = GF(p, m), random.Random(f"linear_map/{p}/{m}")
    for n in (1, p):
        cols = [[rng.randrange(F.q) for _ in range(n)] for _ in range(n)]
        cols[0] = [F.q - 1] * n  # the largest packed value in every slot
        whole, grown = LinearMap(F, n, cols), LinearMap(F, n)
        for k, col in enumerate(cols):
            grown.append(col)
            for v in ([F.q - 1] * n, [rng.randrange(F.q) for _ in range(n)]):
                assert grown.apply(v) == [F.dot(row, v) for row in zip(*cols[: k + 1])]
        for full in (whole, grown):
            with pytest.raises(DomainError, match=f"holds at most {n} columns"):
                full.append(cols[0])
        for v in ([0] * n, [F.q - 1] * n, [rng.randrange(F.q) for _ in range(n)]):
            assert whole.apply(v) == [F.dot(row, v) for row in zip(*cols)]
        A = tuple(tuple(rng.randrange(F.q) for _ in range(n)) for _ in range(n))
        B = tuple(map(tuple, cols))
        assert F.mat_mul(A, B) == tuple(tuple(F.dot(row, col) for col in zip(*B)) for row in A)
