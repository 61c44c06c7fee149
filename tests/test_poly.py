"""Polynomial algebra: arithmetic, roots, decompositions, additive f_V."""

import random
from math import comb, gcd

import pytest

from orecalc import poly as poly_mod
from orecalc.errors import DomainError, InternalCheckError
from orecalc.gf import GF, divisors, primitive_root_of_unity, span_values, tower_over
from orecalc.poly import (
    ExponentDecomp,
    Poly,
    RootMultiset,
    binom_mod_p,
    decompose_through,
    distinct_degree_parts,
    exponent_decomp,
    exponent_gcd,
    f_V,
    gcd_p,
    is_irreducible,
    lift_poly,
    multiplier_field,
    poly_pow_mod,
    poly_pth_root,
    radical,
    roots_in_ext,
    roots_with_multiplicity,
    shift_coeffs,
    space_basis,
    splitting_degree,
    split_equal_degree,
    splitting_tower,
)

from oracles import (
    assert_record_semantics,
    distinct_degree_parts_oracle,
    f_V_oracle,
    is_irreducible_oracle,
    lower_poly,
    monic_polys,
    multiplier_field_oracle,
    pow_mod_oracle,
    radical_oracle,
    roots_in_field,
    split_roots_oracle,
    verify_fp_subspace,
)


def test_construction_and_normalization():
    F = GF(5)
    assert Poly(F, (1, 2, 0, 0)).degree == 1
    assert Poly(F, ()).is_zero()
    assert Poly(F, (7, 6)) == Poly(F, (2, 1))
    assert Poly(F, (-3, 1)) == Poly(F, (2, 1))
    assert Poly.from_values(GF(2, 2), (2,)).c == (2,)  # packed, not reduced mod p
    assert Poly.x(F).degree == 1
    assert Poly.constant(F, 9).c == (4,)
    with pytest.raises(DomainError):
        Poly(F, (1,)) + Poly(GF(3), (1,))


def test_ring_axioms_random():
    rng = random.Random(11)
    for F in (GF(2), GF(5), GF(3, 2), GF(2, 2)):
        for _ in range(120):
            a, b, c = (
                Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(5))])
                for _ in range(3)
            )
            assert (a + b) * c == a * c + b * c
            assert a * (b * c) == (a * b) * c
            assert a * b == b * a
            assert a - a == Poly.zero(F)
            assert a * Poly.one(F) == a


def test_divmod_and_gcd():
    rng = random.Random(7)
    for F in (GF(3), GF(2, 2), GF(5)):
        for _ in range(150):
            a = Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 7))])
            b = Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 5))])
            if b.is_zero():
                continue
            quo, rem = a.divmod(b)
            assert quo * b + rem == a
            assert rem.is_zero() or rem.degree < b.degree
            g = a.gcd(b)
            if not a.is_zero():
                assert (a % g).is_zero() and (b % g).is_zero()
                assert g.is_monic()
    with pytest.raises(DomainError):
        Poly.one(GF(3)).divmod(Poly.zero(GF(3)))


def test_derivative_and_evaluation():
    F = GF(3)
    f = Poly(F, (1, 2, 0, 1))  # 1 + 2x + x^3
    assert f.derivative() == Poly(F, (2,))  # the 3x^2 term vanishes
    assert [f.eval_value(v) for v in range(3)] == [1, 1, 1]
    G = GF(2, 2)
    g = Poly.from_values(G, (G.gen.val, 0, 1))  # x^2 + t
    for v in G.elements():
        assert g.eval_value(v) == G.add(G.mul(v, v), G.gen.val)


def test_compose_affine_is_substitution():
    rng = random.Random(3)
    for F in (GF(3), GF(2, 2), GF(3, 2), GF(13), GF(2, 8), GF(3, 5)):
        cases = [(Poly.zero(F), 1, 0), (Poly.zero(F), F.q - 1, 1), (Poly.constant(F, 2), F.q - 1, 1)]
        for _ in range(60):
            f = Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(0, 8))])
            lam = rng.choice((1, rng.randrange(1, F.q)))
            mu = rng.choice((0, rng.randrange(F.q)))
            cases.append((f, lam, mu))
        for f, lam, mu in cases:
            inner = Poly.from_values(F, (mu, lam))
            assert f.compose_affine(lam, mu) == f.compose(inner)
            assert f.compose_affine(1, 0) == f
            for v in rng.sample(range(F.q), min(F.q, 16)):
                lhs = f.compose_affine(lam, mu).eval_value(v)
                rhs = f.eval_value(F.add(F.mul(lam, v), mu))
                assert lhs == rhs


def test_shift_and_scale():
    F = GF(5)
    f = Poly(F, (0, 0, 1))  # x^2
    assert f.compose_affine(1, 1) == Poly(F, (1, 2, 1))
    assert f.scale_value(3) == Poly(F, (0, 0, 3))
    assert (f * 3).c == (0, 0, 3)


def test_poly_pow_mod_matches_naive():
    F = GF(5)
    base = Poly(F, (1, 1))
    mod = Poly(F, (1, 0, 1))
    for e in range(12):
        assert poly_pow_mod(base, e, mod) == (base**e) % mod


# prime fields up to the default cap, tabled char-2 and odd extensions, and
# fields above the table limit, whose products go through _mul_slow
_KERNEL_FIELDS = [
    (2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
    (2, 3), (2, 8), (3, 2), (5, 3), (13, 2),
    (2, 20), (3, 12),
]


def _random_poly(rng, F, degree, monic=True):
    return Poly.from_values(F, [rng.randrange(F.q) for _ in range(degree)] + [1 if monic else rng.randrange(1, F.q)])


@pytest.mark.parametrize("p,m", _KERNEL_FIELDS)
def test_kernel_powers_and_irreducibility_match_the_oracles(p, m):
    """poly_pow_mod against square-and-multiply with a full remainder per
    product, for monic, non-monic and degree-1 moduli and exponents from 0
    to q^2; is_irreducible against Rabin's test on those powers."""
    rng = random.Random(p * 1000 + m)
    F = GF(p, m)
    small = m == 1 or F.q <= 1 << 16
    for _ in range(12 if small else 4):
        base = _random_poly(rng, F, rng.randrange(0, 9), monic=False)
        for mod in (_random_poly(rng, F, rng.randint(2, 6)), _random_poly(rng, F, rng.randint(1, 6), monic=False),
                    _random_poly(rng, F, 1, monic=rng.random() < 0.5)):
            for e in (0, 1, 2, rng.randrange(3, 50), F.q, (F.q - 1) // 2 or 1, F.q**2 + rng.randrange(F.q)):
                assert poly_pow_mod(base, e, mod) == pow_mod_oracle(base, e, mod)
    for d in range(1, 6 if small else 4):
        for _ in range(6 if small else 2):
            f = _random_poly(rng, F, d, monic=rng.random() < 0.7)
            assert is_irreducible(f) == is_irreducible_oracle(f)
        g = _random_irreducible(rng, F, d)
        assert is_irreducible(g) and is_irreducible_oracle(g)


@pytest.mark.parametrize("p,m", _KERNEL_FIELDS)
def test_distinct_degree_parts_match_the_oracle(p, m):
    """distinct_degree_parts against the loop that raises to the q-th power
    at every degree, on random inputs and on products of irreducibles of
    chosen degrees with repeated factors."""
    rng = random.Random(p * 1000 + m + 1)
    F = GF(p, m)
    small = m == 1 or F.q <= 1 << 16
    cases = [_random_poly(rng, F, rng.randint(1, 7 if small else 4)) for _ in range(8 if small else 3)]
    degrees = (1, 1, 2, 3) if small else (1, 2)
    prod = Poly.one(F)
    for e in degrees:
        prod = prod * _random_irreducible(rng, F, e)
    cases += [prod, prod * prod * _random_irreducible(rng, F, degrees[-1])]
    for f in cases:
        assert distinct_degree_parts(f) == distinct_degree_parts_oracle(f)


def _split_roots(g):
    """The sorted roots of g from its linear factors by split_equal_degree."""
    return sorted(g.field.neg(u.c[0]) for u in split_equal_degree(g, 1))


@pytest.mark.parametrize("p,m", _KERNEL_FIELDS)
def test_split_roots_match_the_oracle(p, m):
    """split_equal_degree into linear factors against splitting by the
    (Q-1)/2-th power (or the trace for p = 2), on products of distinct
    linear factors over F_Q; over a tower, on lifted inputs whose root
    orbits under r -> r^(p^k) are read off one root each."""
    rng = random.Random(p * 1000 + m + 2)
    F = GF(p, m)
    for n in (1, 2, 3, 6):
        roots = rng.sample(range(F.q), min(n, F.q)) if F.q < 1 << 16 else [rng.randrange(F.q) for _ in range(n)]
        g = Poly.one(F)
        for r in set(roots):
            g = g * Poly.from_values(F, (F.neg(r), 1))
        assert _split_roots(g) == split_roots_oracle(g) == sorted(set(roots))
    if m > 1:
        k = next(k for k in range(m - 1, 0, -1) if m % k == 0)
        tw = tower_over(GF(p, k), m)
        K = tw.base
        f = Poly.one(K)
        for e in sorted({1, m // k}):
            f = f * _random_irreducible(rng, K, e)
        g = lift_poly(f, tw)
        assert _split_roots(g) == split_roots_oracle(g) == roots_in_ext(f, tw)


def test_roots_in_ext_without_parts_match_the_parts(split_calls):
    """roots_in_ext without parts runs no full distinct-degree split, and
    finds the roots the parts give."""
    rng = random.Random(23)
    for p, k, M in ((2, 1, 6), (3, 2, 2), (3, 2, 4), (5, 1, 3), (13, 1, 2), (2, 4, 20), (3, 4, 12), (3, 3, 12)):
        K = GF(p, k)
        tw = tower_over(K, M)
        for _ in range(3):
            f = _random_poly(rng, K, rng.randint(1, 5))
            f = f * _random_irreducible(rng, K, M // k) if rng.random() < 0.5 else f
            split_calls.clear()
            got = roots_in_ext(f, tw)
            assert split_calls == {}
            assert got == roots_in_ext(f, tw, distinct_degree_parts(f))


def _count_frobenius_steps(monkeypatch):
    """Patches _Residues.frobenius and power_table; returns the lists of
    (e, ring degree) per Frobenius step drawn and per table built."""
    steps, tables = [], []
    real_frobenius, real_table = poly_mod._Residues.frobenius, poly_mod._Residues.power_table

    def frobenius(self, e, *args, **kwargs):
        for h in real_frobenius(self, e, *args, **kwargs):
            steps.append((e, self.n))
            yield h

    def power_table(self, e, *args):
        tables.append((e, self.n))
        return real_table(self, e, *args)

    monkeypatch.setattr(poly_mod._Residues, "frobenius", frobenius)
    monkeypatch.setattr(poly_mod._Residues, "power_table", power_table)
    return steps, tables


def test_roots_in_ext_without_parts_stop_at_the_extension_degree(monkeypatch):
    """Roots in an extension of degree n = 4 over K: of a product of linear
    factors, one q-power step finds them all, and no q-power table is built
    for steps the split no longer needs; with an irreducible factor of
    degree 7 as well, the steps stop at d = 4 in that factor's ring, whose
    table is built once one powered step has cost as much."""
    rng = random.Random(37)
    K = GF(2, 5)
    tw = tower_over(K, 20)
    f = Poly.one(K)
    for r in rng.sample(range(K.q), 6):
        f = f * Poly.from_values(K, (r, 1))
    steps, tables = _count_frobenius_steps(monkeypatch)
    cases = (
        (f, [(K.q, 6)], []),
        (f * _random_irreducible(rng, K, 7), [(K.q, 13)] + [(K.q, 7)] * 3, [(K.q, 7)]),
    )
    for g, want_steps, want_tables in cases:
        steps.clear()
        tables.clear()
        got = roots_in_ext(g, tw)
        assert got == roots_in_ext(g, tw, distinct_degree_parts_oracle(g)) and len(got) == 6
        assert [s for s in steps if s[0] == K.q] == want_steps
        assert [t for t in tables if t[0] == K.q] == want_tables


def test_frobenius_steps_without_room_for_a_table_power_instead(monkeypatch):
    """With no room for a table (_TABLE_MAX_ENTRIES lowered to 0), every
    Frobenius step past the first raises the last power to the e-th power;
    the answers are the oracles'."""
    monkeypatch.setattr(poly_mod, "_TABLE_MAX_ENTRIES", 0)
    steps, tables = _count_frobenius_steps(monkeypatch)
    rng = random.Random(31)
    for p, m in ((2, 1), (13, 1), (2, 8), (3, 2), (3, 12)):
        F = GF(p, m)
        f = _random_irreducible(rng, F, 2) * _random_irreducible(rng, F, 3) * _random_poly(rng, F, 2)
        assert distinct_degree_parts(f) == distinct_degree_parts_oracle(f)
        assert is_irreducible(f) is False and is_irreducible(_random_irreducible(rng, F, 4))
        tw = tower_over(F, 2 * m if F.q**2 <= 1 << 20 else m)
        assert roots_in_ext(f, tw) == roots_in_ext(f, tw, distinct_degree_parts_oracle(f))
    assert tables == [] and len(steps) > 50


def test_distinct_degree_steps_build_at_most_one_table_per_ring(monkeypatch):
    """Each ring the steps run in (one per degree of the shrinking unsplit
    part) builds at most one q-power table, and the only remainders taken
    after the radical are the exact divisions by the parts found and, after
    each split but the last, the last power reduced modulo the part still
    unsplit; none per degree step (the former loop took log2 q of them at
    every degree)."""
    tables, divs = [], []
    real_table, real_divmod, real_radical = poly_mod._Residues.power_table, Poly.divmod, poly_mod.radical

    def radical(f):
        g = real_radical(f)
        divs.clear()
        return g

    monkeypatch.setattr(poly_mod._Residues, "power_table", lambda self, e, *args: tables.append((self.n, e)) or real_table(self, e, *args))
    monkeypatch.setattr(Poly, "divmod", lambda self, o: divs.append(o) or real_divmod(self, o))
    monkeypatch.setattr(poly_mod, "radical", radical)
    rng = random.Random(29)
    for F in (GF(13), GF(2, 8), GF(3, 12), GF(2)):
        factors = [_random_irreducible(rng, F, e) for e in (1, 2, 3, 5)]
        f = Poly.one(F)
        for u in factors:
            f = f * u
        tables.clear()
        parts = distinct_degree_parts(f)
        assert parts == [(u.degree, u) for u in factors]
        assert len(set(tables)) == len(tables) and all(e == F.q for _, e in tables)
        want = []
        for i, u in enumerate(factors):
            want.append(u)
            rest = Poly.one(F)
            for v in factors[i + 1:]:
                rest = rest * v
            if rest.degree > 0:
                want.append(rest)
        assert divs == want


def test_split_off_parts_leave_the_steps_to_the_rest(monkeypatch):
    """Over GF(2^20), a radical of 12 linear factors and an irreducible
    quadratic: after the linear part splits off, the next step runs in the
    quadratic's ring, and no table of the full degree is built."""
    rng = random.Random(41)
    F = GF(2, 20)
    f = _random_irreducible(rng, F, 2)
    for r in rng.sample(range(F.q), 12):
        f = f * Poly.from_values(F, (r, 1))
    steps, tables = _count_frobenius_steps(monkeypatch)
    assert distinct_degree_parts(f) == distinct_degree_parts_oracle(f)
    assert steps == [(F.q, 14), (F.q, 2)]
    assert all(n <= 2 for _, n in tables)


def test_few_distinct_degree_steps_build_no_table(monkeypatch):
    """Over GF(2^20), a radical of six irreducible quadratics is used up at
    the second step: that step raises x^q to the q-th power, as a table of
    the degree-12 ring would cost ten products to build, and none is."""
    rng = random.Random(43)
    F = GF(2, 20)
    f = Poly.one(F)
    while f.degree < 12:
        u = _random_irreducible(rng, F, 2)
        f = f if (f % u).is_zero() else f * u
    steps, tables = _count_frobenius_steps(monkeypatch)
    assert distinct_degree_parts(f) == [(2, f)] == distinct_degree_parts_oracle(f)
    assert steps == [(F.q, 12), (F.q, 12)] and tables == []


def test_power_table_takes_x_to_the_q_from_the_first_step(monkeypatch):
    """A ring whose Frobenius steps start from x hands x^q, its first step,
    to the q-power table instead of calling x_power for it again.  Over
    GF(2^20), an irreducible cubic times a quartic builds that table in the
    degree-7 ring, where x_power(q) runs once; when the table recomputes x^q
    it runs twice, x_power is called more often in all, and the parts stay
    the same."""
    rng = random.Random(53)
    F = GF(2, 20)
    f = _random_irreducible(rng, F, 3) * _random_irreducible(rng, F, 4)
    calls = []
    real_x_power, real_table = poly_mod._Residues.x_power, poly_mod._Residues.power_table
    monkeypatch.setattr(poly_mod._Residues, "x_power", lambda self, k: calls.append((self.n, k)) or real_x_power(self, k))
    steps, tables = _count_frobenius_steps(monkeypatch)
    parts = distinct_degree_parts(f)
    assert (F.q, 7) in tables and calls.count((7, F.q)) == 1
    reused = len(calls)
    calls.clear()
    monkeypatch.setattr(poly_mod._Residues, "power_table", lambda self, e, xe: real_table(self, e, self.x_power(e)))
    assert distinct_degree_parts(f) == parts == distinct_degree_parts_oracle(f)
    assert [d for d, _ in parts] == [3, 4] and calls.count((7, F.q)) == 2 and reused < len(calls)


def test_known_frobenius_steps_build_the_table_at_once(monkeypatch):
    """Rabin's test on a degree-12 irreducible over GF(13^2) takes all 12
    q-power steps, so the table is built after x^q and nothing is powered;
    so is the p-power table of the linear split over GF(13^4), whose 3
    steps save more than its 3 products cost."""
    rng = random.Random(47)
    F, L = GF(13, 2), GF(13, 4)
    g = _random_irreducible(rng, F, 12)
    u = Poly.one(L)
    for r in rng.sample(range(L.q), 5):
        u = u * Poly.from_values(L, (r, 1))
    steps, tables = _count_frobenius_steps(monkeypatch)
    powered = []
    real_pow = poly_mod._Residues.pow
    monkeypatch.setattr(poly_mod._Residues, "pow", lambda self, a, e: powered.append(e) or real_pow(self, a, e))
    assert is_irreducible(g)
    assert steps == [(F.q, 12)] * 12 and tables == [(F.q, 12)] and powered == []
    steps.clear()
    tables.clear()
    assert _split_roots(u) == split_roots_oracle(u)
    assert (13, 5) in tables and 13 not in powered


@pytest.mark.parametrize("p", [2, 3, 5])
def test_is_irreducible_exhaustive_against_root_counting(p):
    """Degree 2 and 3: irreducible iff no roots in the base field."""
    F = GF(p)
    for d in (1, 2, 3):
        for f in monic_polys(F, d):
            has_root = bool(roots_in_field(f))
            if d == 1:
                assert is_irreducible(f)
            else:
                assert is_irreducible(f) == (not has_root)
    # a product of two irreducible quadratics has no roots but is reducible
    irr2 = [f for f in monic_polys(F, 2) if is_irreducible(f)]
    prod = irr2[0] * irr2[-1]
    assert not is_irreducible(prod)
    assert not is_irreducible(Poly.one(F))


def test_roots_with_multiplicity_split_case():
    F = GF(5)
    f = Poly(F, (-1, 1)) ** 2 * Poly(F, (-2, 1)) ** 3  # (x-1)^2 (x-2)^3
    rm = roots_with_multiplicity(f)
    assert rm.as_multiset() == {1: 2, 2: 3}
    assert rm.splitting_degree == 1
    assert roots_with_multiplicity(Poly.x(F)).as_multiset() == {0: 1}


def test_roots_split_in_extension():
    F = GF(3)
    f = Poly(F, (1, 0, 1))  # x^2 + 1, irreducible over F_3
    assert roots_in_field(f) == []
    rm = roots_with_multiplicity(f)
    assert rm.splitting_degree == 2
    assert len(rm.pairs) == 2 and all(m == 1 for _, m in rm.pairs)
    tower = splitting_tower(f)
    roots = roots_in_ext(f, tower)
    assert roots == list(rm.distinct())
    for r in roots:
        assert lift_poly(f, tower).eval_value(r) == 0


def _random_irreducible(rng, K, e):
    for _ in range(1000):  # about one draw in e is irreducible
        g = Poly.from_values(K, [rng.randrange(K.q) for _ in range(e)] + [1])
        if is_irreducible(g):
            return g
    raise AssertionError(f"no irreducible of degree {e} over {K} in 1000 draws")


# (p, k, extension degrees M), each with k | M and |L| = p^M <= 3000
_SPLIT_TOWERS = [
    (2, 1, (1, 4, 6, 11)), (2, 2, (2, 4, 6, 10)), (2, 3, (3, 6, 9)),
    (3, 1, (1, 2, 6, 7)), (3, 2, (2, 4, 6)), (3, 3, (3, 6)),
    (5, 1, (1, 2, 4)), (5, 2, (2, 4)), (5, 3, (3,)),
    (7, 1, (1, 2, 4)), (7, 2, (2, 4)), (7, 3, (3,)),
    (13, 1, (1, 3)), (13, 2, (2,)), (13, 3, (3,)),
]


@pytest.mark.parametrize("p,k,degrees", _SPLIT_TOWERS)
def test_split_roots_against_scan_oracle(p, k, degrees):
    """roots_in_ext (equal-degree splitting) equals the scan of all of L, on
    inputs the tower splits and on inputs it does not; the embedding root
    of the base generator is the smallest root of the base modulus in L."""
    rng = random.Random(p * 100 + k)
    K = GF(p, k)
    for M in degrees:
        tw = tower_over(K, M)
        L = tw.ext
        r = M // k
        e_out = next(e for e in range(2, r + 3) if r % e)  # no roots in L
        divs = [e for e in range(1, r + 1) if r % e == 0]
        split = Poly.one(K)
        for e in sorted({1, r, rng.choice(divs)}):
            split = split * _random_irreducible(rng, K, e)
        cases = [
            split,
            split * _random_irreducible(rng, K, e_out),
            _random_irreducible(rng, K, e_out) ** 2,
            split * split * Poly.x(K),
            Poly.from_values(K, [rng.randrange(K.q) for _ in range(rng.randint(1, 7))] + [1]),
        ]
        for f in cases:
            roots = roots_in_ext(f, tw)
            assert roots == roots_in_field(lift_poly(f, tw))
        assert len(roots_in_ext(split, tw)) == split.degree
        assert roots_in_ext(cases[2], tw) == []
        assert tw.level(k).gen_img == min(roots_in_field(Poly(L, K.modulus)))


def test_split_roots_are_reproducible_and_leave_global_random_alone():
    F = GF(2)
    f = Poly(F, (0, 1, 1)) * Poly(F, (1, 1, 1)) * Poly(F, (1, 1, 0, 1)) * Poly(F, (1, 1, 0, 0, 0, 0, 1))
    tower = tower_over(F, 6)  # x(x + 1)(x^2 + x + 1)(x^3 + x + 1)(x^6 + x + 1)
    state = random.getstate()
    first = roots_in_ext(f, tower)
    assert random.getstate() == state
    random.seed(12345)
    assert roots_in_ext(f, tower) == first
    assert len(first) == 13 and first == sorted(first)


def test_roots_over_a_tower_that_does_not_split():
    F = GF(3)
    f = Poly(F, (1, 0, 1))  # x^2 + 1 needs F_9
    with pytest.raises(DomainError, match="does not split"):
        roots_with_multiplicity(f, tower_over(F, 1))


def test_roots_over_a_short_built_tower_is_an_internal_fault(monkeypatch):
    F = GF(3)
    f = Poly(F, (1, 0, 1))
    monkeypatch.setattr(poly_mod, "splitting_tower", lambda g, parts=None: tower_over(g.field, 1))
    with pytest.raises(InternalCheckError, match="^stage=poly.roots: root multiset does not reconstruct") as info:
        roots_with_multiplicity(f)
    assert info.value.stage == "poly.roots" and str(info.value).endswith(": f = x^2 + 1 over GF(3)")


class _FixedDraws:
    """A stand-in for random.Random whose draws are always b = 0, a = 1."""

    def __init__(self, seed):
        pass

    def randrange(self, lo, hi=None):
        return 0 if hi is None else lo


@pytest.mark.parametrize("stage", ["poly.ddf", "poly.split", "poly.roots", "poly.peel"])
def test_poly_check_errors_name_stage_field_and_input(stage, monkeypatch):
    """Each staged check in poly.py, made to fail, raises at its stage and
    names the polynomial it checked and its field (with the modulus for an
    extension field)."""
    F5, F9 = GF(5), GF(3, 2)
    x = Poly.x(F5)
    if stage == "poly.ddf":  # x^(q^d) mod g read as x + 1: no part ever splits off
        g, tower = Poly.from_values(F9, (F9.gen.val, 0, 1)), tower_over(F9, 6)  # x^2 + t; steps up to d = 3
        monkeypatch.setattr(poly_mod._Residues, "frobenius", lambda self, e, *args, **kw: iter(lambda: self.residue((1, 1)), None))
        run, text = lambda: roots_in_ext(g, tower), "distinct-degree split ran past the degree"
    elif stage == "poly.split":  # h = x never splits (x - 1)(x - 4): both roots are squares
        g = (x - 1) * (x - 4)
        monkeypatch.setattr(poly_mod, "random", type("Draws", (), {"Random": _FixedDraws}))
        run, text = lambda: split_equal_degree(g, 1), "equal-degree splitting found no split"
    elif stage == "poly.roots":  # a claimed root that is none fails the reconstruction
        g = x**2 * (x - 1)
        real = poly_mod.roots_in_ext
        monkeypatch.setattr(poly_mod, "roots_in_ext", lambda f, tower, parts=None: real(f, tower, parts) + [2])
        run, text = lambda: roots_with_multiplicity(g), "root multiset does not reconstruct the polynomial"
    else:  # a peeling step that removes nothing
        h = x**2 + 1
        g = h**3 + h
        monkeypatch.setattr(Poly, "scale_value", lambda self, v: Poly.zero(self.field))
        run, text = lambda: decompose_through(g, h), "peeling failed to reduce the degree"
    with pytest.raises(InternalCheckError, match=rf"^stage={stage.replace('.', '[.]')}: {text}") as info:
        run()
    monkeypatch.undo()
    assert info.value.stage == stage
    spec = "GF(5)" if g.field is F5 else "GF(3^2, mod=" + ",".join(map(str, F9.modulus)) + ")"
    assert str(info.value).endswith(f": f = {g!r} over {spec}")


def test_roots_split_the_input_once(split_calls):
    """One distinct-degree split serves both the splitting tower and the
    roots, with the tower built here and with one supplied."""
    calls = split_calls
    for F, coeffs in [(GF(3), (1, 0, 1)), (GF(5), (2, 0, 1, 3, 1)), (GF(3, 2), (5, 0, 0, 1)), (GF(7), (1,) * 6)]:
        f = Poly.from_values(F, coeffs)
        calls.clear()
        rm = roots_with_multiplicity(f)
        assert calls == {f: 1}
        calls.clear()
        assert roots_with_multiplicity(f, rm.tower) == rm
        assert calls == {f: 1}


@pytest.mark.parametrize("p,deg", [(2, 5), (3, 4)])
def test_root_product_reconstruction_sweep(p, deg):
    """Exhaustive check that the root multiset reconstructs f exactly."""
    F = GF(p)
    for d in range(1, deg + 1):
        for f in monic_polys(F, d):
            rm = roots_with_multiplicity(f)
            tower = splitting_tower(f)
            L = tower.ext
            prod = Poly.one(L)
            for root, mult in rm.pairs:
                prod = prod * Poly.from_values(L, (L.neg(root), 1)) ** mult
            assert prod == lift_poly(f, tower)
            assert sum(m for _, m in rm.pairs) == d


def test_lift_lower_roundtrip():
    F = GF(3)
    tower = tower_over(F, 2)
    f = Poly(F, (1, 2, 1))
    lifted = lift_poly(f, tower)
    assert lower_poly(lifted, tower) == f
    bad = Poly.from_values(tower.ext, (tower.ext.gen.val, 1))
    with pytest.raises(DomainError):
        lower_poly(bad, tower)


def test_exponent_decomp_examples():
    F3 = GF(3)
    dec = exponent_decomp(Poly(F3, [0] * 6 + [1]))  # x^6
    assert (dec.s, dec.gcd_p) == (1, 2) and dec.f1 == Poly(F3, (0, 0, 1))
    f = Poly(F3, (1, 1, 0, 1))  # derivative nonzero
    dec = exponent_decomp(f)
    assert (dec.s, dec.f1) == (0, f)
    F2 = GF(2)
    dec = exponent_decomp(Poly(F2, (0, 0, 1, 0, 1)))  # x^4 + x^2
    assert dec.s == 1 and dec.f1 == Poly(F2, (0, 1, 1))
    assert dec.f1 ** (2**dec.s) == Poly(F2, (0, 0, 1, 0, 1))
    with pytest.raises(DomainError):
        exponent_decomp(Poly.one(F3))


@pytest.mark.parametrize("p", [2, 3])
def test_exponent_decomp_roundtrip_sweep(p):
    F = GF(p)
    for d in range(1, 5):
        for f in monic_polys(F, d):
            dec = exponent_decomp(f)
            assert dec.f1 ** (p**dec.s) == f
            assert not dec.f1.derivative().is_zero()
            assert dec.gcd_p % p != 0


def test_poly_pth_root():
    F = GF(3)
    f = Poly(F, (1, 1, 1))
    assert poly_pth_root(f**3) == f
    with pytest.raises(DomainError):
        poly_pth_root(Poly(F, (0, 1, 1)))


def test_radical_and_distinct_degree_split():
    F = GF(3)
    f = Poly(F, (0, 1)) ** 2 * Poly(F, (1, 1))
    assert radical(f) == Poly(F, (0, 1)) * Poly(F, (1, 1))
    assert distinct_degree_parts(f) == [(1, radical(f))]
    g = Poly(F, (1, 0, 1)) * Poly(F, (1, 1))  # irreducible quadratic times linear
    assert distinct_degree_parts(g) == [(1, Poly(F, (1, 1))), (2, Poly(F, (1, 0, 1)))]
    assert splitting_degree(g) == 2
    # x^2 + x + 1 splits already over F_4 (the generator is a root)
    assert splitting_degree(Poly.from_values(GF(2, 2), (1, 1, 1))) == 2


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (13, 1), (2, 3), (3, 2)], ids=lambda v: str(v))
def test_radical_short_cut_matches_the_general_loop(p, m, monkeypatch):
    """radical against its general loop (radical_oracle) on seeded inputs:
    random f, squarefree products, and products of factors with repeated
    and p-th-power multiplicities, times a unit.  A squarefree f returns
    f.monic() after one gcd; the rest take the loop."""
    F, rng = GF(p, m), random.Random(240 + p * 10 + m)
    rand = lambda d: Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])  # noqa: E731
    gcds, real_gcd = [], Poly.gcd

    def counting(self, other):
        gcds.append(1)
        return real_gcd(self, other)

    squarefree = 0
    for t in range(60):
        if t % 3 == 0:
            f = rand(rng.randrange(1, 9))
        else:
            f = Poly.one(F)
            for _ in range(rng.randrange(1, 4)):
                e = 1 if t % 3 == 1 else rng.choice([1, 2, 3, p, p * rng.randrange(1, 3), p * p])
                f = f * rand(rng.randrange(1, 4)) ** e
        f = f.scale_value(rng.randrange(1, F.q))
        gcds.clear()
        monkeypatch.setattr(Poly, "gcd", counting)
        got = radical(f)
        monkeypatch.undo()
        assert got == radical_oracle(f)
        if f.gcd(f.derivative()).degree == 0:
            squarefree += 1
            assert got == f.monic() and len(gcds) == 1
    assert 10 <= squarefree < 60


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2)], ids=lambda v: str(v))
def test_shift_coeffs_are_the_taylor_shift_coefficients(p, m):
    """b_k(mu) from shift_coeffs is the x^k coefficient of f(x + mu) at
    every mu of the field, for every k, on seeded sparse and dense f up to
    degree 40; binom_mod_p is comb mod p."""
    F, rng = GF(p, m), random.Random(241 + p * 10 + m)
    for n in range(60):
        assert all(binom_mod_p(n, k, p) == comb(n, k) % p for k in range(n + 2))
    for t in range(12):
        d = rng.randrange(1, 41)
        dense = t % 2 == 0
        f = Poly.from_values(F, [rng.randrange(F.q) if dense or rng.random() < 0.2 else 0 for _ in range(d)] + [1])
        b = list(shift_coeffs(f, range(d + 1)))
        for mu in rng.sample(range(F.q), min(F.q, 5)):
            shifted = f.compose_affine(1, mu)
            assert [bk.eval_value(mu) for bk in b] == list(shifted.c)
        assert all(bk.degree <= d - k for k, bk in enumerate(b))


def test_f_V_closed_forms():
    # V = F_p * mu gives x^p - mu^(p-1) x
    for F in (GF(2, 2), GF(3, 2)):
        p = F.p
        for mu in range(1, F.q):
            V = span_values(F, (mu,))
            fv = f_V(F, V, 0)
            expect = [0] * (p + 1)
            expect[p] = 1
            expect[1] = F.neg(F.pow(mu, p - 1))
            assert fv == Poly.from_values(F, expect)
    # V the whole field F_{p^m} gives x^(p^m) - x
    L = GF(2, 2)
    assert f_V(L, tuple(L.elements()), 0) == Poly.from_values(L, (0, 1, 0, 0, 1))
    # V = {0} gives x - nu
    assert f_V(GF(5), (0,), 3) == Poly(GF(5), (-3, 1))
    # a set that is not closed stands for its span: {0, 1, 2} spans F_5
    assert f_V(GF(5), (0, 1, 2), 0) == Poly(GF(5), (0, -1, 0, 0, 0, 1))


@pytest.mark.parametrize("p,m", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2), (2, 20), (3, 12)])
def test_f_V_recursion_matches_the_product(p, m):
    """f_V by Ore's recursion over a basis equals the product of its |V|
    linear factors, for subspaces of every dimension up to 3 and shifts."""
    rng = random.Random(p * 100 + m)
    F = GF(p, m)
    for dim in range(4):
        if p**dim > 64:
            break
        V = span_values(F, [rng.randrange(1, F.q) for _ in range(dim)])
        for nu in (0, rng.randrange(F.q)):
            assert f_V(F, V, nu) == f_V_oracle(F, V, nu)


@pytest.mark.parametrize("p,m", [(2, 4), (2, 6), (3, 4), (5, 2), (2, 20)])
def test_f_V_and_multiplier_field_take_any_spanning_set(p, m):
    """A basis padded with 0, repeats and sums gives the f_V and the
    multiplier field of its span: against the product of |V| linear factors
    and against membership of gamma times a basis in the value set.  Half
    the spaces are sums of lines b F_{p^e}, spanned by b gamma^i, i < e."""
    rng = random.Random(p * 1000 + m)
    F = GF(p, m)
    degrees = [e for e in divisors(m) if p**e <= 1 << 12]
    for trial in range(16):
        if trial % 2:
            e = degrees[trial // 2 % len(degrees)]
            gamma = primitive_root_of_unity(p**e - 1, F).val
            bs = [rng.randrange(1, F.q) for _ in range(rng.randrange(1, 3) if p ** (2 * e) <= 1 << 12 else 1)]
            basis = [F.mul(b, F.pow(gamma, i)) for b in bs for i in range(e)]
        else:
            basis = [rng.randrange(1, F.q) for _ in range(rng.randrange(1, min(m, 3) + 1))]
        sums = [F.add(rng.choice(basis), rng.choice(basis)) for _ in range(2)]
        S = basis + [0, rng.choice(basis)] + sums
        rng.shuffle(S)
        V = span_values(F, S)
        assert multiplier_field(F, S) == multiplier_field_oracle(F, V)
        if len(V) <= 64:
            for nu in (0, rng.randrange(F.q)):
                assert f_V(F, S, nu) == f_V_oracle(F, V, nu)
    with pytest.raises(DomainError):
        multiplier_field(F, (0, 0))


def test_space_basis_and_subspace_rank_check():
    # digit vectors run over the prime field even above the default p cap
    F = GF(17, 2, p_cap=17)
    assert space_basis(F, (0, 1, 5, 17, 18)) == (1, 17)
    assert space_basis(F, (0, 3 * 17 + 5)) == (1 + 4 * 17,)  # (5, 3) / 5 = (1, 4)
    assert len(verify_fp_subspace(F, span_values(F, (1 + 4 * 17,)))) == 17
    # {0, 1, t} in GF(9) has 3 = p^1 elements but spans all 9
    F9 = GF(3, 2)
    with pytest.raises(DomainError):
        verify_fp_subspace(F9, (0, 1, 3))
    assert verify_fp_subspace(F9, (0, 3, 6)) == (0, 3, 6)


def test_f_V_is_additive_with_kernel_V():
    for F, basis in ((GF(2, 2), (1,)), (GF(3, 2), (1,)), (GF(2, 3), (1, 2))):
        V = span_values(F, basis)
        fv = f_V(F, V, 0)
        for a in F.elements():
            for b in F.elements():
                assert fv.eval_value(F.add(a, b)) == F.add(fv.eval_value(a), fv.eval_value(b))
        assert not fv.derivative().is_zero()
        assert {a for a in F.elements() if fv.eval_value(a) == 0} == set(V)


def test_f_V_shifted_kernel():
    F = GF(3, 2)
    V = span_values(F, (1,))
    nu = F.gen.val
    fv = f_V(F, V, nu)
    assert {a for a in F.elements() if fv.eval_value(a) == 0} == {F.add(nu, v) for v in V}


def test_multiplier_field():
    L = GF(2, 2)
    assert multiplier_field(L, tuple(L.elements())) == 2  # V = F_4 itself
    assert multiplier_field(L, span_values(L, (1,))) == 1  # V = F_2 inside F_4
    F8 = GF(2, 3)
    assert multiplier_field(F8, tuple(F8.elements())) == 3
    F9 = GF(3, 2)
    assert multiplier_field(F9, tuple(F9.elements())) == 2
    F16 = GF(2, 4)
    assert multiplier_field(F16, tuple(F16.elements())) == 4
    assert multiplier_field(F16, span_values(F16, (1, F16.gen.val))) in (1, 2)
    with pytest.raises(DomainError):
        multiplier_field(L, (0,))


def test_multiplier_field_scaling_property():
    """F_{p^e} with e the multiplier degree actually stabilizes V."""
    from orecalc.gf import primitive_root_of_unity

    for F, basis in ((GF(2, 2), (2,)), (GF(2, 4), (1, 2)), (GF(3, 2), (3,))):
        V = span_values(F, basis)
        e = multiplier_field(F, V)
        if e > 1:
            gamma = primitive_root_of_unity(F.p**e - 1, F).val
            assert all(F.mul(gamma, v) in set(V) for v in V)


def test_decompose_through_roundtrip():
    rng = random.Random(19)
    for F in (GF(3), GF(2, 2), GF(5)):
        for _ in range(80):
            h = Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 3))] + [1])
            g = Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 4))] + [1])
            f = g.compose(h)
            got = decompose_through(f, h)
            assert got == g
    # failure is a value, not an exception
    F = GF(3)
    assert decompose_through(Poly(F, (0, 1, 1)), Poly(F, (0, 0, 1))) is None
    with pytest.raises(DomainError):
        decompose_through(Poly(F, (0, 1)), Poly(F, (1,)))


def test_gcd_p_of_exponents():
    F = GF(3)
    assert gcd_p(Poly(F, (1, 0, 0, 0, 0, 0, 1))) == 2  # exponent gcd 6 = 3 * 2
    assert gcd_p(Poly(F, (1, 0, 1))) == 2
    assert gcd_p(Poly(F, (1, 1))) == 1
    assert exponent_gcd(Poly(F, (1, 0, 0, 1, 0, 0, 1))) == 3


def test_monic_polys_enumeration():
    F = GF(2, 2)
    cubics = list(monic_polys(F, 3))
    assert len(cubics) == 4**3
    assert len({c.c for c in cubics}) == len(cubics)
    assert all(f.is_monic() and f.degree == 3 for f in cubics)
    assert list(monic_polys(GF(3), 0)) == [Poly.one(GF(3))]


def test_poly_records_are_immutable_values():
    """ExponentDecomp and RootMultiset compare and hash by value, refuse
    assignment, print as Name(field=value, ...) and survive copy and pickle."""
    F = GF(3)
    ed = exponent_decomp(Poly(F, (1, 0, 0, 1)))  # x^3 + 1 = (x + 1)^3
    assert_record_semantics(ed, ExponentDecomp(1, 1, Poly(F, (1, 1))), "ExponentDecomp(s=1, gcd_p=1, f1=x + 1)")
    rm = roots_with_multiplicity(Poly(F, (2, 0, 1)))  # x^2 + 2 = (x - 1)(x - 2)
    assert_record_semantics(rm, RootMultiset(*rm), f"RootMultiset(poly=x^2 + 2, tower={rm.tower!r}, "
                            "pairs=((1, 1), (2, 1)), lifted=x^2 + 2)")


@pytest.mark.parametrize("p,m", [(2, 2), (3, 2)])
def test_int_operands_are_integers_mod_p_not_packed_values(p, m):
    """An int operand or coefficient n is n * 1 = n mod p; a packed value
    (here t, packed as p) goes in through from_value or from_values."""
    F = GF(p, m)
    x = Poly.x(F)
    t = F.from_value(p)  # the packed value p is t, not the integer p = 0
    assert x - p == x and x * p == Poly.zero(F) and p * x == Poly.zero(F)
    assert x + (p + 1) == x + 1 and (x + 1) - (p + 1) == x and (p + 1) - x == 1 - x
    assert Poly(F, (p, 1)) == x and Poly.constant(F, p + 1) == Poly.one(F)
    assert F.element(p) == F.zero and F.element(p + 1) == F.one
    assert (x * x + p) % x == Poly.zero(F) and (x * x + p) // x == x
    assert x - t == Poly.from_values(F, (F.neg(p), 1)) != x
    assert Poly(F, (t, 1)) == Poly.from_values(F, (p, 1)) and (x + t).c == (p, 1)


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)], ids=lambda v: str(v))
def test_split_equal_degree_finds_every_factor(p, m):
    """The product of all monic irreducibles of degree d over F_q (d = 2, 3
    where there are at most 60 of them) splits into exactly those factors;
    for q = 2^k the trace is taken by the 2-power Frobenius steps."""
    F = GF(p, m)
    for d in (1, 2, 3):
        irr = [u for u in monic_polys(F, d) if is_irreducible_oracle(u)]
        if len(irr) > 60:
            continue
        g = Poly.one(F)
        for u in irr:
            g = g * u
        got = split_equal_degree(g, d)
        assert sorted(u.c for u in got) == sorted(u.c for u in irr)


@pytest.mark.parametrize("p,m,d", [(2, 4, 2), (2, 4, 3), (3, 2, 2), (3, 2, 3)])
def test_split_equal_degree_brings_conjugates_from_a_subfield(p, m, d):
    """g over F_Q, Q = p^m, with coefficients in F_p: a product of
    irreducibles over F_p of degree n d with gcd(n d, m) = n, each of which
    splits over F_Q into n conjugate factors of degree d under a -> a^p (and,
    when gcd(d, m) = 1, one of degree d, which stays irreducible).  The
    factors found, conjugates included, are the irreducibles of degree d
    over F_Q that divide g, from the listing of all monic polynomials."""
    rng = random.Random(100 * p + 10 * m + d)
    F, Fp = GF(p, m), GF(p)
    n = max(n for n in divisors(m) if gcd(n * d, m) == n)
    irr = {_random_irreducible(rng, Fp, n * d).c for _ in range(2)}
    if gcd(d, m) == 1:
        irr.add(_random_irreducible(rng, Fp, d).c)
    g = Poly.one(F)
    for c in irr:
        g = g * Poly(F, c)
    got = split_equal_degree(g, d)
    listed = [u for u in monic_polys(F, d) if (g % u).is_zero() and is_irreducible_oracle(u)]
    assert sorted(u.c for u in got) == sorted(u.c for u in listed) and len(got) * d == g.degree
    assert any(F.frob(c) != c for u in got for c in u.c)  # some factor lies outside F_p[x]


def test_split_equal_degree_lifted_parts_below_k_match_the_oracle():
    """Linear factors of parts over K = GF(3^2) and GF(2^2) whose
    coefficients lie in F_p, lifted to L: their roots come in orbits under
    r -> r^p, and equal split_roots_oracle's and roots_in_ext's."""
    rng = random.Random(61)
    for p, k, M in [(3, 2, 4), (2, 2, 6), (3, 2, 6)]:
        tw = tower_over(GF(p, k), M)
        K, Fp = tw.base, GF(p)
        f = Poly.one(K)
        for e in (1, 2, M):
            f = f * Poly(K, _random_irreducible(rng, Fp, e).c)
        for d, gd in distinct_degree_parts(f):
            g = lift_poly(gd, tw)
            assert _split_roots(g) == split_roots_oracle(g)
        assert roots_in_ext(f, tw) == sorted(split_roots_oracle(lift_poly(radical(f), tw)))


@pytest.mark.parametrize("p,m", [(13, 2), (5, 3)])
def test_split_equal_degree_takes_the_norm_for_odd_p(p, m, monkeypatch):
    """Over GF(13^2) and GF(5^3), products of distinct seeded irreducibles
    of degree d = 1, 2, 3 split into exactly them, with no power past p:
    the norm's p-power steps and its (p-1)/2-th power, never the
    (q^d-1)/2-th power."""
    rng = random.Random(p + m)
    F = GF(p, m)
    exponents = []
    real_pow = poly_mod._Residues.pow
    monkeypatch.setattr(poly_mod._Residues, "pow", lambda self, a, e: exponents.append(e) or real_pow(self, a, e))
    for d in (1, 2, 3):
        factors = {_random_irreducible(rng, F, d).c for _ in range(4)}
        g = Poly.one(F)
        for c in factors:
            g = g * Poly.from_values(F, c)
        assert sorted(u.c for u in split_equal_degree(g, d)) == sorted(factors)
    assert exponents and max(exponents) <= p and (p - 1) // 2 in exponents


def test_split_evaluation_catches_conjugates_that_are_no_roots(monkeypatch):
    """Orbits under r -> r^p are roots only when g is defined over F_p:
    with the subfield of g's coefficients misread as F_p, the first root
    found, outside F_p, brings a conjugate that is no root, and the two
    make up deg g, so only the evaluation in g refuses them."""
    F = GF(3, 2)
    t = F.gen.val
    u = F.add(t, 1)
    assert F.frob(t) != u and F.frob(u) != t
    g = Poly.from_values(F, (F.neg(t), 1)) * Poly.from_values(F, (F.neg(u), 1))  # (x - t)(x - t - 1)
    assert _split_roots(g) == sorted({t, u})
    monkeypatch.setattr(poly_mod, "all", lambda checks: True, raising=False)  # every coefficient "in F_p"
    with pytest.raises(InternalCheckError, match="^stage=poly.split: split factors do not account") as info:
        split_equal_degree(g, 1)
    assert info.value.stage == "poly.split"


def test_equal_degree_split_failure_names_stage_field_and_input(monkeypatch):
    """With every draw h = 0 no split is found: an internal fault at stage
    poly.split naming the part and its field."""
    F = GF(3)
    g = Poly.from_values(F, (1, 0, 1)) * Poly.from_values(F, (2, 1, 1))  # (x^2 + 1)(x^2 + x + 2)
    monkeypatch.setattr(poly_mod, "random", type("Draws", (), {"Random": _FixedDraws}))
    with pytest.raises(InternalCheckError, match=r"^stage=poly[.]split: equal-degree splitting found no split") as info:
        split_equal_degree(g, 2)
    assert info.value.stage == "poly.split"
    assert str(info.value).endswith(f": f = {g!r} over GF(3)")
