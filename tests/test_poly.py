"""Polynomial algebra: arithmetic, roots, decompositions, additive f_V."""

import random

import pytest

from orecalc import poly as poly_mod
from orecalc.errors import DomainError, InternalCheckError
from orecalc.gf import GF, span_values, tower_over
from orecalc.poly import (
    Poly,
    decompose_through,
    distinct_degree_parts,
    exponent_decomp,
    exponent_gcd,
    f_V,
    gcd_p,
    is_irreducible,
    lift_poly,
    lower_poly,
    multiplier_field,
    poly_pow_mod,
    poly_pth_root,
    radical,
    roots_in_ext,
    roots_with_multiplicity,
    space_basis,
    splitting_degree,
    splitting_tower,
    verify_fp_subspace,
)

from oracles import monic_polys, roots_in_field


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
    while True:
        g = Poly.from_values(K, [rng.randrange(K.q) for _ in range(e)] + [1])
        if is_irreducible(g):
            return g


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
    with pytest.raises(InternalCheckError, match="splitting tower"):
        roots_with_multiplicity(f)


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
    with pytest.raises(DomainError):
        f_V(GF(5), (0, 1, 2), 0)  # not closed under addition


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
