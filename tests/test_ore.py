"""Ore extension K[x][y; f d/dx]: normal form, centre, normality, rank."""

import random
import shlex

import pytest

from orecalc.cli import run
from orecalc.errors import DomainError, InternalCheckError
from orecalc.gf import GF
from orecalc.ore import (
    OreAlgebra,
    OreElement,
    delta_apply,
    delta_power,
    is_central,
    verify_normality,
)
from orecalc.poly import Poly

from oracles import monic_polys


def rand_elem(A, rng, ydeg=3, xdeg=4):
    terms = []
    for _ in range(rng.randrange(ydeg + 1) + 1):
        terms.append(Poly.from_values(A.field, [rng.randrange(A.field.q) for _ in range(rng.randrange(xdeg + 1))]))
    return A.from_terms(terms)


def sample_algebras():
    F2, F3, F5 = GF(2), GF(3), GF(5)
    F4 = GF(2, 2)
    return [
        OreAlgebra(Poly(F2, (0, 0, 1))),
        OreAlgebra(Poly(F3, (2, 0, 1))),
        OreAlgebra(Poly(F5, (1, 1))),
        OreAlgebra(Poly.from_values(F4, (0, 2, 1))),
    ]


def test_defining_relation():
    for A in sample_algebras():
        assert A.y * A.x == A.x * A.y + A.element(A.f)
        assert (A.y * A.x - A.x * A.y).coeff(0) == A.f


def test_commutation_example_char2():
    F = GF(2)
    A = OreAlgebra(Poly(F, (0, 0, 1)))  # f = x^2
    xx = A.element(Poly(F, (0, 0, 1)))
    assert A.y * xx == xx * A.y  # delta(x^2) = x^2 * 2x = 0 in char 2


def test_delta_power_example_char3():
    F = GF(3)
    f = Poly(F, (0, 0, 1))  # x^2
    x = Poly.x(F)
    assert delta_apply(f, f) == Poly(F, (0, 0, 0, 2))  # 2x^3
    assert delta_power(f, x, 2) == Poly(F, (0, 0, 0, 2))
    assert delta_power(f, x, 3) == Poly.zero(F)
    # the same derivation realized inside the algebra as [y, -]
    A = OreAlgebra(f)
    g = A.element(x)
    for _ in range(3):
        g = A.y * g - g * A.y
    assert g.is_zero()
    assert (A.y * A.element(x) - A.element(x) * A.y).coeff(0) == f


def test_delta_negative_power_rejected():
    F = GF(3)
    with pytest.raises(DomainError):
        delta_power(Poly.x(F), Poly.x(F), -1)


def test_ring_axioms_random():
    rng = random.Random(23)
    for A in sample_algebras():
        one = A.one()
        for _ in range(40):
            a, b, c = (rand_elem(A, rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert c * (a + b) == c * a + c * b
            assert (a * b) * c == a * (b * c)
            assert a * one == a and one * a == a
            assert a - a == A.zero()
        assert A.x * A.y != A.y * A.x  # noncommutative since f != 0


@pytest.mark.parametrize("p,m", [(7, 1), (2, 3), (3, 2), (3, 11)])
def test_sub_is_add_of_negation(p, m):
    """a - b == a + (-b) for polynomials and Ore elements of unequal lengths
    (the zero one included), and with scalar and polynomial operands on
    either side, over a prime field, a char-2 field, a tabled odd extension
    and a field without tables."""
    F = GF(p, m)
    rng = random.Random(F.q)
    A = OreAlgebra(Poly.from_values(F, [rng.randrange(F.q) for _ in range(2)] + [1]))

    def rand_poly():
        return Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(6))])

    for _ in range(40):
        a, b = rand_poly(), rand_poly()
        c, n = F.from_value(rng.randrange(F.q)), rng.randrange(-p, p)
        assert a - b == a + (-b) and b - a == b + (-a)
        assert a - c == a + (-c) and c - a == c + (-a)
        assert a - n == a + (-n) and n - a == n + (-a)
        u, v = rand_elem(A, rng), rand_elem(A, rng)
        assert u - v == u + (-v) and v - u == v + (-u)
        assert u - a == u + (-a) and a - u == a + (-u)
        assert u - n == u + (-n) and n - u == n + (-u)


def test_mixed_algebra_arithmetic_rejected():
    F = GF(3)
    A = OreAlgebra(Poly(F, (0, 1)))
    B = OreAlgebra(Poly(F, (1, 1)))
    with pytest.raises(DomainError):
        A.y + B.y
    with pytest.raises(DomainError):
        A.element(B.x)


def test_scalar_and_poly_coercion():
    F = GF(5)
    A = OreAlgebra(Poly(F, (0, 1)))
    assert A.element(7) == A.element(2)
    assert 2 * A.y == A.y + A.y
    assert A.y * Poly(F, (0, 1)) == A.y * A.x
    assert (A.x + 1).coeff(0) == Poly(F, (1, 1))


def test_pow_matches_repeated_product():
    rng = random.Random(5)
    for A in sample_algebras()[:2]:
        for _ in range(10):
            a = rand_elem(A, rng, ydeg=2, xdeg=2)
            acc = A.one()
            for e in range(4):
                assert a**e == acc
                acc = acc * a


def test_centre_examples():
    # f = 1, odd characteristic: z2 = y^p
    for p in (3, 5):
        A = OreAlgebra(Poly.one(GF(p)))
        cg = A.centre_generators()
        assert cg.c.is_zero()
        assert cg.z2 == A.y**p
        assert cg.z1 == A.x**p
    # p = 2, f = x^2: c = f' = 0, z2 = y^2
    A = OreAlgebra(Poly(GF(2), (0, 0, 1)))
    cg = A.centre_generators()
    assert cg.z2 == A.y * A.y
    # p = 3, f = x: c = 1, z2 = y^3 - y
    A = OreAlgebra(Poly(GF(3), (0, 1)))
    cg = A.centre_generators()
    assert cg.c == Poly.one(GF(3))
    assert cg.z2 == A.y**3 - A.y


def test_is_central():
    A = OreAlgebra(Poly(GF(3), (0, 0, 1)))
    assert is_central(A.one())
    assert is_central(A.element(2))
    assert not is_central(A.y)
    assert not is_central(A.x)
    cg = A.centre_generators()
    assert is_central(cg.z1) and is_central(cg.z2)
    assert is_central(cg.z1 * cg.z2 + cg.z2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_centre_generators_sweep(p):
    """z1 and z2 commute with both generators for every monic f, deg 1-3."""
    F = GF(p)
    for d in (1, 2, 3):
        for f in monic_polys(F, d):
            A = OreAlgebra(f)
            cg = A.centre_generators()
            assert cg.z1.commutator(A.x).is_zero()
            assert cg.z1.commutator(A.y).is_zero()
            assert cg.z2.commutator(A.x).is_zero()
            assert cg.z2.commutator(A.y).is_zero()


@pytest.mark.parametrize("p", [2, 3, 5])
def test_delta_p_is_c_times_delta(p):
    """delta^p(x) = c * f with c = (delta^(p-2) f)' computed independently."""
    F = GF(p)
    x = Poly.x(F)
    for d in (1, 2, 3):
        for f in monic_polys(F, d):
            lhs = delta_power(f, x, p)
            c = f.derivative() if p == 2 else delta_power(f, f, p - 2).derivative()
            assert lhs == c * f
            assert OreAlgebra(f).c_poly == c
            # and the full law delta^p = c * delta on a non-generator input
            g = Poly(F, (1, 2 % p, 1))
            assert delta_power(f, g, p) == c * delta_apply(f, g)


@pytest.mark.parametrize("p", [2, 3])
def test_normality_sweep(p):
    F = GF(p)
    for d in (1, 2, 3):
        for f in monic_polys(F, d):
            verify_normality(f)


def test_omega_examples_and_multiplicativity():
    F = GF(2)
    A = OreAlgebra(Poly(F, (0, 0, 1)))  # f = x^2, f' = 0 in char 2
    assert A.omega(A.x) == A.x
    assert A.omega(A.one()) == A.one()
    assert A.omega(A.y) == A.y
    B = OreAlgebra(Poly(GF(3), (0, 0, 1)))  # f = x^2, f' = 2x
    assert B.omega(B.y) == B.y - B.element(Poly(GF(3), (0, 2)))
    rng = random.Random(41)
    for A in sample_algebras():
        fe = A.element(A.f)
        for _ in range(25):
            a = rand_elem(A, rng, ydeg=2, xdeg=3)
            b = rand_elem(A, rng, ydeg=2, xdeg=3)
            assert A.omega(a * b) == A.omega(a) * A.omega(b)
            assert A.omega(a + b) == A.omega(a) + A.omega(b)
            assert fe * a == A.omega(a) * fe  # f is normal


def test_linear_factors_are_normal():
    """x - lam is normal in the algebra whenever f(lam) = 0."""
    for F, fc in ((GF(3), (0, (3 - 1), 0, 1)), (GF(5), (0, 0, 1))):
        f = Poly(F, fc)
        A = OreAlgebra(f)
        for lam in F.elements():
            if f.eval_value(lam) != 0:
                continue
            lin = Poly.from_values(F, (F.neg(lam), 1))
            le = A.element(lin)
            g = A.element(f // lin)
            assert A.y * le == le * (A.y + g)
            assert A.x * le == le * A.x


def central_decompose(E):
    """Write E as sum of z1^a z2^b x^i y^j with i, j < p; returns the
    coefficient dictionary {(i, j): {(a, b): packed value}}."""
    A = E.algebra
    F = A.field
    p = F.p
    cg = A.centre_generators()
    comps = {}
    rem = E
    while not rem.is_zero():
        n = rem.y_degree
        b, j = divmod(n, p)
        an = rem.coeff(n)
        sub = A.zero()
        for k, v in enumerate(an.c):
            if not v:
                continue
            a, i = divmod(k, p)
            d = comps.setdefault((i, j), {})
            assert (a, b) not in d
            d[(a, b)] = v
            term = cg.z1**a * cg.z2**b * A.x**i * A.y**j
            sub = sub + A.element(Poly.from_values(F, (v,))) * term
        rem = rem - sub
        assert rem.is_zero() or rem.y_degree < n
    return comps


def central_compose(A, comps):
    cg = A.centre_generators()
    F = A.field
    out = A.zero()
    for (i, j), d in comps.items():
        for (a, b), v in d.items():
            term = cg.z1**a * cg.z2**b * A.x**i * A.y**j
            out = out + A.element(Poly.from_values(F, (v,))) * term
    return out


def test_free_rank_p_squared_over_centre():
    """Random central-coefficient combinations of the p^2 basis monomials
    x^i y^j round-trip through normal form: the module is free of rank p^2."""
    rng = random.Random(77)
    algebras = [
        OreAlgebra(Poly(GF(2), (0, 0, 1))),
        OreAlgebra(Poly(GF(3), (1, 0, 1))),
        OreAlgebra(Poly.from_values(GF(2, 2), (0, 2, 1))),
    ]
    for A in algebras:
        p = A.field.p
        for _ in range(8):
            comps = {}
            for _ in range(rng.randrange(1, 5)):
                key = (rng.randrange(p), rng.randrange(p))
                v = rng.randrange(1, A.field.q)
                comps.setdefault(key, {})[(rng.randrange(3), rng.randrange(3))] = v
            E = central_compose(A, comps)
            assert not E.is_zero()
            got = central_decompose(E)
            assert got == comps
        # decomposition of an arbitrary element exists and round-trips
        for _ in range(4):
            E = rand_elem(A, rng, ydeg=2 * p, xdeg=2 * p)
            comps = central_decompose(E)
            assert all(i < p and j < p for i, j in comps)
            assert central_compose(A, comps) == E


def test_y_power_decomposition():
    """y^p = z2 + c(x) y, the degree-p reduction behind the rank bound."""
    for A in sample_algebras():
        p = A.field.p
        cg = A.centre_generators()
        assert A.y**p == cg.z2 + A.element(cg.c) * A.y
        assert A.x**p == cg.z1


def test_normal_form_accessors():
    F = GF(3)
    A = OreAlgebra(Poly(F, (0, 0, 1)))
    e = A.from_terms((Poly(F, (1, 2)), Poly.zero(F), Poly.one(F)))
    assert e.y_degree == 2
    assert e.coeff(0) == Poly(F, (1, 2))
    assert e.coeff(1).is_zero()
    assert e.coeff(2) == Poly.one(F)
    assert e.coeff(9).is_zero()
    assert A.zero().is_zero() and A.zero().y_degree == -1
    assert repr(A.y * A.y + A.x) == "y^2 + x"


@pytest.mark.parametrize("F", [GF(3), GF(2, 2)], ids=["GF3", "GF2_2"])
def test_centre_check_error_names_stage_and_reproducer(F, monkeypatch):
    """A z2 built from a wrong c is not central: an internal fault at stage
    centre.central, on one line that ends with the CLI call for the centre."""
    f = Poly(F, (1, 1, 1))
    good = run(["centre", "--field", repr(F), "--f", repr(f)])
    assert good[0] == 0
    c_poly = OreAlgebra.c_poly
    monkeypatch.setattr(OreAlgebra, "c_poly", property(lambda self: c_poly.fget(self) + 1))
    with pytest.raises(InternalCheckError, match=r"^stage=centre\.central: z2 is not central; ") as info:
        OreAlgebra(f).centre_generators()
    monkeypatch.undo()
    assert info.value.stage == "centre.central"
    msg = str(info.value)
    assert "\n" not in msg
    argv = shlex.split(msg.split("reproduce: ", 1)[1])
    assert argv[:2] == ["orecalc", "centre"]
    assert run(argv[1:]) == good
