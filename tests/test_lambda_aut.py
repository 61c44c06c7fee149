"""Automorphism groups of the Ore extensions and the isomorphism test."""

import json
import random
import shlex
import sys

import pytest

import orecalc.cli as cli
from orecalc import lambda_aut
from orecalc.eigengroup import (
    DEFAULT_BRUTE_CAP,
    eigengroup,
    eigengroup_bruteforce,
)
from orecalc.errors import DomainError, InternalCheckError
from orecalc.gf import GF, tower_over
from orecalc.lambda_aut import AutGroupDesc, LambdaAut, OreHom, aut_group, are_isomorphic
from orecalc.ore import OreAlgebra
from orecalc.parsing import parse_field, parse_poly
from orecalc.poly import Poly, is_irreducible, roots_in_ext

from oracles import assert_record_semantics, monic_polys


def rand_elem(A, rng, ydeg=2, xdeg=3):
    F = A.field
    return A.from_terms(
        [
            Poly.from_values(F, [rng.randrange(F.q) for _ in range(xdeg + 1)])
            for _ in range(ydeg + 1)
        ]
    )


# ---------------------------------------------------------------------------
# Single maps
# ---------------------------------------------------------------------------


def test_hom_images_and_y_coeff():
    F = GF(5)
    A = OreAlgebra(Poly(F, (0, 0, 1)))  # f = x^2
    phi = LambdaAut(A, 3, 0, Poly(F, (1, 1)))
    assert phi.y_coeff == 3  # lam^(d-1) = 3^1
    assert phi.image_x() == A.element(Poly(F, (0, 3)))
    assert phi.image_y() == 3 * A.y + A.element(Poly(F, (1, 1)))
    phi.verify()
    assert phi.apply(A.x) == phi.image_x()
    assert phi.apply(A.y) == phi.image_y()
    lin = OreAlgebra(Poly(F, (2, 1)))  # deg 1: the y-coefficient is lam^0 = 1
    assert LambdaAut(lin, 4, 3).y_coeff == 1


def test_hom_validation():
    F, F2 = GF(5), GF(3)
    A = OreAlgebra(Poly(F, (0, 0, 1)))
    B = OreAlgebra(Poly(F2, (0, 0, 1)))
    with pytest.raises(DomainError):
        OreHom(A, B, 1, 0, Poly.zero(F))
    with pytest.raises(DomainError):
        LambdaAut(A, 0, 1)
    with pytest.raises(DomainError):
        LambdaAut(A, 1, 0, Poly.zero(F2))
    with pytest.raises(DomainError):
        LambdaAut(A, 1, 0).apply(B.x)


def test_hom_records_are_immutable_values():
    """OreHom, LambdaAut and AutGroupDesc compare and hash by value, refuse
    assignment, print as Name(field=value, ...) and survive copy and pickle;
    LambdaAut is rebuilt from its four arguments."""
    F = GF(7)
    f = Poly(F, (1, 0, 0, 1))
    A, B = OreAlgebra(f), OreAlgebra(f.compose_affine(1, 1))
    ore = "Ore(GF(7), f=x^3 + 1)"
    assert_record_semantics(OreHom(A, B, 1, 6, Poly.x(F)), OreHom(A, B, 1, 6, Poly.x(F)),
                            f"OreHom(src={ore}, dst=Ore(GF(7), f=x^3 + 3*x^2 + 3*x + 2), lam=1, mu=6, pol=x)")
    assert_record_semantics(LambdaAut(A, 2, 1), LambdaAut(OreAlgebra(f), 2, 1, Poly.zero(F)),
                            f"LambdaAut(src={ore}, dst={ore}, lam=2, mu=1, pol=0)")
    desc = aut_group(f)
    assert_record_semantics(desc, AutGroupDesc(OreAlgebra(f), desc.eigen),
                            f"AutGroupDesc(algebra={ore}, eigen={desc.eigen!r})")
    with pytest.raises(DomainError, match="share the field"):
        OreHom(A, OreAlgebra(Poly(GF(5), (1, 0, 0, 1))), 1, 0, Poly.zero(F))
    with pytest.raises(DomainError, match="must be a unit"):
        OreHom(A, B, 0, 1, Poly.zero(F))
    with pytest.raises(DomainError, match="wrong field"):
        OreHom(A, B, 1, 1, Poly.zero(GF(5)))


def test_non_eigenpair_is_not_a_homomorphism():
    F = GF(5)
    A = OreAlgebra(Poly(F, (0, 0, 1)))  # G_f = {(lam, 0)}
    LambdaAut(A, 2, 0).verify()
    with pytest.raises(AssertionError):
        LambdaAut(A, 1, 1).verify()


# ---------------------------------------------------------------------------
# The group structure
# ---------------------------------------------------------------------------


def sample_aut(desc, rng):
    a = rng.choice(desc.eigen.elements())
    F = desc.algebra.field
    pol = Poly.from_values(F, [rng.randrange(F.q) for _ in range(4)])
    return LambdaAut(desc.algebra, a.lam, a.mu, pol)


@pytest.mark.parametrize(
    "p,coeffs",
    [(5, (0, 0, 1)), (3, (0, 2, 0, 1)), (2, (0, 1, 1))],
)
def test_composition_matches_map_composition(p, coeffs):
    F = GF(p)
    desc = aut_group(Poly(F, coeffs))
    rng = random.Random(10 + p)
    for _ in range(12):
        a, b = sample_aut(desc, rng), sample_aut(desc, rng)
        e = rand_elem(desc.algebra, rng)
        ab = a * b
        ab.verify()
        assert ab.apply(e) == a.apply(b.apply(e))
        assert a.apply(e + e) == a.apply(e) + a.apply(e)
        e2 = rand_elem(desc.algebra, rng)
        assert a.apply(e * e2) == a.apply(e) * a.apply(e2)


def test_inverse_closed_form():
    F = GF(5)
    desc = aut_group(Poly(F, (0, 0, 1)))
    rng = random.Random(3)
    ident = LambdaAut.identity(desc.algebra)
    for _ in range(10):
        a = sample_aut(desc, rng)
        inv = a.inverse()
        assert a * inv == ident and inv * a == ident
        li = F.inv(a.lam)
        assert inv.lam == li and inv.mu == F.neg(F.mul(li, a.mu))
        assert inv.pol == -a.pol.compose_affine(li, inv.mu).scale_value(
            F.pow(li, desc.f.degree - 1)
        )
        e = rand_elem(desc.algebra, rng)
        assert inv.apply(a.apply(e)) == e


def test_aut_group_shape():
    F = GF(3)
    desc = aut_group(Poly(F, (0, 2, 0, 1)))  # x^3 - x: eigen part is AGL_1(F_3)
    assert desc.order() is None
    assert desc.eigen_order() == 6
    gens = desc.generators()
    shift_gens = [g for g in gens if (g.lam, g.mu) == (1, 0) and not g.pol.is_zero()]
    assert {tuple(g.pol.c) for g in shift_gens} == {(1,), (0, 1)}
    eigen = [LambdaAut(desc.algebra, a.lam, a.mu) for a in desc.eigen.elements()]
    assert len(eigen) == 6
    for g in eigen:
        assert desc.contains(g)


def test_aut_group_contains_rejects():
    F = GF(5)
    desc = aut_group(Poly(F, (0, 0, 1)))
    assert desc.contains(LambdaAut(desc.algebra, 4, 0, Poly.x(F)))
    assert not desc.contains(LambdaAut(desc.algebra, 1, 2))  # (1, 2) not an eigenpair
    other = OreAlgebra(Poly(F, (1, 0, 1)))
    assert not desc.contains(LambdaAut(other, 1, 0))


def test_aut_group_describe():
    d = aut_group(Poly(GF(3), (0, 1))).describe()
    assert d["order"] == "infinite"
    assert "y -> y + P(x)" in d["polynomial_part"]
    assert d["eigen_part"]["kind"] == "torus"
    with pytest.raises(DomainError):
        aut_group(Poly(GF(3), (1,)))
    with pytest.raises(DomainError):
        aut_group(Poly(GF(3), (0, 2)))


# ---------------------------------------------------------------------------
# Isomorphism of two extensions
# ---------------------------------------------------------------------------


def test_iso_translation_witness():
    F = GF(5)
    f = Poly(F, (0, 0, 1))
    g = Poly(F, (1, 2, 1))  # (x + 1)^2
    res = are_isomorphic(f, g)
    assert res.isomorphic and (res.alpha, res.beta) == (1, 1)
    assert res.scaling == 1
    d = res.describe()
    assert d == {"isomorphic": True, "lambda": 1, "alpha": 1, "beta": 1}
    rng = random.Random(8)
    e1, e2 = rand_elem(res.hom.src, rng), rand_elem(res.hom.src, rng)
    assert res.hom.apply(e1 * e2) == res.hom.apply(e1) * res.hom.apply(e2)


def test_iso_negative():
    F = GF(5)
    res = are_isomorphic(Poly(F, (0, 0, 1)), Poly(F, (1, 0, 1)))
    assert not res.isomorphic
    assert res.describe() == {
        "isomorphic": False,
        "lambda": None,
        "alpha": None,
        "beta": None,
    }
    assert res.scaling is None
    assert not are_isomorphic(Poly(F, (0, 1)), Poly(F, (0, 0, 1))).isomorphic


def test_iso_validation():
    F, F3 = GF(5), GF(3)
    with pytest.raises(DomainError):
        are_isomorphic(Poly(F, (1,)), Poly(F, (0, 1)))
    with pytest.raises(DomainError):
        are_isomorphic(Poly(F, (0, 2)), Poly(F, (0, 1)))
    with pytest.raises(DomainError):
        are_isomorphic(Poly(F, (0, 1)), Poly(F3, (0, 1)))


def test_iso_scaling_orbit():
    rng = random.Random(5)
    for F in (GF(5), GF(2, 2)):
        for _ in range(15):
            d = rng.randrange(2, 5)
            f = Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])
            alpha = rng.randrange(1, F.q)
            beta = rng.randrange(F.q)
            g = f.compose_affine(alpha, beta).scale_value(F.inv(F.pow(alpha, d)))
            res = are_isomorphic(f, g)
            assert res.isomorphic
            back = f.compose_affine(res.alpha, res.beta).scale_value(
                F.inv(F.pow(res.alpha, d))
            )
            assert back == g
            res.hom.verify()


def orbit(f):
    F = f.field
    d = f.degree
    out = set()
    for alpha in F.units():
        s = F.inv(F.pow(alpha, d))
        for beta in F.elements():
            out.add(f.compose_affine(alpha, beta).scale_value(s))
    return out


def test_iso_partitions_cubics_over_F3():
    """The decision procedure induces exactly the affine-scaling orbits."""
    F = GF(3)
    cubics = list(monic_polys(F, 3))
    assert len(cubics) == 27
    orbits = {f: frozenset(orbit(f)) for f in cubics}
    seen = set()
    for f in cubics:
        for g in cubics:
            res = are_isomorphic(f, g)
            assert res.isomorphic == (g in orbits[f])
            assert res.isomorphic == are_isomorphic(g, f).isomorphic
        seen.add(orbits[f])
    assert sum(len(c) for c in seen) == 27  # the orbits partition the cubics
    for cls in seen:
        for g in cls:
            assert orbits[g] == cls  # closure under the group action


@pytest.mark.parametrize("p,k", [(2, 12), (3, 8)])
def test_iso_reach_on_large_fields(p, k):
    """are_isomorphic runs without a field cap: over GF(2^12) and GF(3^8) a
    partner gets a witness that carries f to g by substitution, and a cubic
    with another number of roots in K is rejected."""
    F = GF(p, k)
    rng = random.Random(f"iso-reach/{p}/{k}")
    f = Poly.one(F)
    for r in rng.sample(range(F.q), 3):
        f = f * Poly.from_values(F, (F.neg(r), 1))
    alpha, beta = rng.randrange(1, F.q), rng.randrange(F.q)
    g = f.compose(Poly.from_values(F, (beta, alpha))).scale_value(F.inv(F.pow(alpha, 3)))
    res = are_isomorphic(f, g)
    assert res.isomorphic
    sub = Poly.from_values(F, (res.beta, res.alpha))
    assert f.compose(sub) == g.scale_value(F.pow(res.alpha, 3))
    res.hom.verify()
    while True:
        q2 = Poly.from_values(F, (rng.randrange(F.q), rng.randrange(F.q), 1))
        if is_irreducible(q2):
            break
    h = Poly.from_values(F, (F.neg(rng.randrange(F.q)), 1)) * q2
    K = tower_over(F, k)  # the trivial tower: roots in K itself
    assert len(roots_in_ext(h, K)) == 1 and len(roots_in_ext(f, K)) == 3
    assert not are_isomorphic(f, h).isomorphic


@pytest.mark.parametrize("F", [GF(3), GF(13), GF(3, 2)], ids=["GF3", "GF13", "GF3_2"])
def test_iso_check_error_names_stage_and_reproducer(F, monkeypatch):
    """A solver match that fails the relation transport is an internal
    fault at stage iso.solve, reported on one line that ends with a CLI
    call repeating the query."""
    x = Poly.x(F)
    f = x**3 + x + 1
    g = f.compose_affine(1, 1)  # partner: the first witness is (1, 1) or earlier
    good = are_isomorphic(f, g).describe()
    monkeypatch.setattr(lambda_aut, "solve_affine_matches", lambda f, g: [(2, 0)])
    with pytest.raises(InternalCheckError, match=r"^stage=iso\.solve: ") as info:
        are_isomorphic(f, g)
    monkeypatch.undo()
    assert info.value.stage == "iso.solve"
    msg = str(info.value)
    assert "\n" not in msg
    argv = shlex.split(msg.split("reproduce: ", 1)[1])
    assert argv[:2] == ["orecalc", "isomorphic"]
    code, out = cli.run(argv[1:])
    assert code == 0, out
    assert json.loads(out) == good


# ---------------------------------------------------------------------------
# G_f(K) by the solve over K, against the descent and brute force
# ---------------------------------------------------------------------------


def _pairs(auts):
    return [a.pair for a in auts]


def _random_monic(F, d, rng):
    return Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])


def _structured(F, rng):
    """h((x - nu)^n) with n | q - 1, or h(x^p - x): inputs with a cyclic
    part or with shifts."""
    if rng.random() < 0.5 and F.q > 3:
        n = rng.choice([k for k in range(2, 18) if (F.q - 1) % k == 0])
        w = Poly.from_values(F, (F.neg(rng.randrange(F.q)), 1)) ** n
    else:
        w = Poly.from_values(F, [0, F.neg(1)] + [0] * (F.p - 2) + [1])
    return _random_monic(F, rng.randrange(2, 4), rng).compose(w)


def _check_against_descent_and_brute_force(f):
    """The solve's G_f(K) equals the descent's wherever the splitting field
    is within the tower cap, and brute force wherever q <= 2^10; returns
    whether the descent refused f."""
    eigen = aut_group(f).eigen
    try:
        refused, want = False, eigengroup(f).descend()
    except DomainError:
        refused = True
    else:
        assert eigen.describe() == want.describe(), f
    if f.field.q <= DEFAULT_BRUTE_CAP:
        assert _pairs(eigen.elements()) == _pairs(eigengroup_bruteforce(f)), f
    return refused


SOLVE_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(13), GF(2, 2), GF(2, 3), GF(3, 2), GF(2, 4),
                GF(5, 2), GF(3, 3), GF(2, 8), GF(3, 4)]


@pytest.mark.parametrize("F", SOLVE_FIELDS, ids=lambda F: f"GF{F.q}")
def test_aut_group_solve_is_the_descent(F):
    """Seeded random inputs of degree 1 to 8 and structured inputs with
    nontrivial groups: the descriptor read from the solve over K describes
    itself as the descent's does, and its elements are the brute-force
    pairs."""
    rng = random.Random(f"solve-over-K/{F.q}")
    inputs = [_random_monic(F, rng.randrange(1, 9), rng) for _ in range(12)]
    inputs += [_structured(F, rng) for _ in range(6)]
    compared = sum(not _check_against_descent_and_brute_force(f) for f in inputs)
    nontrivial = sum(aut_group(f).eigen_order() > 1 for f in inputs)
    assert compared >= 5 and nontrivial >= 6


@pytest.mark.parametrize("p,m,d", [(2, 1, 16), (2, 1, 24), (2, 1, 40), (5, 1, 10), (7, 1, 8),
                                   (3, 2, 8), (2, 8, 12), (3, 5, 10)])
def test_aut_group_answers_past_the_tower_cap(p, m, d):
    """Seeded random inputs whose splitting field is mostly past the tower
    cap: aut_group answers every one of them, and matches brute force."""
    F = GF(p, m)
    rng = random.Random(f"refusals/7/{p}/{m}/{d}")
    refused = [_check_against_descent_and_brute_force(_random_monic(F, d, rng)) for _ in range(10)]
    assert sum(refused) >= 3


@pytest.mark.parametrize("field,f,order", [
    ("GF(2)", "x^40+x^3+x^2+x+1", 1),
    ("GF(2^8)", "x^12+x^5+[1,1]*x+1", 1),
    ("GF(7)", "x^14 + 5*x^8 + 5*x^7 + x^2 + 2*x + 3", 7),
    ("GF(13)", "x^26 + 11*x^14 + x^2 + 3", 26),
    ("GF(3^2)", "x^12 + [1,2]*x^4 + [1,1]", 4),
    ("GF(2^4)", "x^15 + [0,1,1,1]*x^10 + [0,0,1,0]*x^5 + [0,1,1,1]", 5),
])
def test_aut_group_cli_answers_where_eigengroup_refuses(field, f, order):
    """aut-group needs no splitting field; eigengroup still does."""
    code, out = cli.run(["eigengroup", "--field", field, "--f", f])
    assert code == 1 and "exceeds the configured cap" in out
    code, out = cli.run(["aut-group", "--field", field, "--f", f])
    assert code == 0, out
    assert json.loads(out)["eigen_part"]["order"] == order
    g = parse_poly(parse_field(field), f)
    assert _pairs(aut_group(g).eigen.elements()) == _pairs(eigengroup_bruteforce(g))


@pytest.mark.parametrize("F", [GF(3), GF(7), GF(2, 2), GF(3, 2)], ids=["GF3", "GF7", "GF4", "GF9"])
def test_aut_check_error_names_stage_and_reproducer(F, monkeypatch):
    """Solved eigenpairs that are not a group descriptor's elements are an
    internal fault at stage aut.solve, on one line that ends with the CLI
    call repeating the query."""
    x = Poly.x(F)
    f = (x**2 - 1) ** 2 * x
    good = cli.run(["aut-group", "--field", repr(F), "--f", repr(f)])
    eg_mod = sys.modules["orecalc.eigengroup"]
    monkeypatch.setattr(eg_mod, "solve_affine_matches", lambda f, g: [(1, 1)])
    with pytest.raises(InternalCheckError, match=r"^stage=aut\.solve: ") as info:
        aut_group(f)
    monkeypatch.undo()
    assert info.value.stage == "aut.solve"
    msg = str(info.value)
    assert "\n" not in msg
    argv = shlex.split(msg.split("reproduce: ", 1)[1])
    assert argv[:2] == ["orecalc", "aut-group"]
    assert cli.run(argv[1:]) == good


@pytest.mark.parametrize("F", [GF(3), GF(2, 2)], ids=["GF3", "GF4"])
def test_aut_verify_error_names_stage_and_reproducer(F, monkeypatch):
    """A generator that fails the relation transport is an internal fault
    at stage aut.verify, on one line that ends with the CLI call repeating
    the query."""
    x = Poly.x(F)
    f = x**3 + x + 1
    good = cli.run(["aut-group", "--field", repr(F), "--f", repr(f)])
    generators = AutGroupDesc.generators
    monkeypatch.setattr(AutGroupDesc, "generators",
                        lambda self: generators(self) + [LambdaAut(self.algebra, 1, 1)])  # x -> x + 1 moves f
    with pytest.raises(InternalCheckError, match=r"^stage=aut\.verify: relation transport fails") as info:
        aut_group(f)
    monkeypatch.undo()
    assert info.value.stage == "aut.verify"
    msg = str(info.value)
    assert "\n" not in msg
    argv = shlex.split(msg.split("reproduce: ", 1)[1])
    assert argv[:2] == ["orecalc", "aut-group"]
    assert cli.run(argv[1:]) == good
