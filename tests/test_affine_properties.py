"""Property sweeps for the affine substitution x -> lam*x + mu.

Poly.compose is the independent oracle: the scan affine_matches, the solver
solve_affine_matches and the witness of are_isomorphic are each checked
against a plain double loop of compositions.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import random
import sys

from orecalc.eigengroup import (
    SubgroupSpec,
    affine_matches,
    eigengroup,
    eigengroup_bruteforce,
    inverse_eigengroup,
    solve_affine_matches,
    torus_centre,
)
from orecalc.errors import DomainError
from orecalc.gf import GF, primitive_root_of_unity
from orecalc.lambda_aut import are_isomorphic, aut_group
from orecalc.parsing import parse_field, parse_poly
from orecalc.poly import Poly, exponent_decomp, lift_poly, radical, roots_with_multiplicity, splitting_tower

from oracles import centre_hits, eigengroup_bruteforce_in_tower, monic_polys, shift_space_oracle, subfield_values

# small enough for a q(q-1) loop of full compositions
SCAN_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(13), GF(2, 2), GF(2, 3), GF(3, 2), GF(2, 4)]


def substitute(f: Poly, lam: int, mu: int) -> Poly:
    return f.compose(Poly.from_values(f.field, (mu, lam)))


def oracle_matches(f: Poly, g: Poly, values=None) -> list[tuple[int, int]]:
    F = f.field
    vals = list(F.elements()) if values is None else list(values)
    return sorted(
        (lam, mu)
        for lam in vals
        if lam
        for mu in vals
        if substitute(f, lam, mu) == g.scale_value(F.pow(lam, f.degree))
    )


def image(f: Poly, lam: int, mu: int) -> Poly:
    """lam^-d f(lam*x + mu): the g that (lam, mu) carries f to."""
    F = f.field
    return substitute(f, lam, mu).scale_value(F.inv(F.pow(lam, f.degree)))


@st.composite
def scan_pairs(draw, monic=False):
    """(f, g) of one degree; g is an affine image of f about half the time."""
    F = draw(st.sampled_from(SCAN_FIELDS))
    low = draw(st.lists(st.integers(0, F.q - 1), min_size=int(monic), max_size=4))
    f = Poly.from_values(F, low + [1 if monic else draw(st.integers(1, F.q - 1))])
    d = f.degree
    if draw(st.booleans()):
        lam = draw(st.integers(1, F.q - 1))
        mu = draw(st.integers(0, F.q - 1))
        g = image(f, lam, mu)
    else:
        low = draw(st.lists(st.integers(0, F.q - 1), min_size=d, max_size=d))
        g = Poly.from_values(F, low + [1 if monic else draw(st.integers(1, F.q - 1))])
    return f, g


@settings(max_examples=60, deadline=None)
@given(scan_pairs(), st.data())
def test_affine_matches_is_the_double_loop(pair, data):
    f, g = pair
    got = affine_matches(f, g)
    assert got == oracle_matches(f, g)
    assert solve_affine_matches(f, g) == got
    F = f.field
    sub = data.draw(st.sets(st.integers(0, F.q - 1)))
    assert affine_matches(f, g, sub) == [(l, m) for l, m in got if l in sub and m in sub]


@settings(max_examples=60, deadline=None)
@given(scan_pairs(monic=True))
def test_isomorphism_witness_is_the_first_match(pair):
    f, g = pair
    res = are_isomorphic(f, g)
    matches = oracle_matches(f, g)
    assert res.isomorphic == bool(matches)
    if matches:
        assert (res.alpha, res.beta) == min(matches)


# ---------------------------------------------------------------------------
# Explicit cases for the branches of the lam solve, which hypothesis reaches
# rarely: a deep pinning coefficient, g = x^d, p | d, unequal leading terms.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("F", [GF(13), GF(2, 4)], ids=["GF13", "GF2_4"])
@pytest.mark.parametrize("d,k", [(4, 0), (4, 1), (5, 2), (6, 0), (6, 3)])
def test_deep_pinning_coefficient(F, d, k):
    """g_{d-1} = 0 and g_k != 0 for some k < d - 1, so lam is solved from
    lam^e with e = d - k >= 2, a power several units share."""
    rng = random.Random(f"deep/{F.q}/{d}/{k}")
    for _ in range(3):
        c = [0] * d + [1]
        c[0] = rng.randrange(1, F.q)
        c[k] = rng.randrange(1, F.q)
        h = Poly.from_values(F, c)
        a = rng.randrange(F.q)
        f = substitute(h, 1, a)  # h(x + a), dense in general
        g = image(h, rng.randrange(1, F.q), 0)  # sparse: same zero pattern as h
        assert g.c[d - 1] == 0 and any(g.c[:d - 1])
        matches = affine_matches(f, g)
        assert any(mu == F.neg(a) for _, mu in matches)
        assert matches == oracle_matches(f, g) == solve_affine_matches(f, g)
        other = Poly.from_values(F, (F.add(g.c[0], rng.randrange(1, F.q)),) + g.c[1:])
        assert affine_matches(f, other) == oracle_matches(f, other) == solve_affine_matches(f, other)


@pytest.mark.parametrize(
    "F", [GF(13), GF(2, 4), GF(3, 2), GF(2, 2)], ids=["GF13", "GF2_4", "GF3_2", "GF2_2"]
)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_monomial_target_takes_every_unit(F, d):
    """g = x^d pins no lam: every unit matches at the one mu that undoes the
    shift of f = (x - a)^d, and nothing matches an f with two distinct roots."""
    g = Poly.from_values(F, [0] * d + [1])
    for a in (0, 1, F.q - 1):
        lin = Poly.from_values(F, (F.neg(a), 1))
        f = lin ** d
        want = sorted((lam, a) for lam in F.units())
        assert affine_matches(f, g) == oracle_matches(f, g) == solve_affine_matches(f, g) == want
        if d > 1:
            f1 = lin ** (d - 1) * Poly.from_values(F, (F.neg(F.add(a, 1)), 1))
            assert affine_matches(f1, g) == oracle_matches(f1, g) == solve_affine_matches(f1, g) == []


@pytest.mark.parametrize("F", [GF(3, 2), GF(2, 2)], ids=["GF3_2", "GF2_2"])
def test_p_divides_degree(F):
    """p | d: the x^(d-1) coefficient of the image does not involve mu."""
    rng = random.Random(f"pdiv/{F.q}")
    for d in (F.p, 2 * F.p):
        for _ in range(6):
            f = Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])
            partner = image(f, rng.randrange(1, F.q), rng.randrange(F.q))
            other = Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])
            for g in (partner, other):
                assert affine_matches(f, g) == oracle_matches(f, g) == solve_affine_matches(f, g)
            assert affine_matches(f, partner)


@pytest.mark.parametrize("F", [GF(7), GF(3, 2), GF(2, 3)], ids=["GF7", "GF3_2", "GF2_3"])
def test_unequal_leading_coefficients(F):
    """Non-monic f and g: an image keeps the leading coefficient, and a g
    with another leading coefficient matches nothing."""
    rng = random.Random(f"lead/{F.q}")
    for _ in range(6):
        f = Poly.from_values(F, [rng.randrange(F.q) for _ in range(3)] + [rng.randrange(2, F.q)])
        g = image(f, rng.randrange(1, F.q), rng.randrange(F.q))
        assert affine_matches(f, g) == oracle_matches(f, g) == solve_affine_matches(f, g) != []
        c = rng.randrange(2, F.q)
        g2 = g.scale_value(c)
        assert g2.c[-1] != f.c[-1]
        assert affine_matches(f, g2) == oracle_matches(f, g2) == solve_affine_matches(f, g2) == []


@pytest.mark.parametrize("F", [GF(5), GF(13), GF(3, 2)], ids=["GF5", "GF13", "GF3_2"])
def test_sign_flip_passes_the_mu_equations(F):
    """f = x^6 + a x^4 + b x^2 + c x against g, its image under x -> lam*x
    with the x^2 coefficient negated.  The equations left after
    eliminating lam see only squares of that coefficient (e = 2), so
    mu = 0 is a root of their gcd; the check of the candidate against
    every coefficient is what rejects it."""
    rng = random.Random(f"sign/{F.q}")
    for _ in range(4):
        a, b, c = (rng.randrange(1, F.q) for _ in range(3))
        f = Poly.from_values(F, (0, c, b, 0, a, 0, 1))
        g = image(f, rng.randrange(1, F.q), 0)
        flipped = Poly.from_values(F, g.c[:2] + (F.neg(g.c[2]),) + g.c[3:])
        assert solve_affine_matches(f, g) == oracle_matches(f, g) != []
        assert solve_affine_matches(f, flipped) == oracle_matches(f, flipped)
        assert all(mu for _, mu in solve_affine_matches(f, flipped))


@pytest.mark.parametrize("F", [GF(7), GF(2, 3), GF(3, 2)], ids=["GF7", "GF2_3", "GF3_2"])
def test_torus_pairs_collapse(F):
    """f = c(x - a)^d and g = c(x - b)^d leave no equation in mu (G = 0):
    the matches are (lam, a - b*lam) for every unit lam, both for p | d
    (e > 1) and for p not dividing d (e = 1)."""
    rng = random.Random(f"torus/{F.q}")
    for d in (1, 2, 3, F.p, 2 * F.p):
        for _ in range(3):
            a, b, c = rng.randrange(F.q), rng.randrange(1, F.q), rng.randrange(1, F.q)
            f = (Poly.from_values(F, (F.neg(a), 1)) ** d).scale_value(c)
            g = (Poly.from_values(F, (F.neg(b), 1)) ** d).scale_value(c)
            want = sorted((lam, F.sub(a, F.mul(b, lam))) for lam in F.units())
            assert solve_affine_matches(f, g) == oracle_matches(f, g) == want
            if d > 1:  # one root moved off the torus: nothing matches
                h = g * Poly.from_values(F, (F.neg(F.add(b, 1)), 1)) // Poly.from_values(F, (F.neg(b), 1))
                assert solve_affine_matches(f, h) == oracle_matches(f, h) == []


def _refuse_the_scan(monkeypatch):
    """Make affine_matches raise wherever solve_affine_matches would call it."""
    eg_mod = sys.modules["orecalc.eigengroup"]  # the package re-exports a function by that name

    def refuse(*args, **kwargs):
        raise AssertionError("solve_affine_matches fell back to the scan")

    monkeypatch.setattr(eg_mod, "affine_matches", refuse)


def test_the_solve_never_falls_back_to_the_scan(monkeypatch):
    """Every monic f up to degree 7 over GF(2), 5 over GF(3), 4 over GF(4)
    and 3 over GF(5), against its images under (1, 0) and (q - 1, 1): the
    solve equals the scan with the scan made to raise.  36 of these pairs
    leave no equation in mu on K (G = 0) with e > 1, and every mu in K is
    then a candidate of the one loop."""
    pairs = [
        (f, image(f, lam, mu))
        for F, top in ((GF(2), 7), (GF(3), 5), (GF(2, 2), 4), (GF(5), 3))
        for d in range(1, top + 1)
        for f in monic_polys(F, d)
        for lam, mu in ((1, 0), (F.q - 1, 1))
    ]
    assert len(pairs) == 2224
    want = [affine_matches(f, g) for f, g in pairs]
    _refuse_the_scan(monkeypatch)
    for (f, g), w in zip(pairs, want):
        assert solve_affine_matches(f, g) == w, (f, g)


@pytest.mark.parametrize("field,text", [
    ("GF(2)", "x^4 + x + 1"),  # e = 3
    ("GF(3)", "x^3 + 2*x + 1"),  # e = 2
    ("GF(4)", "x^4 + x + [1,0]"),  # e = 3
])
def test_non_torus_collapses_solve_without_the_scan(field, text, monkeypatch):
    """Off the torus kind with deg f >= q, every equation in mu can vanish
    on K (G = 0, e > 1): the solve tries every mu in K and, against every
    affine image, equals the scan and the double loop without calling it."""
    F = parse_field(field)
    f = parse_poly(F, text)
    assert torus_centre(f) is None
    images = [image(f, lam, mu) for lam in F.units() for mu in F.elements()]
    want = [oracle_matches(f, g) for g in images]
    assert want == [affine_matches(f, g) for g in images]
    _refuse_the_scan(monkeypatch)
    assert [solve_affine_matches(f, g) for g in images] == want


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF{F.q}")
def test_torus_centre_is_the_linear_radical(F):
    """torus_centre(f) is a exactly when radical(f) = x - a, for scaled
    powers (x - a)^d with p | d among them, and None on every other f."""
    rng = random.Random(f"torus-centre/{F.q}")
    for d in (1, 2, 3, F.p, 2 * F.p, F.p**2, 3 * F.p):
        a, c = rng.randrange(F.q), rng.randrange(1, F.q)
        f = (Poly.from_values(F, (F.neg(a), 1)) ** d).scale_value(c)
        assert torus_centre(f) == a
        for g in (f + Poly.x(F), f + Poly.one(F), Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [c])):
            rad = radical(g)
            assert torus_centre(g) == (F.neg(rad.c[0]) if rad.degree == 1 else None), g


@pytest.mark.parametrize("F", [GF(7), GF(2, 4), GF(3, 2)], ids=["GF7", "GF2_4", "GF3_2"])
def test_torus_pairs_are_decided_without_listing(F, shift_calls):
    """A torus pair gets the witness (1, a - b), the least match, with one
    Taylor shift: the relation check of the witness."""
    rng = random.Random(f"torus-witness/{F.q}")
    for d in (1, 2, F.p, 2 * F.p + 1):
        a, b = rng.randrange(F.q), rng.randrange(F.q)
        f, g = (Poly.from_values(F, (F.neg(r), 1)) ** d for r in (a, b))
        shift_calls.clear()
        res = are_isomorphic(f, g)
        assert (res.alpha, res.beta) == (1, F.sub(a, b)) == min(oracle_matches(f, g))
        assert len(shift_calls) == 1
        assert not are_isomorphic(f, g * Poly.x(F)).isomorphic


@st.composite
def subgroup_specs(draw):
    """Valid SubgroupSpec of all six kinds over fields up to 27 elements."""
    F = draw(st.sampled_from([GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2), GF(3, 3)]))
    kind = draw(st.sampled_from(["trivial", "cyclic", "shift", "shift_cyclic", "torus", "full"]))
    nu = draw(st.integers(0, F.q - 1))
    if kind == "cyclic":
        n = draw(st.sampled_from([k for k in range(1, F.q) if (F.q - 1) % k == 0]))
        return SubgroupSpec(kind, F, n=n, nu=nu)
    if kind in ("shift", "shift_cyclic"):
        # V = beta * F_{p^e}, spanned over F_p by beta times a power basis
        e = draw(st.sampled_from([e for e in range(1, F.m + 1) if F.m % e == 0]))
        zeta = primitive_root_of_unity(F.p**e - 1, F).val if F.p**e > 2 else 1
        beta = draw(st.integers(1, F.q - 1))
        basis = tuple(F.mul(beta, F.pow(zeta, i)) for i in range(e))
        n = 1
        if kind == "shift_cyclic":
            n = draw(st.sampled_from([k for k in range(1, F.p**e) if (F.p**e - 1) % k == 0]))
        variant = "a" if e == F.m else draw(st.sampled_from("ab"))
        return SubgroupSpec(kind, F, n=n, nu=nu, v_basis=basis, variant=variant)
    return SubgroupSpec(kind, F, nu=nu)


@settings(max_examples=80, deadline=None)
@given(subgroup_specs())
def test_inverse_problem_round_trips_through_the_solve(spec):
    """The group realized by inverse_eigengroup, read back by aut_group
    from the solve over K, is the prescribed one, for all six kinds."""
    f = inverse_eigengroup(spec.validate())
    assert [a.pair for a in aut_group(f).eigen.elements()] == [a.pair for a in spec.elements()]


@st.composite
def forced_centre_inputs(draw):
    """f = f1^(p^t), t in {0, 1}, with p not dividing deg f1: the torus
    f1 = (x - nu)^i, or f1 = (x - nu)^i g((x - nu)^n) with g(0) != 0 and n
    prime to p (n = 1 leaves a random f1 with a root or a factor at nu)."""
    F = draw(st.sampled_from([GF(5), GF(7), GF(13), GF(3, 2), GF(2, 3)]))
    w = Poly.from_values(F, (F.neg(draw(st.integers(0, F.q - 1))), 1))
    if draw(st.booleans()):
        f1 = w ** draw(st.integers(1, 9))
    else:
        low = [draw(st.integers(1, F.q - 1))] + draw(st.lists(st.integers(0, F.q - 1), max_size=2))
        n = draw(st.sampled_from([k for k in range(1, 6) if k % F.p]))
        f1 = w ** draw(st.integers(0, 3)) * Poly.from_values(F, low + [1]).compose(w**n)
    assume(f1.degree % F.p)
    return f1 ** (F.p ** draw(st.integers(0, 1)))


@settings(max_examples=80, deadline=None)
@given(forced_centre_inputs())
def test_forced_centre_is_the_only_root_scan_hit(f):
    """With p not dividing d1 = deg f1, eigengroup reads G_f from the one
    candidate nu = -a_(d1-1)/d1 (or the torus): V = 0, the root scan over
    every root of f1 and f1' hits nu alone if anything, and the descent to
    K is brute force's group."""
    try:
        res = eigengroup(f)
    except DomainError as exc:
        assert "exceeds the configured cap" in str(exc)
        return
    F, tower = f.field, res.tower
    assert [a.pair for a in res.descend().elements()] == [a.pair for a in eigengroup_bruteforce(f)]
    a = torus_centre(f)
    if a is not None:
        assert (res.closure.kind, res.closure.nu) == ("torus", tower.level(tower.k).lift(a))
        return
    f1 = exponent_decomp(f).f1
    nu = tower.level(tower.k).lift(F.div(F.neg(f1.c[-2]), f1.degree % F.p))
    rm = roots_with_multiplicity(f, tower)
    hits = centre_hits(rm)
    assert not shift_space_oracle(rm) and not res.closure.v_basis
    assert set(hits) <= {nu}
    assert (res.closure.nu, res.closure.n) == ((nu, hits[nu]) if hits else (0, 1))


@pytest.mark.parametrize("F", SCAN_FIELDS, ids=lambda F: f"GF{F.q}")
def test_isomorphism_makes_no_shift_per_mu(F, shift_calls):
    """Off the torus, are_isomorphic solves for mu instead of shifting f by
    every mu: its only compose_affine call is the relation check of the
    witness (the scan makes one per element of K)."""
    rng = random.Random(f"noscan/{F.q}")
    x = Poly.x(F)
    for _ in range(8):
        r1, r2 = rng.sample(range(F.q), 2)
        f = (x - F.from_value(r1)) * (x - F.from_value(r2))
        f = f * Poly.from_values(F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 3))] + [1])
        partner = image(f, rng.randrange(1, F.q), rng.randrange(F.q))
        other = Poly.from_values(F, [rng.randrange(F.q) for _ in range(f.degree)] + [1])
        for g in (partner, other):
            shift_calls.clear()
            res = are_isomorphic(f, g)
            assert res.isomorphic == bool(oracle_matches(f, g))
            assert shift_calls == ([(res.alpha, res.beta)] if res.isomorphic else [])
    shift_calls.clear()
    affine_matches(f, other)
    assert len(shift_calls) == F.q


@pytest.mark.parametrize("p,coeffs,level", [
    (2, (1, 1, 0, 0, 1), 2),  # x^4 + x + 1, L = GF(2^4)
    (2, (1, 1, 0, 0, 1), 4),
    (2, (1, 0, 1, 1), 3),  # x^3 + x^2 + 1, L = GF(2^3) x GF(2^2) below
    (3, (2, 0, 1, 0, 1), 2),  # x^4 + x^2 + 2
    (3, (1, 2, 0, 1), 3),  # x^3 + 2x + 1, L = GF(3^3)
])
def test_bruteforce_in_tower_is_the_restricted_double_loop(p, coeffs, level):
    """values = the subfield values of a tower level: the eigen-substitution
    pairs with lam, mu in that subfield, against the double loop there."""
    f = Poly.from_values(GF(p), coeffs)
    tower = splitting_tower(f, extra_degrees=(2,))
    sub = subfield_values(tower, level)
    fe = lift_poly(f, tower)
    want = oracle_matches(fe, fe, sub)
    assert affine_matches(fe, fe, sub) == want
    lvl = tower.level(level)
    assert eigengroup_bruteforce_in_tower(f, tower, level) == {
        (lvl.lower(l).val, lvl.lower(m).val) for l, m in want
    }
