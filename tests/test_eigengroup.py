"""Eigengroups: closed form vs brute force, descent, eigenforms, inverse."""

import json
import random
import shlex
import sys

import pytest

from orecalc import poly as poly_mod
from orecalc.cli import run
from orecalc.errors import DomainError, InternalCheckError
from orecalc.gf import GF, primitive_root_of_unity, span_values, tower_over
from orecalc.eigengroup import (
    DEFAULT_BRUTE_CAP,
    AffineAut,
    EigengroupDesc,
    SubgroupSpec,
    eigengroup,
    eigengroup_bruteforce,
    eigengroup_descend,
    inverse_eigengroup,
    shift_space,
    shift_space_is_zero,
    solve_affine_matches,
)
from orecalc.poly import (
    Poly,
    exponent_decomp,
    f_V,
    lift_poly,
    multiplier_field,
    roots_in_ext,
    roots_with_multiplicity,
    splitting_tower,
)

from oracles import (
    centre_hits,
    eigengroup_bruteforce_in_tower,
    fixed_point,
    monic_polys,
    roots_in_field,
    subfield_values,
    triviality_criterion,
)


def pairs_of(auts):
    return {a.pair for a in auts}


# ---------------------------------------------------------------------------
# Affine substitutions
# ---------------------------------------------------------------------------


def test_affine_composition_is_substitution_composition():
    rng = random.Random(2)
    for F in (GF(5), GF(2, 2), GF(3, 2)):
        for _ in range(60):
            a = AffineAut(F, rng.randrange(1, F.q), rng.randrange(F.q))
            b = AffineAut(F, rng.randrange(1, F.q), rng.randrange(F.q))
            f = Poly.from_values(F, [rng.randrange(F.q) for _ in range(4)] + [1])
            assert (a * b).apply(f) == a.apply(b.apply(f))
            assert (a * a.inverse()).pair == (1, 0)
            assert a * AffineAut.identity(F) == a


def test_affine_power_and_order():
    for F in (GF(5), GF(2, 3)):
        for lam in range(1, F.q):
            for mu in range(F.q):
                a = AffineAut(F, lam, mu)
                acc = AffineAut.identity(F)
                for j in range(1, 2 * F.q):
                    acc = acc * a
                    assert a.power(j) == acc
                n = a.order()
                assert a.power(n).pair == (1, 0)
                assert all(a.power(j).pair != (1, 0) for j in range(1, n))
                if lam == 1:
                    assert n == (F.p if mu else 1)
                else:
                    assert n == F.order_of(lam)
                    fp = fixed_point(a)
                    assert F.add(F.mul(lam, fp), mu) == fp


def test_affine_rejects_zero_lambda():
    with pytest.raises(DomainError):
        AffineAut(GF(3), 0, 1)


def test_eigenvalue_on():
    F = GF(5)
    f = Poly(F, (0, 1))  # x
    assert AffineAut(F, 3, 0).eigenvalue_on(f) == 3
    assert AffineAut(F, 3, 1).eigenvalue_on(f) is None


# ---------------------------------------------------------------------------
# Brute force: pinned examples
# ---------------------------------------------------------------------------


def test_bruteforce_examples():
    F5 = GF(5)
    got = eigengroup_bruteforce(Poly(F5, (0, 1)))  # f = x
    assert pairs_of(got) == {(lam, 0) for lam in range(1, 5)}
    f = Poly(F5, (0, 1)) * Poly(F5, (1, 1)) ** 2  # x(x+1)^2
    assert pairs_of(eigengroup_bruteforce(f)) == {(1, 0)}
    for F in (GF(2), GF(3), GF(5)):
        q = F.q
        full = Poly.from_values(F, [0, F.neg(1)] + [0] * (q - 2) + [1])  # x^q - x
        assert len(eigengroup_bruteforce(full)) == q * (q - 1)


def test_bruteforce_preconditions_and_cap():
    F = GF(3)
    with pytest.raises(DomainError):
        eigengroup_bruteforce(Poly(F, (1,)))
    with pytest.raises(DomainError):
        eigengroup_bruteforce(Poly(F, (0, 2)))  # not monic
    with pytest.raises(DomainError):
        eigengroup_bruteforce(Poly.from_values(GF(3, 2), (1, 0, 1)), cap=4)
    assert eigengroup_bruteforce(Poly.from_values(GF(3, 2), (1, 0, 1)))


# ---------------------------------------------------------------------------
# Shift spaces
# ---------------------------------------------------------------------------


def test_shift_space_examples():
    F3, F5 = GF(3), GF(5)
    ss = shift_space(roots_with_multiplicity(Poly(F3, (0, 2, 0, 1))))  # x^3 - x
    assert set(span_values(ss.tower.ext, ss.basis)) == {0, 1, 2}
    assert multiplier_field(ss.tower.ext, ss.basis) == 1
    f = Poly(F5, (0, 1)) * Poly(F5, (1, 1)) ** 2
    assert shift_space(roots_with_multiplicity(f)).dim == 0  # multiplicities 1 and 2 differ
    assert shift_space(roots_with_multiplicity(Poly(F3, (2, 0, 1)))).dim == 0  # x^2 - 1
    with pytest.raises(DomainError):
        shift_space(roots_with_multiplicity(Poly(F3, (1, 2, 1))))  # (x+1)^2 has a single root


def test_shift_space_levels():
    F3 = GF(3)
    f = Poly.from_values(F3, [0, 2] + [0] * 7 + [1])  # x^9 - x
    rm = roots_with_multiplicity(f)
    full = shift_space(rm)
    assert len(span_values(full.tower.ext, full.basis)) == 9 and multiplier_field(full.tower.ext, full.basis) == 2
    level1 = shift_space(rm, level=1)
    assert len(span_values(level1.tower.ext, level1.basis)) == 3
    assert set(span_values(level1.tower.ext, level1.basis)) == set(subfield_values(level1.tower, 1))


# ---------------------------------------------------------------------------
# Closed form: pinned examples
# ---------------------------------------------------------------------------


def test_single_root_gives_torus():
    F5 = GF(5)
    f = Poly(F5, (-2, 1)) ** 3  # (x - 2)^3
    res = eigengroup(f)
    assert res.closure.kind == "torus"
    assert res.closure.nu == 2
    assert res.closure.order() is None  # infinite over the closure
    assert res.eigenform.case == "single_root" and res.eigenform.i == 3
    base = res.descend()
    assert base.kind == "torus" and base.order() == 4
    assert pairs_of(base.elements()) == pairs_of(eigengroup_bruteforce(f))


def test_cyclic_case_with_i_zero():
    F5 = GF(5)
    f = Poly(F5, (-2, 1)) ** 4 - 1  # (x - 2)^4 - 1
    res = eigengroup(f)
    ef = res.eigenform
    assert ef.case == "A11" and ef.i == 0 and ef.n == 4 and ef.nu == 2
    assert ef.g == Poly(F5, (-1, 1))
    assert res.closure.order() == 4
    assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))


def test_quadratic_minus_one_char3():
    F3 = GF(3)
    f = Poly(F3, (2, 0, 1))  # x^2 - 1
    res = eigengroup(f)
    ef = res.eigenform
    assert ef.case == "A11" and ef.i == 0 and ef.n == 2 and ef.nu == 0
    assert pairs_of(res.descend().elements()) == {(1, 0), (2, 0)}
    # sigma(f) = lambda_n^i * f with i = 0: f is G_f-invariant since n | i
    for a in res.descend().elements():
        assert a.apply(f) == f


def test_additive_kernel_B11_char2():
    F4 = GF(2, 2)
    f = Poly.from_values(F4, (0, 1, 1))  # x^2 + x = f_V for V = F_2
    res = eigengroup(f)
    assert res.eigenform.case == "B11"
    assert res.closure.n == 1 and len(res.closure.v_basis) == 1
    assert res.closure.order() == 2
    assert pairs_of(res.descend().elements()) == {(1, 0), (1, 1)}


def test_shifted_additive_A10_over_F9():
    F9 = GF(3, 2)
    t = F9.gen.val
    fv = f_V(F9, (0, 1, 2))
    f = fv.compose_affine(1, F9.neg(t))  # f_V(x - t), V = F_3
    res = eigengroup(f)
    ef = res.eigenform
    assert ef.case == "A10" and ef.n == 2 and ef.i == 1 and ef.nu == t
    desc = res.closure
    assert desc.n == 2 and len(desc.v_basis) == 1
    assert desc.order() == 6
    assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
    # the eigenvalue law: the cyclic generator scales f by lambda_n^i != 1
    lam = desc.lambda_n
    gen = AffineAut(F9, lam, F9.mul(F9.sub(1, lam), desc.nu))
    assert gen.apply(f) == f.scale_value(F9.pow(lam, ef.i))
    assert gen.apply(f) != f  # n does not divide i = 1


def test_full_additive_A10_over_F4():
    F4 = GF(2, 2)
    t = F4.gen.val
    fv = f_V(F4, tuple(F4.elements()))  # x^4 - x, e = 2
    f = fv.compose_affine(1, F4.neg(t))
    res = eigengroup(f)
    ef = res.eigenform
    assert ef.case == "A10" and ef.n == 3 and ef.i == 1
    assert res.closure.order() == 12
    assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))


def test_constructed_A10_with_nontrivial_g():
    F3 = GF(3)
    fv = Poly(F3, (0, 2, 0, 1))  # x^3 - x
    # shifting by 1 is invisible: 1 lies in the kernel V, so f = f_V^2
    f = (fv.compose_affine(1, 2)) ** 2
    res = eigengroup(f)
    ef = res.eigenform
    assert ef.case == "A10" and ef.i == 2 and ef.n == 2 and ef.nu == 0
    assert res.closure.order() == 6
    assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
    # i = 2 is divisible by n = 2, so f is fully G_f-invariant
    for a in res.descend().elements():
        assert a.apply(f) == f
    # a deeper product with an honest g part; note f_V^3 + f_V would itself
    # be additive, so the smallest composite with n = 2 is f_V * (f_V^4 + 1)
    g = fv * (fv**4 + 1)
    res2 = eigengroup(g)
    ef2 = res2.eigenform
    assert ef2.case == "A10" and ef2.i == 1 and ef2.n == 2
    assert ef2.g.c == (1, 0, 1)  # over the splitting field of f
    assert pairs_of(res2.descend().elements()) == pairs_of(eigengroup_bruteforce(g))


def test_frobenius_power_of_A10_case():
    """f -> f^p preserves the eigengroup and bumps the s-part of the form."""
    F3 = GF(3)
    fv = Poly(F3, (0, 2, 0, 1))
    f = (fv.compose_affine(1, 2)) ** 2
    cube = f**3
    res, res3 = eigengroup(f), eigengroup(cube)
    assert res3.eigenform.s == res.eigenform.s + 1
    assert pairs_of(res3.descend().elements()) == pairs_of(res.descend().elements())


def test_trivial_group_example():
    F5 = GF(5)
    f = Poly(F5, (0, 1)) * Poly(F5, (1, 1)) ** 2
    res = eigengroup(f)
    assert res.closure.is_trivial()
    assert res.eigenform.case == "none"
    assert res.descend().order() == 1


@pytest.mark.parametrize(
    "p,coeffs,M",
    [
        (5, {0: 1, 6: 1, 7: 1}, 7),  # x^7 + x^6 + 1 over GF(5), L = GF(5^7)
        (2, {0: 1, 3: 1, 17: 1}, 17),  # x^17 + x^3 + 1 over GF(2), L = GF(2^17)
    ],
)
def test_reach_over_a_splitting_field_without_tables(p, coeffs, M):
    """Splitting fields beyond the log-table limit: every root is found by
    equal-degree splitting, not by a scan of L."""
    F = GF(p)
    f = Poly(F, [coeffs.get(i, 0) for i in range(max(coeffs) + 1)])
    res = eigengroup(f)
    assert res.tower.M == M and not res.tower.ext._has_tables
    assert len(roots_with_multiplicity(f, res.tower).distinct()) == f.degree
    assert res.closure.is_trivial()
    assert res.descend().order() == 1


def test_eigengroup_splits_f_and_f1_derivative_at_most_once(split_calls):
    """eigengroup passes one distinct-degree split of f from the tower to the
    roots, and splits f1' once for its roots; no polynomial is split twice."""
    calls = split_calls
    F5, F9 = GF(5), GF(3, 2)
    cases = [
        Poly(F5, (0, 1)) * Poly(F5, (1, 1)) ** 2,  # trivial
        Poly(F5, (-2, 1)) ** 4 - 1,  # A11
        Poly(F9, (0, 1, 0, 1)),  # x^3 + x
        Poly(F9, (1, 0, 1)) ** 3,  # a p-th power
        Poly(GF(7), (3, 0, 1, 5, 1)),
    ]
    for f in cases:
        calls.clear()
        eigengroup(f)
        assert calls.get(f) == 1
        assert all(n == 1 for n in calls.values()), calls
        f1d = exponent_decomp(f).f1.derivative()
        assert set(calls) <= {f, f1d}


def test_eigengroup_shifts_each_candidate_centre_once(shift_calls):
    """The centre search shifts once by each candidate and no separate
    triviality pass shifts again.  When p does not divide d1 = deg f1 the
    one candidate is nu = -a_(d1-1)/d1; when p | d1 and V = 0 the
    candidates are the roots of f1 and of f1' in K, lifted to L; when
    V != 0 they are all roots of f1 and f1' in L, each shifting G by
    f_V(nu) before the generator checks shift f by the basis of V."""
    F5, F7 = GF(5), GF(7)
    forced = [
        Poly(F5, (0, 1)) * Poly(F5, (1, 1)) ** 2,  # trivial
        Poly(F7, (1, 3, 0, 1)),  # trivial, three roots in GF(7^2)
        Poly(F5, (-2, 1)) ** 4 - 1,  # A11; f' has the root 2, no root of f
        (Poly(F5, (-2, 1)) ** 4 - 1) ** 5,  # its 5th power: f1 is shifted
    ]
    for f in forced:
        f1 = exponent_decomp(f).f1
        d1, K = f1.degree, f.field
        shift_calls.clear()
        res = eigengroup(f)
        nu = res.tower.level(res.tower.k).lift(K.div(K.neg(f1.c[d1 - 1]), d1 % K.p))
        assert not res.closure.v_basis
        assert [mu for lam, mu in shift_calls if lam == 1] == [nu]
    x7 = Poly.x(F7)
    split = [
        Poly(F5, (1, 0, 1, 0, 0, 1)),  # x^5 + x^2 + 1, trivial
        Poly(F7, (3, 0, 0, 0, 0, 0, 1, 1)),  # x^7 + x^6 + 3, trivial
        (x7 - 2) * ((x7 - 2) ** 3 + 1) ** 2,  # A11 at nu = 2, n = 3, degree 7
    ]
    outside = 0
    for f in split:
        f1 = exponent_decomp(f).f1
        rm = roots_with_multiplicity(f)
        scan = set(rm.distinct()) | set(roots_in_ext(f1.derivative(), rm.tower))
        lift = rm.tower.level(rm.tower.k).lift
        cands = {lift(r) for r in roots_in_field(f1) + roots_in_field(f1.derivative())}
        shift_calls.clear()
        res = eigengroup(f)
        assert not res.closure.v_basis and shift_space(rm).dim == 0
        assert sorted(mu for lam, mu in shift_calls if lam == 1) == sorted(cands)
        assert cands <= scan
        outside += len(scan - cands)
    assert outside  # roots outside K that the scan shifted by and the V = 0 path skips
    F3 = GF(3)
    fv = Poly(F3, (0, 2, 0, 1))  # x^3 - x
    for f in [fv + 1, fv * (fv**4 + 1), (fv.compose_affine(1, 2) ** 2 + 1) ** 3]:
        f1 = exponent_decomp(f).f1
        rm = roots_with_multiplicity(f)
        seen = rm.distinct()
        cands = list(seen) + [r for r in roots_in_ext(f1.derivative(), rm.tower) if r not in seen]
        basis = shift_space(rm).basis
        w = f_V(rm.tower.ext, basis)
        shift_calls.clear()
        res = eigengroup(f)
        assert res.closure.v_basis == basis != ()
        assert shift_calls[: len(cands)] == [(1, w.eval_value(nu)) for nu in cands]
        assert all(lam != 1 or mu in basis for lam, mu in shift_calls[len(cands) :])


FORCED_FIELDS = [GF(5), GF(7), GF(13), GF(3, 2), GF(2, 3)]


def forced_centre_inputs(F, rng, count):
    """count monic f = f1^(p^t) with p not dividing deg f1, in three kinds:
    random f1 (almost always trivial), the torus (x - a)^d, and A11 inputs
    f1 = (x - nu)^i g((x - nu)^n) with n >= 2 prime to p and g(0) != 0;
    t is 0 or 1."""
    p, x = F.p, Poly.x(F)
    out = []
    while len(out) < count:
        kind, t = len(out) % 3, rng.choice([0, 0, 1])
        if kind == 0:
            d1 = rng.choice([d for d in range(2, 7) if d % p])
            f1 = Poly.from_values(F, [rng.randrange(F.q) for _ in range(d1)] + [1])
        elif kind == 1:
            f1 = (x - rng.randrange(F.q)) ** rng.choice([d for d in range(1, 9) if d % p])
        else:
            w = x - rng.randrange(F.q)
            n = rng.choice([k for k in range(2, 6) if k % p])
            g = Poly.from_values(F, [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(rng.randrange(2))] + [1])
            f1 = w ** rng.randrange(3) * g.compose(w**n)
        if f1.degree % p:
            out.append(f1 ** (p**t))
    return out


@pytest.mark.parametrize("F", FORCED_FIELDS, ids=lambda F: f"GF{F.q}")
def test_forced_centre_agrees_with_brute_force_and_the_root_scan(F):
    """With p not dividing d1 = deg f1 the centre is forced: V = 0, and the
    root scan over every root of f1 and of f1' hits at most
    nu = -a_(d1-1)/d1, where the closure's centre and order are read.  The
    descent to K is brute force's group; inputs whose splitting field is
    past the cap are refused, and most are answered."""
    rng = random.Random(2300 + F.q)
    answered = 0
    for f in forced_centre_inputs(F, rng, 45):
        try:
            res = eigengroup(f)
        except DomainError as exc:
            assert "exceeds the configured cap" in str(exc)
            continue
        answered += 1
        assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
        if res.closure.kind == "torus":
            continue
        f1 = exponent_decomp(f).f1
        d1 = f1.degree
        nu = res.tower.level(res.tower.k).lift(F.div(F.neg(f1.c[d1 - 1]), d1 % F.p))
        rm = roots_with_multiplicity(f, res.tower)
        assert shift_space(rm).dim == 0
        hits = centre_hits(rm)
        assert set(hits) <= {nu}
        assert (res.closure.nu, res.closure.n) == ((nu, hits[nu]) if hits else (0, 1))
    assert answered >= 35


def test_forced_centre_refuses_a_tower_that_does_not_split():
    """A caller's tower that misses a factor's splitting field is refused
    with the text roots_with_multiplicity gives, on both paths."""
    F5 = GF(5)
    x = Poly.x(F5)
    short = tower_over(F5, 1)
    for f in [x**2 + 2, (x**2 + 2) ** 5, x**3 * (x**2 + 2), x**5 + x**2 + 1]:
        with pytest.raises(DomainError) as by_roots:
            roots_with_multiplicity(f, short)
        with pytest.raises(DomainError) as by_eigengroup:
            eigengroup(f, short)
        assert str(by_eigengroup.value) == str(by_roots.value) == "input does not split over the provided tower"
        with pytest.raises(DomainError, match="^polynomial is not over the tower base$"):
            eigengroup(f, tower_over(GF(7), 2))
    assert eigengroup(x**2 + 2, tower_over(F5, 4)).tower.M == 4


P_DIVIDES_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(2, 2), GF(2, 3), GF(3, 2)]


def p_divides_inputs(F, rng, count):
    """count monic f = f1^(p^t), t in {0, 1}, with p | deg f1, in four
    kinds: random f1; A11 inputs f1 = (x - nu)^i g((x - nu)^n) with n >= 2
    prime to p and g(0) != 0; and, with V != 0, f1 = G(x^p - a x),
    a = c^(p-1) (V = F_p c), and (f_V - c)^e - s^e for a random V, e = 2
    (e = 3 in characteristic 2, where the square has f1' = 0).
    Returns (kind, nu or None, n, f)."""
    p, x = F.p, Poly.x(F)
    const = lambda v: Poly.from_values(F, (v,))  # noqa: E731
    rand = lambda d: Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])  # noqa: E731
    out = []
    while len(out) < count:
        kind, nu, n = len(out) % 4, None, 1
        if kind == 0:
            f1 = rand(rng.choice([d for d in range(2, 9) if d % p == 0]))
        elif kind == 1:
            nu, n = rng.randrange(F.q), rng.choice([k for k in range(2, 7) if k % p])
            w = x - const(nu)
            g = Poly.from_values(F, [rng.randrange(1, F.q)] + [rng.randrange(F.q) for _ in range(rng.randrange(2))] + [1])
            f1 = w ** rng.randrange(4) * g.compose(w**n)
        elif kind == 2:
            c = rng.randrange(1, F.q)
            f1 = rand(rng.randrange(1, 3)).compose(f_V(F, (c,)))
        else:
            fv = f_V(F, [rng.randrange(1, F.q) for _ in range(rng.randrange(1, min(F.m, 2) + 1))])
            c, s = rng.randrange(F.q), rng.randrange(1, F.q)
            e = 3 if p == 2 else 2
            f1 = (fv - const(c)) ** e - const(F.pow(s, e))
        if f1.degree % p == 0 and not f1.derivative().is_zero():
            out.append((kind, nu, n, f1 ** (p ** rng.choice([0, 0, 1]))))
    return out


@pytest.mark.parametrize("F", P_DIVIDES_FIELDS, ids=lambda F: f"GF{F.q}")
def test_p_dividing_deg_f1_decides_v_over_k_and_keeps_the_centre_in_k(F, monkeypatch):
    """With p | d1 = deg f1, shift_space_is_zero(f1) is the root multiset's
    V = 0, and a V = 0 input splits no root over L != K: split_roots runs
    over K only once the tower has embedded K in L (built beforehand), and the closure with n >= 2 has its centre nu in K (at the
    built nu on A11 inputs).  The descent is brute force's group over K, and
    the closure is brute force's group over L wherever |L| <= 2^10."""
    real_split = poly_mod.split_roots
    fields = []

    def recording(g, k):
        fields.append(g.field)
        return real_split(g, k)

    rng = random.Random(2400 + F.q)
    kinds, past_k, over_l = [0] * 4, 0, 0
    for kind, nu0, n0, f in p_divides_inputs(F, rng, 40):
        f1 = exponent_decomp(f).f1
        zero = shift_space_is_zero(f1)
        assert zero == shift_space_is_zero(f)
        try:
            splitting_tower(f).level(F.m)
            fields.clear()
            monkeypatch.setattr(poly_mod, "split_roots", recording)
            res = eigengroup(f)
        except DomainError as exc:
            assert "exceeds the configured cap" in str(exc)
            continue
        finally:
            monkeypatch.undo()
        kinds[kind] += 1
        tower, desc = res.tower, res.closure
        assert zero == (shift_space(roots_with_multiplicity(f, tower)).dim == 0) == (not desc.v_basis)
        assert not zero or kind < 2  # kinds 2 and 3 are built with V != 0
        assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
        if tower.ext.q <= DEFAULT_BRUTE_CAP:
            over_l += 1
            assert pairs_of(desc.elements()) == eigengroup_bruteforce_in_tower(f, tower, tower.M)
        if not zero:
            continue
        assert all(field is F for field in fields)
        past_k += tower.M > F.m
        if desc.n >= 2:
            assert tower.in_subfield(desc.nu, F.m)
        if kind == 1:
            assert desc.nu == tower.level(tower.k).lift(nu0) and desc.n % n0 == 0
    assert min(kinds) >= 5 and past_k >= 3 and over_l >= 8, (kinds, past_k, over_l)


def test_p_dividing_deg_f1_with_v_zero_refuses_a_tower_that_does_not_split(monkeypatch):
    """On the V = 0 path with p | d1 a caller's tower that misses a factor's
    splitting field is refused with roots_with_multiplicity's text, and
    the root multiset is not built."""
    eg_mod = sys.modules["orecalc.eigengroup"]  # the package re-exports a function by that name
    F3, F5 = GF(3), GF(5)
    short = [(Poly(F5, (1, 0, 1, 0, 0, 1)), 1), (Poly(F3, (2, 1, 1, 1)) ** 3, 1), (Poly(F3, (1, 0, 0, 1, 1, 0, 1)), 2)]
    for f, M in short:
        assert shift_space_is_zero(exponent_decomp(f).f1)
        with pytest.raises(DomainError) as by_roots:
            roots_with_multiplicity(f, tower_over(f.field, M))
        monkeypatch.setattr(eg_mod, "roots_with_multiplicity", None)
        with pytest.raises(DomainError) as by_eigengroup:
            eigengroup(f, tower_over(f.field, M))
        assert eigengroup(f).tower.M > M
        monkeypatch.undo()
        assert str(by_eigengroup.value) == str(by_roots.value) == "input does not split over the provided tower"


@pytest.mark.parametrize("step", ["decompose", "centre", "generators", "eigenform"])
def test_eigengroup_check_errors_name_stage_and_reproducer(step, monkeypatch):
    """A failed check on the closure path is an internal fault at stage
    eigengroup.<step>, on one line that ends with the CLI call repeating
    the query."""
    eg_mod = sys.modules["orecalc.eigengroup"]  # the package re-exports a function by that name
    F3, F5 = GF(3), GF(5)
    if step == "decompose":  # x^3 - x + 1: V = F_3
        f = Poly(F3, (1, 2, 0, 1))
        monkeypatch.setattr(eg_mod, "decompose_through", lambda f1, fv: None)
    elif step == "centre":  # every candidate of x^5 + x^2 + x (V = 0; 0, 2 and 3 in K) made a hit
        f = Poly(F5, (0, 1, 1, 0, 0, 1))
        monkeypatch.setattr(eg_mod, "gcd_p", lambda g: 2)
    elif step == "generators":  # a lambda_n of order 4 for n = 2
        f = Poly(F5, (-2, 1)) ** 2 - 1
        monkeypatch.setattr(eg_mod, "_unity_root", lambda n, field: field.generator)
    else:
        f = Poly(F5, (-2, 1)) ** 4 - 1
        monkeypatch.setattr(eg_mod.Eigenform, "expand", lambda self: Poly.one(self.tower.ext))
    with pytest.raises(InternalCheckError, match=rf"^stage=eigengroup\.{step}: ") as info:
        eigengroup(f)
    monkeypatch.undo()
    assert info.value.stage == f"eigengroup.{step}"
    msg = str(info.value)
    assert "\n" not in msg
    argv = shlex.split(msg.split("reproduce: ", 1)[1])
    assert argv[:2] == ["orecalc", "eigengroup"]
    code, out = run(argv[1:])
    assert code == 0
    assert (code, out) == run(["eigengroup", "--field", repr(f.field), "--f", repr(f)])


def test_expand_skips_the_power_under_a_constant_g(monkeypatch):
    """x^256 + x over GF(2) is f_V(x) for V = GF(256): case A10 with g = 1
    and n = 255, which expand returns as w^i without building w^n."""
    F = GF(2)
    f = Poly(F, [0, 1] + [0] * 254 + [1])
    res = eigengroup(f)
    ef = res.eigenform
    assert (ef.case, ef.i, ef.n, ef.g) == ("A10", 1, 255, Poly.one(res.tower.ext))
    fe = lift_poly(f, res.tower)
    real, exponents = Poly.__pow__, []

    def counting(self, e):
        exponents.append(e)
        return real(self, e)

    monkeypatch.setattr(Poly, "__pow__", counting)
    assert ef.expand() == fe
    assert 255 not in exponents


def test_a_wrong_cyclic_generator_is_refused(monkeypatch):
    """The eigenform round trip does not involve lambda_n; the generator
    check refuses a lambda_n whose substitution is no eigen-substitution."""
    import sys

    eg_mod = sys.modules["orecalc.eigengroup"]  # the package re-exports a function by that name
    f = Poly(GF(5), (-2, 1)) ** 2 - 1  # A11 with n = 2 at nu = 2
    monkeypatch.setattr(eg_mod, "_unity_root", lambda n, field: field.generator)  # order 4
    with pytest.raises(InternalCheckError, match="not an eigen-substitution"):
        eigengroup(f)


def test_eigenform_expand_and_describe():
    F5 = GF(5)
    f = Poly(F5, (-2, 1)) ** 4 - 1
    ef = eigengroup(f).eigenform
    assert ef.expand() == f  # base field is the splitting field here
    d = ef.describe()
    assert set(d) == {"case", "i", "nu", "n", "g", "s", "V_basis"}
    assert d["case"] == "A11" and d["nu"] == 2 and d["g"] == [4, 1]


def test_eigengroup_preconditions():
    F = GF(3)
    with pytest.raises(DomainError):
        eigengroup(Poly(F, (1,)))
    with pytest.raises(DomainError):
        eigengroup(Poly(F, (0, 2)))


# ---------------------------------------------------------------------------
# Descent
# ---------------------------------------------------------------------------


def test_descend_torus_off_level_is_trivial():
    F9 = GF(3, 2)
    t = F9.gen.val
    f = Poly.from_values(F9, (F9.neg(t), 1)) ** 2  # (x - t)^2, t not in F_3
    res = eigengroup(f)
    assert res.descend().kind == "torus"  # K = F_9 contains t
    down = res.descend(level=1)
    assert down.is_trivial()


def test_descend_keeps_shifts_drops_cycle():
    F9 = GF(3, 2)
    t = F9.gen.val
    f = f_V(F9, (0, 1, 2)).compose_affine(1, F9.neg(t))
    res = eigengroup(f)
    down = res.descend(level=1)
    assert down.kind == "finite" and down.n == 1
    assert down.order() == 3
    tower = res.tower
    assert pairs_of(down.elements()) == eigengroup_bruteforce_in_tower(f, tower, 1)


def test_descend_takes_power_of_the_cycle():
    F3 = GF(3)
    f = Poly.from_values(F3, [2] + [0] * 7 + [1])  # x^8 - 1
    res = eigengroup(f)
    assert res.closure.n == 8
    down = res.descend()
    assert down.n == 2 and down.order() == 2
    assert pairs_of(down.elements()) == {(1, 0), (2, 0)}
    assert pairs_of(down.elements()) == pairs_of(eigengroup_bruteforce(f))


def test_descend_moves_the_centre_by_a_shift_from_V():
    F9 = GF(3, 2)
    f = Poly.from_values(F9, (1, 4, 0, 1))  # x^3 + [1,1]*x + 1
    res = eigengroup(f)
    c = res.closure
    assert c.n == 2 and c.v_basis and not res.tower.in_subfield(c.nu, 2)
    # the centre nu of the closure lies outside K; its V-coset meets K
    down = res.descend()
    assert (down.n, down.nu) == (2, 3)
    assert pairs_of(down.elements()) == pairs_of(eigengroup_bruteforce(f))


def test_descend_validation():
    F3 = GF(3)
    res = eigengroup(Poly(F3, (2, 0, 1)))
    base = res.descend()
    with pytest.raises(DomainError):
        eigengroup_descend(base)  # already descended
    with pytest.raises(DomainError):
        res.descend(level=5)  # does not divide the splitting degree


def test_full_kind_normalization():
    F3 = GF(3)
    f = Poly(F3, (0, 2, 0, 1))  # x^3 - x
    desc = eigengroup(f).descend()
    assert desc.kind == "full"
    assert desc.order() == 6
    assert pairs_of(desc.elements()) == {(l, m) for l in (1, 2) for m in (0, 1, 2)}


def test_full_kind_generators():
    """A "full" descriptor (G_f for f = x^q - x) is generated by
    sigma_{lambda_n, 0}, lambda_n the canonical generator of F^x (none when
    q = 2), then the unit shifts sigma_{1, p^i}, i < m."""
    for F in (GF(2), GF(3), GF(7), GF(2, 2), GF(2, 3), GF(2, 4), GF(3, 2)):
        f = Poly.from_values(F, [0, F.neg(1)] + [0] * (F.q - 2) + [1])
        desc = eigengroup(f).descend()
        assert desc.kind == "full"
        want = [(primitive_root_of_unity(F.q - 1, F).val, 0)] if F.q > 2 else []
        want += [(1, F.p**i) for i in range(F.m)]
        assert [g.pair for g in desc.generators()] == want


# ---------------------------------------------------------------------------
# Group descriptor mechanics
# ---------------------------------------------------------------------------


def test_group_elements_examples():
    tower = tower_over(GF(3), 1)
    desc = EigengroupDesc("finite", tower, 1, False, 0, 2, 2, ())
    assert pairs_of(desc.elements()) == {(1, 0), (2, 0)}
    tower2 = tower_over(GF(2), 1)
    desc2 = EigengroupDesc("finite", tower2, 1, False, 0, 1, 1, (1,))
    assert pairs_of(desc2.elements()) == {(1, 0), (1, 1)}
    f = Poly(GF(2), (0, 1, 1))  # x^2 + x = f_V for V = F_2
    assert pairs_of(eigengroup_bruteforce(f)) == pairs_of(desc2.elements())


def test_elements_form_a_group():
    F9 = GF(3, 2)
    t = F9.gen.val
    f = f_V(F9, (0, 1, 2)).compose_affine(1, F9.neg(t))
    desc = eigengroup(f).descend()
    elems = pairs_of(desc.elements())
    for a in desc.elements():
        assert a.inverse().pair in elems
        for b in desc.elements():
            assert (a * b).pair in elems
    assert (1, 0) in elems


def test_infinite_descriptor_rejects_enumeration():
    F5 = GF(5)
    res = eigengroup(Poly(F5, (-2, 1)) ** 3)
    with pytest.raises(DomainError):
        res.closure.elements()


# ---------------------------------------------------------------------------
# Oracle sweeps (small here; the acceptance suite runs the full criterion)
# ---------------------------------------------------------------------------


def assert_canonical_centre(desc):
    """nu is the packed minimum of its V-coset, by enumeration of the coset."""
    if desc.kind == "finite" and desc.n > 1:
        F = desc.level_field
        assert desc.nu == min(F.add(desc.nu, v) for v in desc.v_values())


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_sweep_base_field(p):
    F = GF(p)
    for d in range(1, 5):
        for f in monic_polys(F, d):
            res = eigengroup(f)
            assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
            assert triviality_criterion(f) == res.closure.is_trivial()
            assert_canonical_centre(res.closure)
            assert_canonical_centre(res.descend())


@pytest.mark.parametrize("p", [2, 3])
def test_oracle_sweep_quadratic_extension(p):
    """The descended group at the quadratic level matches brute force there."""
    F = GF(p)
    for d in range(1, 4):
        for f in monic_polys(F, d):
            tower = splitting_tower(f, extra_degrees=(2,))
            res = eigengroup(f, tower)
            down = res.descend(level=2)
            assert pairs_of(down.elements()) == eigengroup_bruteforce_in_tower(f, tower, 2)
            assert triviality_criterion(f, tower) == res.closure.is_trivial()
            assert_canonical_centre(down)


def test_oracle_extension_base_field():
    rng = random.Random(17)
    for F in (GF(2, 2), GF(3, 2)):
        for _ in range(25):
            f = Poly.from_values(
                F, [rng.randrange(F.q) for _ in range(rng.randrange(1, 4))] + [1]
            )
            res = eigengroup(f)
            assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
            assert triviality_criterion(f) == res.closure.is_trivial()


def test_descended_centre_is_the_coset_minimum():
    """The descent reduces nu_k to the minimum of nu_k + V_k in the level
    field, as the closure does: both print [0,0,0,1] here, where the
    fixed points of the non-shifts over GF(16) are {8, 9, 14, 15}."""
    F16 = GF(2, 4)
    f = Poly.from_values(F16, (7, 1, 0, 0, 1))  # x^4 + x + [1,1,1,0]
    res = eigengroup(f)
    down = res.descend()
    assert (res.closure.nu, down.nu, down.n) == (8, 8, 3)
    centres = {fixed_point(a) for a in down.elements() if a.lam != 1}
    assert centres == {8, 9, 14, 15}
    assert_canonical_centre(down)
    code, out = run(["eigengroup", "--field", "GF(16)", "--f", "x^4 + x + [1,1,1,0]"])
    data = json.loads(out)
    assert code == 0 and data["nu"] == data["closure"]["nu"] == [0, 0, 0, 1]


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [2, 3])
def test_finiteness_dichotomy(p):
    """G_f is infinite over the closure iff f is a power of one linear factor."""
    F = GF(p)
    for d in range(1, 5):
        for f in monic_polys(F, d):
            res = eigengroup(f)
            infinite = res.closure.order() is None
            assert infinite == (res.closure.kind == "torus")
            if infinite:
                nu = res.closure.nu
                L = res.tower.ext
                lin = Poly.from_values(L, (L.neg(nu), 1))
                assert lin**d == res.eigenform.expand()


def test_maximality_bound():
    """Finite groups with V != 0 embed in Sh_V x| <sigma_{lam_(p^e-1), *}>."""
    F3, F4, F9 = GF(3), GF(2, 2), GF(3, 2)
    fv3 = Poly(F3, (0, 2, 0, 1))
    cases = [
        (fv3.compose_affine(1, 2)) ** 2,
        fv3 * (fv3**2 + 1),
        f_V(F4, tuple(F4.elements())).compose_affine(1, F4.neg(F4.gen.val)),
        f_V(F9, (0, 1, 2)).compose_affine(1, F9.neg(F9.gen.val)),
    ]
    for f in cases:
        res = eigengroup(f)
        desc = res.closure
        assert desc.v_basis
        L = desc.level_field
        vv = desc.v_values()
        e = multiplier_field(L, vv)
        n_max = L.p**e - 1
        lam = primitive_root_of_unity(n_max, L).val if n_max > 1 else 1
        big = set()
        cur = 1
        for _ in range(max(n_max, 1)):
            base = L.mul(L.sub(1, cur), desc.nu)
            for v in vv:
                big.add((cur, L.add(base, v)))
            cur = L.mul(cur, lam)
        assert pairs_of(desc.elements()) <= big


@pytest.mark.parametrize("p,deg", [(2, 3), (3, 3)])
def test_frobenius_stability(p, deg):
    """G_(f^(p^t)) = G_f for t = 1, 2."""
    F = GF(p)
    for d in range(1, deg + 1):
        for f in monic_polys(F, d):
            base = pairs_of(eigengroup(f).descend().elements())
            assert pairs_of(eigengroup(f**p).descend().elements()) == base
            if d <= 2:
                assert pairs_of(eigengroup(f ** (p * p)).descend().elements()) == base


def test_root_product_identity():
    """f_V(x-nu)^n - f_V(rho)^n factors into the n|V| announced linear terms."""
    cases = [
        (GF(2, 2), None, 3, (2,)),  # V = F_4 inside F_4, n = 3
        (GF(3, 2), (0, 1, 2), 2, (0, 3)),  # V = F_3 inside F_9, n = 2
        (GF(2, 3), None, 7, (5,)),  # V = F_8 inside F_8, n = 7
    ]
    rng = random.Random(4)
    for L, vv, n, nus in cases:
        if vv is None:
            vv = tuple(L.elements())
        fv = f_V(L, vv)
        lam = primitive_root_of_unity(n, L).val
        for nu in nus:
            lhs_poly = fv.compose_affine(1, L.neg(nu)) ** n
            for rho in [rng.randrange(L.q) for _ in range(3)]:
                offset = L.pow(fv.eval_value(rho), n)
                lhs = lhs_poly - Poly.from_values(L, (offset,))
                rhs = Poly.one(L)
                cur = 1
                for _ in range(n):
                    for v in vv:
                        root = L.add(L.add(nu, L.mul(cur, rho)), v)
                        rhs = rhs * Poly.from_values(L, (L.neg(root), 1))
                    cur = L.mul(cur, lam)
                assert lhs == rhs


# ---------------------------------------------------------------------------
# The inverse problem
# ---------------------------------------------------------------------------


def test_inverse_examples():
    F5 = GF(5)
    x = Poly.x(F5)
    assert inverse_eigengroup(SubgroupSpec("trivial", F5)) == x * (x + 1) ** 2
    for F in (GF(2), GF(3), GF(2, 2)):
        f = inverse_eigengroup(SubgroupSpec("full", F))
        assert f == Poly.from_values(F, [0, F.neg(1)] + [0] * (F.q - 2) + [1])
    assert inverse_eigengroup(SubgroupSpec("torus", F5, nu=2)) == Poly(F5, (-2, 1))


def roundtrip(spec):
    f = inverse_eigengroup(spec)
    realized = eigengroup(f).descend()
    assert pairs_of(realized.elements()) == pairs_of(spec.elements()), spec
    return f


def test_inverse_roundtrip_assorted():
    F3, F4, F5 = GF(3), GF(2, 2), GF(5)
    roundtrip(SubgroupSpec("trivial", F3))
    roundtrip(SubgroupSpec("cyclic", F5, n=4, nu=1))
    roundtrip(SubgroupSpec("cyclic", F5, n=2, nu=3))
    roundtrip(SubgroupSpec("shift", F3, v_basis=(1,)))
    roundtrip(SubgroupSpec("shift", F4, v_basis=(1,), variant="b"))
    roundtrip(SubgroupSpec("shift_cyclic", F3, n=2, nu=1, v_basis=(1,)))
    roundtrip(SubgroupSpec("shift_cyclic", F4, n=3, nu=0, v_basis=(1, 2)))
    roundtrip(SubgroupSpec("torus", F4, nu=2))
    roundtrip(SubgroupSpec("full", F5))
    # cyclic with n = 1 degenerates to the trivial witness
    assert inverse_eigengroup(SubgroupSpec("cyclic", F3, n=1)) == inverse_eigengroup(
        SubgroupSpec("trivial", F3)
    )


@pytest.mark.parametrize("p,k,v_dim", [(2, 20, 2), (3, 12, 1)], ids=["GF2_20", "GF3_12"])
def test_solver_is_a_third_route_to_the_eigengroup(p, k, v_dim):
    """G_f(K) over fields far above the brute-force cap, as the pairs that
    solve_affine_matches finds for g = f: against the closed form descended
    to K for a split f with trivial G_f(K), for shift groups Sh_V
    (V = F_p, F_{p^2}, a line off F_p) and for inputs from
    inverse_eigengroup with a cyclic part, and against the prescribed
    subgroup for every input from inverse_eigengroup."""
    F = GF(p, k)
    assert F.q > DEFAULT_BRUTE_CAP
    w = primitive_root_of_unity(p * p - 1, F).val  # F_{p^2} = F_p + F_p w
    rng = random.Random(f"third/{p}/{k}")
    x = Poly.x(F)
    split = x
    for r in rng.sample(range(1, F.q), 3):
        split = split * (x - F.from_value(r))
    shifts = [SubgroupSpec("shift", F, v_basis=vb, variant="b") for vb in ((1,), (1, w), (w,))]
    for f in [split] + [inverse_eigengroup(spec) for spec in shifts]:
        assert solve_affine_matches(f, f) == sorted(pairs_of(eigengroup(f).descend().elements()))
    cyclic = [
        SubgroupSpec("cyclic", F, n=5, nu=rng.randrange(F.q)),
        # V = F_{p^v_dim} with the full cyclic part: p^v_dim (p^v_dim - 1) pairs
        SubgroupSpec("shift_cyclic", F, n=p**v_dim - 1, nu=rng.randrange(F.q), v_basis=(1, w)[:v_dim]),
    ]
    for spec in shifts + cyclic:
        f = inverse_eigengroup(spec)
        want = sorted(pairs_of(spec.elements()))
        assert len(want) > 1 and solve_affine_matches(f, f) == want
        assert sorted(pairs_of(eigengroup(f).descend().elements())) == want


def test_inverse_validation():
    F3, F4 = GF(3), GF(2, 2)
    with pytest.raises(DomainError):
        SubgroupSpec("cyclic", F3, n=5).validate()  # 5 does not divide q - 1
    with pytest.raises(DomainError):
        SubgroupSpec("shift", F3).validate()  # V = 0
    with pytest.raises(DomainError):
        SubgroupSpec("shift", F4, v_basis=(1, 2), variant="b").validate()  # V full
    with pytest.raises(DomainError):
        SubgroupSpec("shift", F4, v_basis=(0, 0)).validate()  # a redundant basis of V = 0
    with pytest.raises(DomainError):
        SubgroupSpec("shift", F4, v_basis=(1, 2, 3), variant="b").validate()  # spans all of F_4
    with pytest.raises(DomainError):
        SubgroupSpec("shift_cyclic", F4, n=2, v_basis=(1,)).validate()
    with pytest.raises(DomainError):
        SubgroupSpec("mystery", F3).validate()


@pytest.mark.parametrize(
    "p,coeffs",
    [
        (3, [0, 0, 0, 1]),  # x^3 = (x)^(3^1): s = 1, torus
        (2, [1, 1, 0, 1]),  # irreducible cubic, trivial group
        (5, [4, 0, 0, 0, 1]),  # x^4 - 1, cyclic of order 4
        (3, [0, 2, 0, 1]),  # x^3 - x, shifts by F_3
        (2, [0, 1, 0, 0, 0, 1, 0, 0, 0, 1]),  # x^9 + x^5 + x: V != 0
    ],
)
def test_eigengroup_lifts_f_at_most_twice(monkeypatch, p, coeffs):
    """f itself (by identity) is lifted to L only by the root multiset and
    the root check inside it, and eigengroup_closed reuses that lift; with
    the centre forced (p not dividing deg f1) it is lifted once."""
    import sys

    from orecalc import poly as poly_mod

    eg_mod = sys.modules["orecalc.eigengroup"]  # the package re-exports a function by that name
    f = Poly(GF(p), coeffs)
    real, calls = poly_mod.lift_poly, []

    def counting(g, tower):
        calls.append(g is f)
        return real(g, tower)

    monkeypatch.setattr(poly_mod, "lift_poly", counting)
    monkeypatch.setattr(eg_mod, "lift_poly", counting)
    res = eigengroup(f)
    assert 1 <= sum(calls) <= 2
    assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
