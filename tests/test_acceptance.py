"""Acceptance gate: the eight binding checks, one test (and one report line) each.

Every check is exact; there are no tolerances anywhere.  The two timed
criteria assert their wall-clock budgets (60s for the oracle sweep, 10s for
the cubic classification).
"""

import random
import subprocess
import sys
import time

import pytest

from orecalc.eigengroup import (
    SubgroupSpec,
    eigengroup,
    eigengroup_bruteforce,
    inverse_eigengroup,
)
from orecalc.gf import GF, tower_over
from orecalc.lambda_aut import are_isomorphic
from orecalc.modules_spectra import (
    all_basis_vectors_cyclic,
    factor_into_irreducibles,
    mat_poly,
    simple_module_off_f,
    simple_module_on_f,
    word_span_dim,
)
from orecalc.ore import OreAlgebra, delta_power
from orecalc.poly import Poly, f_V, is_irreducible, lift_poly

from oracles import (
    generator_laws_hold,
    is_scalar_mat,
    mat_pow,
    mat_sub,
    monic_polys,
    triviality_criterion,
)


def report(n, name, t0):
    print(f"ACCEPTANCE {n} {name}: PASS ({time.monotonic() - t0:.2f}s)")


def pairs_of(auts):
    return {a.pair for a in auts}


def structured_pairs(f):
    return pairs_of(eigengroup(f).descend().elements())


def rand_monic(F, d, rng):
    return Poly.from_values(F, [rng.randrange(F.q) for _ in range(d)] + [1])


def test_acceptance_1_oracle_sweep():
    """Closed-form eigengroups match brute force on every tested polynomial,
    and the trivial ones are those the triviality criterion names."""
    t0 = time.monotonic()
    for p in (2, 3):
        F = GF(p)
        for d in range(1, 6):
            for f in monic_polys(F, d):
                res = eigengroup(f)
                assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
                assert generator_laws_hold(res)
                assert triviality_criterion(f) == res.closure.is_trivial()
    rng = random.Random(101)
    for F in (GF(5), GF(2, 2)):
        for _ in range(50):
            f = rand_monic(F, rng.randrange(1, 5), rng)
            res = eigengroup(f)
            assert pairs_of(res.descend().elements()) == pairs_of(eigengroup_bruteforce(f))
            assert generator_laws_hold(res)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"oracle sweep exceeded its budget: {elapsed:.1f}s"
    report(1, "oracle sweep", t0)


def _subgroup_specs(F):
    q = F.q
    specs = [
        SubgroupSpec("trivial", F),
        SubgroupSpec("torus", F, nu=0),
        SubgroupSpec("torus", F, nu=q - 1),
        SubgroupSpec("full", F),
    ]
    for n in range(2, q):
        if (q - 1) % n == 0:
            specs.append(SubgroupSpec("cyclic", F, n=n, nu=0))
            specs.append(SubgroupSpec("cyclic", F, n=n, nu=1))
    bases = {
        (3, 1): [(1,)],
        (2, 2): [(1,), (1, 2)],
        (5, 1): [(1,)],
        (2, 3): [(1,), (1, 2), (1, 2, 4)],
    }[(F.p, F.m)]
    for basis in bases:
        specs.append(SubgroupSpec("shift", F, v_basis=basis, variant="a"))
        if len(basis) < F.m:
            specs.append(SubgroupSpec("shift", F, v_basis=basis, variant="b"))
    whole = bases[-1]
    for n in range(2, q):
        if (q - 1) % n == 0:
            for nu in (0, 1):
                specs.append(SubgroupSpec("shift_cyclic", F, n=n, nu=nu, v_basis=whole))
    return specs


def test_acceptance_2_inverse_roundtrip():
    """Every realizable subgroup shape is realized exactly by its witness."""
    t0 = time.monotonic()
    count = 0
    for F in (GF(3), GF(2, 2), GF(5), GF(2, 3)):
        for spec in _subgroup_specs(F):
            spec.validate()
            f = inverse_eigengroup(spec)
            res = eigengroup(f)
            assert generator_laws_hold(res)
            realized = res.descend()
            # the spec and the descent share one pair enumerator; brute
            # force over K is the independent reference for both
            assert pairs_of(spec.elements()) == pairs_of(eigengroup_bruteforce(f))
            assert pairs_of(realized.elements()) == pairs_of(spec.elements()), (
                F.p,
                F.m,
                spec.kind,
                spec.n,
                spec.nu,
                spec.v_basis,
                spec.variant,
            )
            count += 1
    assert count >= 40
    report(2, f"inverse round-trip ({count} subgroups)", t0)


def test_acceptance_3_centre():
    """z1, z2 are central and delta^p(x) = (delta^(p-2) f)' f, independently."""
    t0 = time.monotonic()
    for p in (2, 3, 5):
        K = GF(p)
        for d in range(1, 4):
            for f in monic_polys(K, d):
                A = OreAlgebra(f)
                gens = A.centre_generators()
                z1 = A.element(gens.z1)
                z2 = gens.z2
                for w in (A.x, A.y):
                    assert (z2 * w - w * z2).is_zero()
                    assert (z1 * w - w * z1).is_zero()
                lhs = delta_power(f, Poly.x(K), p)
                rhs = delta_power(f, f, p - 2).derivative() * f
                assert lhs == rhs
                assert gens.c == delta_power(f, f, p - 2).derivative()
    report(3, "centre generators", t0)


def _eigenform_cases():
    for p in (2, 3):
        F = GF(p)
        for d in range(1, 5):
            yield from monic_polys(F, d)
    F3, F4, F9 = GF(3), GF(2, 2), GF(3, 2)
    fv3 = Poly(F3, (0, 2, 0, 1))
    yield (fv3.compose_affine(1, 2)) ** 2
    yield ((fv3.compose_affine(1, 2)) ** 2) ** 3
    yield fv3 * (fv3**4 + 1)
    yield fv3**2 * (fv3**4 + 1)
    yield f_V(F9, (0, 1, 2)).compose_affine(1, F9.neg(3))
    yield f_V(F4, (0, 1, 2, 3)).compose_affine(1, F4.neg(F4.gen.val))
    rng = random.Random(55)
    for F in (GF(5), GF(2, 2)):
        for _ in range(10):
            yield rand_monic(F, rng.randrange(1, 5), rng)


def test_acceptance_4_eigenform():
    """The eigenform reproduces f bit for bit and obeys the eigenvalue law."""
    t0 = time.monotonic()
    for f in _eigenform_cases():
        res = eigengroup(f)
        ef = res.eigenform
        L = res.tower.ext
        fe = lift_poly(f, res.tower)
        assert ef.expand() == fe
        desc = res.closure
        d = f.degree
        group = desc.generators() if desc.order() is None else desc.elements()
        for a in group:
            assert a.apply(fe) == fe.scale_value(L.pow(a.lam, d))
        if desc.kind == "finite" and desc.n > 1:
            lam = desc.lambda_n
            mu = L.mul(L.sub(1, lam), desc.nu)
            from orecalc.eigengroup import AffineAut

            gen = AffineAut(L, lam, mu)
            assert gen.apply(fe) == fe.scale_value(L.pow(lam, ef.i))
    report(4, "eigenform round-trip", t0)


def test_acceptance_5_isomorphism_partition():
    """Lambda(f) ~ Lambda(g) classifies monic cubics over F_3 into the
    affine-scaling orbits, with verified witnesses."""
    t0 = time.monotonic()
    F = GF(3)
    cubics = list(monic_polys(F, 3))
    orbits = {}
    for f in cubics:
        orb = set()
        for alpha in F.units():
            s = F.inv(F.pow(alpha, 3))
            for beta in F.elements():
                orb.add(f.compose_affine(alpha, beta).scale_value(s))
        orbits[f] = orb
    classes = set()
    for f in cubics:
        cls = set()
        for g in cubics:
            res = are_isomorphic(f, g)
            assert res.isomorphic == (g in orbits[f])
            if res.isomorphic:
                res.hom.verify()
                back = f.compose_affine(res.alpha, res.beta).scale_value(
                    F.inv(F.pow(res.alpha, 3))
                )
                assert back == g
                cls.add(g)
        assert cls == orbits[f]  # closed under substitution and scaling
        classes.add(frozenset(cls))
    assert sum(len(c) for c in classes) == len(cubics)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"cubic classification exceeded its budget: {elapsed:.1f}s"
    report(5, f"isomorphism classes ({len(classes)} orbits)", t0)


def test_acceptance_6_simple_modules():
    """Sampled simple modules satisfy the relation, dimension, centre, and
    Burnside checks, off and on the locus f = 0."""
    t0 = time.monotonic()
    rng = random.Random(606)
    built_off = 0
    for F in (GF(2, 2), GF(3, 2)):
        p = F.p
        while built_off < (10 if F.p == 2 else 20):
            f = rand_monic(F, rng.randrange(1, 4), rng)
            xi = F.from_value(rng.randrange(F.q))
            rho = F.from_value(rng.randrange(F.q))
            if f.eval_value(F.pth_root(xi.val)) == 0:
                continue
            spec = simple_module_off_f(f, xi, rho)
            built_off += 1
            assert spec.dim == p
            lhs = mat_sub(F, F.mat_mul(spec.Y, spec.X), F.mat_mul(spec.X, spec.Y))
            assert lhs == mat_poly(F, f, spec.X)
            assert is_scalar_mat(F, mat_pow(F, spec.X, p), xi.val)
            c = OreAlgebra(f).c_poly
            z2 = mat_sub(
                F, mat_pow(F, spec.Y, p), F.mat_mul(mat_poly(F, c, spec.X), spec.Y)
            )
            assert is_scalar_mat(F, z2, rho.val)
            assert spec.central_character() == (xi.val, rho.val)
            assert word_span_dim(F, spec.X, spec.Y) == p * p
            assert all_basis_vectors_cyclic(F, spec.X, spec.Y)
    assert built_off == 20

    built_on = 0
    while built_on < 20:
        K = (GF(2, 2), GF(3, 2))[built_on % 2]
        f = rand_monic(K, rng.randrange(1, 4), rng)
        factors = factor_into_irreducibles(f)
        p_i = rng.choice(factors)[0]
        e = p_i.degree
        Fi = K if e == 1 else tower_over(K, K.m * e).ext
        dq = rng.randrange(1, 3)
        q = next(g for g in monic_polys(Fi, dq) if is_irreducible(g))
        spec = simple_module_on_f(f, p_i, q)
        built_on += 1
        assert spec.dim == q.degree
        fe = f if e == 1 else lift_poly(f, tower_over(K, K.m * e))
        lhs = mat_sub(Fi, Fi.mat_mul(spec.Y, spec.X), Fi.mat_mul(spec.X, spec.Y))
        assert lhs == mat_poly(Fi, fe, spec.X)
        xbar = spec.X[0][0]
        assert is_scalar_mat(Fi, spec.X, xbar)
        assert is_scalar_mat(Fi, mat_pow(Fi, spec.X, Fi.p), Fi.pow(xbar, Fi.p))
        assert spec.central_character() is None
        assert word_span_dim(Fi, spec.X, spec.Y) == q.degree
        assert all_basis_vectors_cyclic(Fi, spec.X, spec.Y)
    report(6, "simple modules (20 off + 20 on)", t0)


def test_acceptance_7_frobenius_invariance():
    """G_(f^p) = G_f for every monic f of degree at most 4 over F_2 and F_3."""
    t0 = time.monotonic()
    for p in (2, 3):
        F = GF(p)
        for d in range(1, 5):
            for f in monic_polys(F, d):
                assert structured_pairs(f**p) == structured_pairs(f)
    report(7, "Frobenius invariance", t0)


def test_acceptance_8_determinism():
    """Repeated CLI invocations with a fixed seed are byte-identical."""
    t0 = time.monotonic()
    commands = [
        ["oracle", "--field", "GF(9)", "--f", "x^2 + [0,1]*x", "--cap", "4", "--seed", "11"],
        ["oracle", "--field", "GF(3)", "--f", "x^3 + 2*x", "--seed", "11"],
        ["eigengroup", "--field", "GF(5)", "--f", "x*(x+1)^2"],
        ["spectrum", "--field", "GF(3)", "--f", "x^2*(x+1)", "--format", "text"],
    ]
    for args in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "orecalc", *args],
                capture_output=True,
                timeout=120,
            )
            for _ in range(2)
        ]
        assert runs[0].returncode == 0, runs[0].stderr
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stderr == runs[1].stderr
    report(8, "CLI determinism", t0)
