"""simple_modules: both simple-module families, spectrum(f, 2) and the centre.

Each round draws, over each of GF(5), GF(7), GF(11) and GF(13), a fresh f
built as a product of known irreducibles with multiplicities,
f = p1^2 * p2 * p3 (p1, p2 linear, p3 quadratic; degree 5).  Every round has
the same make-up, so a run's median does not depend on how many rounds it
completes.  Each f gets these operations:
  * simple_module_off_f at a seeded (xi, rho) with f(xi^(1/p)) != 0;
  * simple_module_on_f for each factor p_i, with a seeded irreducible
    quadratic q over the residue field K[x]/(p_i);
  * spectrum(f, 2);
  * OreAlgebra(f).centre_generators().
No extension field carries the heavy work here: the word spans of the
off-f modules run on prime-field arithmetic and dominate the round.
"""

from __future__ import annotations

import random

import refarith as R
from harness import Op, draw_fresh

PRIMES = (5, 7, 11, 13)
PATTERN = [(1, 2), (1, 1), (2, 1)]  # (degree, multiplicity) of the factors


class Workload:
    def __init__(self, oc, seed: int):
        self.oc = oc
        self.seed = seed
        self.lib: dict = {}  # (p, e) -> orecalc field of degree e over GF(p)
        self.ref: dict = {}
        self.seen: set = set()

    def setup(self) -> None:
        for p in PRIMES:
            K = self.oc.GF(p)
            for e in (1, 2):
                E = K if e == 1 else self.oc.tower_over(K, e).ext
                self.lib[(p, e)] = E
                self.ref[(p, e)] = R.Field(p, e, E.modulus)

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"simple_modules/{self.seed}/{r}")
        ops = []
        for p in PRIMES:
            F = self.ref[(p, 1)]
            factors: list = []

            def make():
                while True:
                    factors[:] = [(R.random_irreducible(F, e, rng), m) for e, m in PATTERN]
                    if len({tuple(g) for g, _ in factors}) == len(factors):
                        return R.product_of(F, factors)

            f = draw_fresh(self.seen, p, make)
            xi = rng.choice([v for v in range(p) if R.peval(F, f, v) != 0])
            ops.append(self._off_op(p, f, xi, rng.randrange(p)))
            for g, _ in factors:
                E = self.ref[(p, len(g) - 1)]
                ops.append(self._on_op(p, f, g, R.random_irreducible(E, 2, rng)))
            ops.append(self._spectrum_op(p, f, factors))
            ops.append(self._centre_op(p, f))
        return ops

    def _off_op(self, p, f, xi, rho) -> Op:
        oc, K, F = self.oc, self.lib[(p, 1)], self.ref[(p, 1)]
        pf = oc.Poly.from_values(K, f)

        def check(spec):
            X, Y = R.as_lists(spec.X), R.as_lists(spec.Y)
            R.require(spec.dim == p and len(X) == p and len(Y) == p, f"off_f GF({p}): dimension {spec.dim}")
            check_off_f(F, f, xi, rho, X, Y)

        return Op(f"GF{p}.off_f", lambda: oc.simple_module_off_f(pf, xi, rho), check)

    def _on_op(self, p, f, g, q) -> Op:
        oc, K = self.oc, self.lib[(p, 1)]
        e = len(g) - 1
        E, FE = self.lib[(p, e)], self.ref[(p, e)]
        pf, pg, pq = oc.Poly.from_values(K, f), oc.Poly.from_values(K, g), oc.Poly.from_values(E, q)

        def check(spec):
            R.require(spec.field.q == p**e and spec.dim == len(q) - 1,
                      f"on_f GF({p}), deg p_i {e}: K-dimension {spec.dim} * [F_i:K] != {e * (len(q) - 1)}")
            check_on_f(FE, f, g, q, R.as_lists(spec.X), R.as_lists(spec.Y))

        return Op(f"GF{p}.on_f.deg{e}", lambda: oc.simple_module_on_f(pf, pg, pq), check)

    def _spectrum_op(self, p, f, factors) -> Op:
        oc, K = self.oc, self.lib[(p, 1)]
        pf = oc.Poly.from_values(K, f)

        def check(desc):
            got = sorted((list(pi.c), n) for pi, n in desc.min_primes)
            R.require(got == sorted((g, m) for g, m in factors), f"spectrum GF({p}): minimal primes {got}")
            check_max_ideals(p, [len(g) - 1 for g, _ in factors], [j for j, _, _ in desc.max_off_f])

        return Op(f"GF{p}.spectrum", lambda: oc.spectrum(pf, 2), check)

    def _centre_op(self, p, f) -> Op:
        oc, K, F = self.oc, self.lib[(p, 1)], self.ref[(p, 1)]
        pf = oc.Poly.from_values(K, f)

        def check(gens):
            c = R.c_poly(F, f)
            R.require(list(gens.c.c) == c, f"centre GF({p}): c = {list(gens.c.c)}, expected {c}")
            R.require([list(t.c) for t in gens.z1.terms] == [[0] * p + [1]], f"centre GF({p}): z1 is not x^p")
            z2 = [[] for _ in range(p + 1)]
            z2[1], z2[p] = [F.neg(v) for v in c], [1]
            R.require([list(t.c) for t in gens.z2.terms] == z2, f"centre GF({p}): z2 is not y^p - c y")

        return Op(f"GF{p}.centre", lambda: oc.OreAlgebra(pf).centre_generators(), check)


def check_off_f(F: R.Field, f, xi, rho, X, Y) -> None:
    """dim p, YX - XY = f(X), X^p = xi I, Y^p - c(X) Y = rho I, c = (delta^(p-2) f)'."""
    p = F.p
    R.require(R.mat_sub(F, R.mat_mul(F, Y, X), R.mat_mul(F, X, Y)) == R.mat_poly(F, f, X), "off_f: YX - XY != f(X)")
    R.require(R.mat_pow(F, X, p) == R.mat_scalar(F, p, xi), "off_f: X^p != xi I")
    cX = R.mat_poly(F, R.c_poly(F, f), X)
    z2 = R.mat_sub(F, R.mat_pow(F, Y, p), R.mat_mul(F, cX, Y))
    R.require(z2 == R.mat_scalar(F, p, rho), "off_f: Y^p - c(X) Y != rho I")


def check_on_f(E: R.Field, f, g, q, X, Y) -> None:
    """YX - XY = f(X), p_i(X) = 0 and q(Y) = 0 over the residue field E."""
    d = len(q) - 1
    R.require(len(X) == d and len(Y) == d, "on_f: matrix size is not deg q")
    R.require(R.mat_sub(E, R.mat_mul(E, Y, X), R.mat_mul(E, X, Y)) == R.mat_poly(E, f, X), "on_f: YX - XY != f(X)")
    R.require(R.mat_poly(E, g, X) == R.mat_scalar(E, d, 0), "on_f: p_i(X) != 0")
    R.require(R.mat_poly(E, q, Y) == R.mat_scalar(E, d, 0), "on_f: q(Y) != 0")


def check_max_ideals(q: int, factor_degrees: list[int], degrees: list[int]) -> None:
    want = R.max_ideal_counts(q, factor_degrees, 2)
    got = {j: degrees.count(j) for j in want}
    R.require(got == want and len(degrees) == sum(want.values()),
              f"spectrum: maximal ideals per residue degree {got}, Mobius count {want}")
