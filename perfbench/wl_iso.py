"""iso_classify: are_isomorphic against a partner and a non-partner, and aut_group.

Each round draws, over each of GF(5^3), GF(13^2), GF(2^8) and GF(3^5), a
fresh cubic f with three distinct roots in K (so aut_group needs no tower
past K) and three operations:
  * are_isomorphic(f, g) with g = alpha^-3 f(alpha x + beta).  The scan in
    are_isomorphic stops at the first witness in (alpha, beta) order, so its
    cost is the witness's position; alpha is drawn from the middle 4% of
    the units (beta uniform), which keeps a round's cost, and the op that
    the median falls on, the same from seed to seed;
  * are_isomorphic(f, h) with h a cubic whose number of roots in K (an
    invariant of affine substitution) differs from f's: one root or none,
    alternating by round.  This scans all q(q-1) pairs;
  * aut_group(f).
GF(3^5) is the case p | deg f; the other three fields have p not dividing 3.
"""

from __future__ import annotations

import random

import refarith as R
from harness import Op, draw_fresh

FIELDS = {"GF5_3": (5, 3), "GF13_2": (13, 2), "GF2_8": (2, 8), "GF3_5": (3, 5)}


class Workload:
    def __init__(self, oc, seed: int):
        self.oc = oc
        self.seed = seed
        self.ref = {}
        self.lib = {}
        self.seen: set = set()

    def setup(self) -> None:
        for name, (p, k) in FIELDS.items():
            K = self.oc.GF(p, k)
            self.lib[name] = K
            self.ref[name] = R.Field(p, k, K.modulus)
            self.oc.tower_over(K, k)


    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"iso_classify/{self.seed}/{r}")
        ops = []
        for fname in FIELDS:
            F = self.ref[fname]
            f = draw_fresh(self.seen, fname, lambda: R.product_of(F, [(R.linear(F, v), 1) for v in rng.sample(range(F.q), 3)]))
            roots = R.roots_in_field(F, f)
            alpha = 1 + int(rng.uniform(0.48, 0.52) * (F.q - 1))
            beta = rng.randrange(F.q)
            partner = draw_fresh(self.seen, fname, lambda: R.pscale(F, R.pcompose_affine(F, f, alpha, beta), F.inv(F.pow(alpha, 3))))
            if r % 2:
                other = draw_fresh(self.seen, fname, lambda: R.random_irreducible(F, 3, rng))
            else:
                other = draw_fresh(self.seen, fname, lambda: R.pmul(F, R.linear(F, rng.randrange(F.q)), R.random_irreducible(F, 2, rng)))
            ops += [self._iso_op(fname, f, partner, True), self._iso_op(fname, f, other, False),
                    self._aut_op(fname, f, roots)]
        return ops

    def _iso_op(self, fname, f, g, expect: bool) -> Op:
        oc, K, F = self.oc, self.lib[fname], self.ref[fname]
        pf, pg = oc.Poly.from_values(K, f), oc.Poly.from_values(K, g)
        kind = f"{fname}.{'partner' if expect else 'non_partner'}"

        def check(res):
            R.require(res.isomorphic is expect, f"{kind}: isomorphic = {res.isomorphic}")
            if expect:
                a, b = res.alpha, res.beta
                want = R.pscale(F, R.pcompose_affine(F, f, a, b), F.inv(F.pow(a, 3)))
                R.require(want == g, f"{kind}: witness ({a}, {b}) does not carry f to g")
            else:
                R.require(len(R.roots_in_field(F, f)) != len(R.roots_in_field(F, g)),
                          f"{kind}: inputs share the root count")

        return Op(kind, lambda: oc.are_isomorphic(pf, pg), check)

    def _aut_op(self, fname, f, roots) -> Op:
        oc, K, F = self.oc, self.lib[fname], self.ref[fname]
        pf = oc.Poly.from_values(K, f)

        def check(desc):
            want = len(R.eigen_pairs_split(F, f, roots))
            R.require(desc.eigen_order() == want, f"{fname}.aut_group: eigen order {desc.eigen_order()} != {want}")

        return Op(f"{fname}.aut_group", lambda: oc.aut_group(pf), check)
