"""eigen_sweep: eigengroup(f), its descent to K, and the three descriptors.

Inputs are distinct seeded monic f over GF(5), GF(7), GF(13), GF(3^2) and
GF(2^3) of degree 3..7, built from irreducible factors of chosen degrees so
that every cell pins the size of the splitting field L and so the subfields
the root scan runs over.  Cells are stratified by |L| <= 2^10 (A),
<= 2^14 (B) and <= 2^16 (C, the log-table limit); five of the 21 cells
build f with a nontrivial eigengroup over K (a cyclic part, a shift part,
or both).  One round draws one fresh f per cell.
"""

from __future__ import annotations

import random

import refarith as R
from harness import Op, draw_fresh

FIELDS = {"GF5": (5, 1), "GF7": (7, 1), "GF13": (13, 1), "GF9": (3, 2), "GF8": (2, 3)}

# (cell, field, stratum, factor degrees with multiplicity, whether f' has an
# irreducible factor of the top degree j): trivial-group cells.  The root
# scan visits the degree-j subfield once for f and once more when f' has a
# factor of degree j, so each cell fixes that too; two cells take the
# second scan.
PATTERN_CELLS = [
    ("GF5.A.4_1", "GF5", "A", [(4, 1), (1, 1)], False),
    ("GF5.B.5_1", "GF5", "B", [(5, 1), (1, 1)], False),
    ("GF5.B.3_2x2", "GF5", "B", [(3, 1), (2, 2)], False),
    ("GF7.A.3_1_1", "GF7", "A", [(3, 1), (1, 1), (1, 1)], False),
    ("GF7.B.4_1_1", "GF7", "B", [(4, 1), (1, 1), (1, 1)], False),
    ("GF7.C.5_1", "GF7", "C", [(5, 1), (1, 1)], False),
    ("GF13.A.2_1_1", "GF13", "A", [(2, 1), (1, 1), (1, 1)], False),
    ("GF13.B.3_1x2", "GF13", "B", [(3, 1), (1, 2)], False),
    ("GF13.C.4_1", "GF13", "C", [(4, 1), (1, 1)], False),
    ("GF9.A.3_1", "GF9", "A", [(3, 1), (1, 1)], False),
    ("GF9.B.4_1", "GF9", "B", [(4, 1), (1, 1)], False),
    ("GF8.A.3_1_1", "GF8", "A", [(3, 1), (1, 1), (1, 1)], False),
    ("GF8.B.4_1", "GF8", "B", [(4, 1), (1, 1)], False),
    ("GF8.C.5_1", "GF8", "C", [(5, 1), (1, 1)], False),
    ("GF7.B.4_1_1.fprime4", "GF7", "B", [(4, 1), (1, 1), (1, 1)], True),
    ("GF13.B.3_1x2.fprime3", "GF13", "B", [(3, 1), (1, 2)], True),
]
# (cell, field, stratum, possible absolute degrees of L): nontrivial-group cells
SHAPED_CELLS = [
    ("GF5.A.cyclic2", "GF5", "A", [3]),
    ("GF7.A.cyclic3", "GF7", "A", [2]),
    ("GF13.B.cyclic2", "GF13", "B", [3]),
    ("GF9.A.shift_cyclic2", "GF9", "A", [2, 6]),
    ("GF8.A.shift", "GF8", "A", [3, 6]),
]


def _scaled_orbit_product(F: R.Field, P, n: int, zeta: int):
    """prod_{j<n} P(zeta^j y), made monic: a polynomial in y^n."""
    out = [1]
    for j in range(n):
        z = F.pow(zeta, j)
        out = R.pmul(F, out, [F.mul(c, F.pow(z, i)) for i, c in enumerate(P)])
    return R.pmonic(F, out)


def _unity_root(F: R.Field, n: int) -> int:
    return F.exp[(F.q - 1) // n]


class Workload:
    def __init__(self, oc, seed: int):
        self.oc = oc
        self.seed = seed
        self.ref = {}
        self.lib = {}
        self.seen: set = set()

    def setup(self) -> None:
        oc = self.oc
        for name, (p, k) in FIELDS.items():
            K = oc.GF(p, k)
            self.lib[name] = K
            self.ref[name] = R.Field(p, k, K.modulus)
        for _, fname, _, pattern, _ in PATTERN_CELLS:
            k = FIELDS[fname][1]
            oc.tower_over(self.lib[fname], k * R.lcm_all(e for e, _ in pattern))
        for _, fname, _, degs in SHAPED_CELLS:
            for M in degs:
                oc.tower_over(self.lib[fname], M)

    # -- input builders (reference arithmetic only) ---------------------------

    def _pattern_f(self, F, pattern, top_in_fprime, rng):
        j = R.lcm_all(e for e, _ in pattern)
        while True:
            fs = [R.random_irreducible(F, e, rng) for e, _ in pattern]
            if len({tuple(g) for g in fs}) < len(fs):
                continue
            f = R.product_of(F, [(g, m) for g, (_, m) in zip(fs, pattern)])
            if R.has_factor_of_degree(F, R.pderiv(F, f), j) == top_in_fprime:
                return f

    def _shaped_f(self, cell, F, rng):
        if cell in ("GF5.A.cyclic2", "GF7.A.cyclic3", "GF13.B.cyclic2"):
            # (x-nu)^i * F(x-nu) with F(y) = prod_j P(zeta^j y), a polynomial in y^n
            n, e, i = {"GF5.A.cyclic2": (2, 3, 1), "GF7.A.cyclic3": (3, 2, 1), "GF13.B.cyclic2": (2, 3, 0)}[cell]
            P = R.random_irreducible(F, e, rng)
            inner = R.pmul(F, R.ppow(F, [0, 1], i), _scaled_orbit_product(F, P, n, _unity_root(F, n)))
            return R.pcompose_affine(F, inner, 1, F.neg(rng.randrange(F.q)))
        if cell == "GF9.A.shift_cyclic2":
            # (f_V(x) - c)^2 - s^2 for a line V over GF(3): shifts by V, and a
            # cyclic part of order 2 when c lies in the image of f_V
            fv = R.f_V(F, R.span_values(F, [rng.randrange(1, F.q)]))
            w = R.psub(F, fv, [rng.randrange(F.q)])
            s = rng.randrange(1, F.q)
            return R.psub(F, R.pmul(F, w, w), [F.mul(s, s)])
        if cell == "GF8.A.shift":
            # G(f_V(x)) for a line V over GF(2) and G with three distinct roots in K
            fv = R.f_V(F, R.span_values(F, [rng.randrange(1, F.q)]))
            G = R.product_of(F, [(R.linear(F, r), 1) for r in rng.sample(range(F.q), 3)])
            return R.compose(F, G, fv)
        raise ValueError(cell)


    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"eigen_sweep/{self.seed}/{r}")
        ops = []
        for cell, fname, _, pattern, top_in_fprime in PATTERN_CELLS:
            F = self.ref[fname]
            f = draw_fresh(self.seen, fname, lambda: self._pattern_f(F, pattern, top_in_fprime, rng))
            ops.append(self._op(cell, fname, f))
        for cell, fname, _, _ in SHAPED_CELLS:
            F = self.ref[fname]
            f = draw_fresh(self.seen, fname, lambda: self._shaped_f(cell, F, rng))
            ops.append(self._op(cell, fname, f))
        return ops

    def _op(self, cell, fname, f) -> Op:
        oc, K, F = self.oc, self.lib[fname], self.ref[fname]
        poly = oc.Poly.from_values(K, f)

        def run():
            res = oc.eigengroup(poly)
            base = res.descend()
            return base, (res.closure.describe(), base.describe(), res.eigenform.describe())

        def check(out):
            base, (closure_d, base_d, form_d) = out
            want = R.eigen_pairs(F, f)
            got = {a.pair for a in base.elements()}
            R.require(got == want, f"{cell}: descended group {sorted(got)} != enumeration {sorted(want)}")
            R.require(base_d["order"] == len(want), f"{cell}: described order {base_d['order']} != {len(want)}")
            R.require(isinstance(closure_d.get("kind"), str) and isinstance(form_d.get("case"), str),
                      f"{cell}: descriptors incomplete")

        return Op(cell, run, check)
