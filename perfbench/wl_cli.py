"""cli_cold: one fresh `python -m orecalc` process per query, JSON output.

Each round sends thirteen queries with fresh seeded inputs: all nine
subcommands on small fields (simple-module twice, once per family), plus
three on medium fields whose construction dominates the query:
eigengroup over GF(2^12), centre over GF(3^8) and a sampled oracle over
GF(13^3).  Every answer is parsed from the JSON and checked with the
benchmark's own arithmetic.  Polynomials go in as coefficient vectors.
Each query is a process of its own, so no call can see an earlier input.
"""

from __future__ import annotations

import json
import os
import random
import sys

import refarith as R
import wl_modules
from harness import Op

BENCH = os.path.dirname(os.path.abspath(__file__))

SMALL = {"GF3": (3, 1), "GF5": (5, 1), "GF7": (7, 1), "GF13": (13, 1), "GF8": (2, 3), "GF9": (3, 2)}
MEDIUM = {"GF2_12": (2, 12), "GF3_8": (3, 8), "GF13_3": (13, 3)}

# canonical moduli (packed-smallest monic irreducible) are recomputed here
# for the fields whose modulus the answers rely on but never print
_MODULI: dict = {}


def canonical_modulus(p: int, m: int) -> list[int]:
    if (p, m) not in _MODULI:
        v = 0
        while not R.fp_irreducible([(v // p**i) % p for i in range(m)] + [1], p):
            v += 1
        _MODULI[(p, m)] = [(v // p**i) % p for i in range(m)] + [1]
    return _MODULI[(p, m)]


_FIELDS: dict = {}


def field(p: int, m: int) -> R.Field:
    if (p, m) not in _FIELDS:
        _FIELDS[(p, m)] = R.Field(p, m, canonical_modulus(p, m) if m > 1 else None)
    return _FIELDS[(p, m)]


def spec(p: int, m: int) -> str:
    return f"GF({p})" if m == 1 else f"GF({p}^{m})"


def elem(F: R.Field, v: int) -> str:
    return str(v) if F.k == 1 else "[" + ",".join(map(str, F.digits[v])) + "]"


def vec(F: R.Field, f) -> str:
    return "[" + ",".join(elem(F, c) for c in f) + "]"


def dec(F: R.Field, v) -> int:
    """A JSON field element (int, or digit list) as a packed value."""
    return F.pack(v) if isinstance(v, list) else v % F.p


def parse_poly(F: R.Field, text: str) -> list[int]:
    """Read orecalc's printed form of a polynomial in x: terms 'c*x^i' joined by ' + '."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    out: dict[int, int] = {}
    for term in text.split(" + "):
        term = term.strip("()")  # a bare extension-field constant prints as "([...])"
        if "x" in term:
            coef, _, mono = term.rpartition("*")
            coef = coef or "1"
        else:
            coef, mono = term, ""
        deg = 0 if not mono else (int(mono[2:]) if mono.startswith("x^") else 1)
        out[deg] = dec(F, json.loads(coef))
    return R.trim([out.get(i, 0) for i in range(max(out) + 1)]) if text != "0" else []


def parse_ore_terms(F: R.Field, text: str) -> dict[int, list[int]]:
    """y-degree -> coefficient polynomial, from orecalc's printed Ore element."""
    pieces, depth, cur = [], 0, ""
    for part in text.split(" + "):
        cur = part if not cur else cur + " + " + part
        depth = cur.count("(") - cur.count(")")
        if depth == 0:
            pieces.append(cur)
            cur = ""
    out: dict[int, list[int]] = {}
    const = []
    for piece in pieces:
        if "y" not in piece:
            const.append(piece)
            continue
        head, _, ypow = piece.rpartition("y")
        deg = int(ypow[1:]) if ypow.startswith("^") else 1
        head = head.rstrip("*")
        out[deg] = parse_poly(F, head) if head else [1]
    if const:
        out[0] = parse_poly(F, " + ".join(const))
    return out


class Workload:
    def __init__(self, oc, seed: int):
        self.seed = seed

    def setup(self) -> None:
        """Nothing to build in this process: each query is a fresh process."""

    def child_argv(self, args: list[str], traced: bool) -> list[str]:
        if traced:
            return [sys.executable, os.path.join(BENCH, "spans.py")] + args
        return [sys.executable, "-m", "orecalc"] + args

    def round(self, r: int) -> list[Op]:
        rng = random.Random(f"cli_cold/{self.seed}/{r}")
        pick = lambda *names: names[r % len(names)]  # noqa: E731
        return [
            self._eigengroup(rng, pick("GF5", "GF7", "GF9")),
            self._eigenform(rng, pick("GF5", "GF7", "GF13")),
            self._centre(rng, pick("GF5", "GF7", "GF13")),
            self._aut_group(rng, pick("GF7", "GF8", "GF9")),
            self._isomorphic(rng, pick("GF7", "GF8", "GF9"), partner=r % 2 == 0),
            self._off_f(rng, pick(5, 7)),
            self._on_f(rng, pick(5, 7)),
            self._spectrum(rng, pick(3, 5, 7)),
            self._inverse(rng, r),
            self._oracle(rng, pick("GF5", "GF8", "GF9")),
            self._split_eigengroup(rng, "GF2_12"),
            self._centre(rng, "GF3_8"),
            self._split_oracle(rng, "GF13_3"),
        ]

    # -- queries ---------------------------------------------------------------

    def _query(self, kind, args, check) -> Op:
        def parse_then_check(result):
            rc, out, _ = result
            check(json.loads(out))

        return Op(kind, None, parse_then_check, args)

    @staticmethod
    def _fld(name):
        p, m = {**SMALL, **MEDIUM}[name]
        return p, m, field(p, m)

    @staticmethod
    def _random_f(rng, F: R.Field, deg: int) -> list[int]:
        return [rng.randrange(F.q) for _ in range(deg)] + [1]

    def _eigengroup(self, rng, name) -> Op:
        p, m, F = self._fld(name)
        f = self._random_f(rng, F, rng.choice((3, 4)))

        def check(d):
            want = len(R.eigen_pairs(F, f))
            R.require(d["order"] == want, f"eigengroup {name}: order {d['order']} != {want}")

        return self._query(f"eigengroup.{name}", ["eigengroup", "--field", spec(p, m), "--f", vec(F, f)], check)

    def _eigenform(self, rng, name) -> Op:
        p, m, F = self._fld(name)
        # (x - nu) * F(x - nu), F(y) = P(y) P(-y) for an irreducible quadratic P
        P = R.random_irreducible(F, 2, rng)
        inner = R.pmul(F, [0, 1], R.pmonic(F, R.pmul(F, P, [F.mul(c, F.pow(F.neg(1), i)) for i, c in enumerate(P)])))
        f = R.pcompose_affine(F, inner, 1, F.neg(rng.randrange(F.q)))

        def check(d):
            L = field(p, R.lcm_all(R.factor_degrees(F, f)))
            g = [dec(L, c) for c in (d["g"] or [])]
            V = R.span_values(L, [dec(L, v) for v in d["V_basis"]])
            nu = dec(L, d["nu"]) if d["nu"] is not None else 0
            if d["case"] in ("A10", "A11"):
                w = R.linear(L, nu) if d["case"] == "A11" else R.pcompose_affine(L, R.f_V(L, V), 1, L.neg(nu))
                got = R.pmul(L, R.ppow(L, w, d["i"]), R.compose(L, g, R.ppow(L, w, d["n"])))
            elif d["case"] == "B11":
                got = R.ppow(L, R.compose(L, g, R.f_V(L, V)), p ** d["s"])
            elif d["case"] == "single_root":
                got = R.ppow(L, R.linear(L, nu), d["i"])
            else:
                got = f if len(R.eigen_pairs(F, f)) == 1 else None
            R.require(got == f, f"eigenform {name}: case {d['case']} does not expand to f")

        return self._query(f"eigenform.{name}", ["eigenform", "--field", spec(p, m), "--f", vec(F, f)], check)

    def _centre(self, rng, name) -> Op:
        p, m, F = self._fld(name)
        f = self._random_f(rng, F, rng.choice((2, 3)))

        def check(d):
            c = R.c_poly(F, f)
            R.require(parse_poly(F, d["c"]) == c, f"centre {name}: c = {d['c']}")
            R.require(parse_ore_terms(F, d["z1"]) == {0: [0] * p + [1]}, f"centre {name}: z1 = {d['z1']}")
            want = {p: [1]}
            if c:
                want[1] = [F.neg(v) for v in c]
            R.require(parse_ore_terms(F, d["z2"]) == want, f"centre {name}: z2 = {d['z2']}")
            R.require(d["rank"] == p * p, f"centre {name}: rank {d['rank']}")

        return self._query(f"centre.{name}", ["centre", "--field", spec(p, m), "--f", vec(F, f)], check)

    def _aut_group(self, rng, name) -> Op:
        p, m, F = self._fld(name)
        f = self._random_f(rng, F, 3)

        def check(d):
            want = len(R.eigen_pairs(F, f))
            R.require(d["eigen_part"]["order"] == want, f"aut-group {name}: eigen order {d['eigen_part']['order']} != {want}")

        return self._query(f"aut_group.{name}", ["aut-group", "--field", spec(p, m), "--f", vec(F, f)], check)

    def _isomorphic(self, rng, name, partner: bool) -> Op:
        p, m, F = self._fld(name)
        f = self._random_f(rng, F, 3)
        if partner:
            a, b = rng.randrange(1, F.q), rng.randrange(F.q)
            g = R.pscale(F, R.pcompose_affine(F, f, a, b), F.inv(F.pow(a, 3)))
        else:
            g = f
            while len(R.roots_in_field(F, g)) == len(R.roots_in_field(F, f)):
                g = [rng.randrange(F.q) for _ in range(3)] + [1]

        def check(d):
            R.require(d["isomorphic"] is partner, f"isomorphic {name}: {d['isomorphic']}")
            if partner:
                lam, al, be = dec(F, d["lambda"]), dec(F, d["alpha"]), dec(F, d["beta"])
                R.require(R.pscale(F, R.pcompose_affine(F, f, al, be), lam) == g, f"isomorphic {name}: bad witness")

        return self._query(f"isomorphic.{name}", ["isomorphic", "--field", spec(p, m), "--f", vec(F, f), "--g", vec(F, g)], check)

    def _module_f(self, rng, p):
        F = field(p, 1)
        return F, R.pmul(F, R.linear(F, rng.randrange(p)), R.random_irreducible(F, 2, rng))

    def _off_f(self, rng, p) -> Op:
        F, f = self._module_f(rng, p)
        xi = rng.choice([v for v in range(p) if R.peval(F, f, v) != 0])
        rho = rng.randrange(p)

        def check(d):
            X = [[dec(F, v) for v in row] for row in d["X"]]
            Y = [[dec(F, v) for v in row] for row in d["Y"]]
            R.require(d["dim"] == p and len(X) == p, f"simple-module off_f GF({p}): dim {d['dim']}")
            wl_modules.check_off_f(F, f, xi, rho, X, Y)

        args = ["simple-module", "--field", spec(p, 1), "--f", vec(F, f), "--xi", str(xi), "--rho", str(rho)]
        return self._query(f"off_f.GF{p}", args, check)

    def _on_f(self, rng, p) -> Op:
        F, f = self._module_f(rng, p)
        quad = R.pdivmod(F, f, R.linear(F, R.roots_in_field(F, f)[0]))[0]
        E = field(p, 2)
        q = R.random_irreducible(E, 2, rng)

        def check(d):
            X = [[dec(E, v) for v in row] for row in d["X"]]
            Y = [[dec(E, v) for v in row] for row in d["Y"]]
            R.require(d["dim"] == 2, f"simple-module on_f GF({p}): dim {d['dim']}")
            wl_modules.check_on_f(E, f, quad, q, X, Y)

        args = ["simple-module", "--field", spec(p, 1), "--f", vec(F, f), "--pi", vec(F, quad), "--q", vec(E, q)]
        return self._query(f"on_f.GF{p}", args, check)

    def _spectrum(self, rng, p) -> Op:
        F = field(p, 1)
        factors = [(R.linear(F, rng.randrange(p)), rng.choice((1, 2))), (R.random_irreducible(F, 2, rng), 1)]
        f = R.product_of(F, factors)

        def check(d):
            got = sorted((pr["poly"], pr["mult"]) for pr in d["min_primes"])
            R.require(got == sorted(factors), f"spectrum GF({p}): minimal primes {got}")
            wl_modules.check_max_ideals(p, [1, 2], [e["degree"] for e in d["max_off_f"]])

        args = ["spectrum", "--field", spec(p, 1), "--f", vec(F, f), "--degree-bound", "2"]
        return self._query(f"spectrum.GF{p}", args, check)

    def _inverse(self, rng, r) -> Op:
        kind, name = [("cyclic", "GF7"), ("shift", "GF9"), ("shift_cyclic", "GF9"), ("torus", "GF5"),
                      ("cyclic", "GF13"), ("shift", "GF8")][r % 6]
        p, m, F = self._fld(name)
        nu = rng.randrange(F.q)
        n = 1
        basis: list[int] = []
        if kind == "cyclic":
            n = rng.choice([d for d in range(2, F.q) if (F.q - 1) % d == 0])
        if kind in ("shift", "shift_cyclic"):
            basis = [rng.randrange(1, F.q)]
            n = 2 if kind == "shift_cyclic" else 1  # a line V over GF(3) has multiplier field GF(3)
        args = ["inverse-group", "--field", spec(p, m), "--kind", kind, "--nu", elem(F, nu)]
        if kind == "cyclic" or kind == "shift_cyclic":
            args += ["--n", str(n)]
        if basis:
            args += ["--v-basis", ";".join(elem(F, b) for b in basis)]
        lams = [lam for lam in range(1, F.q) if F.pow(lam, n) == 1] if kind != "torus" else list(range(1, F.q))
        shifts = R.span_values(F, basis)
        want = {(lam, F.add(F.mul(F.sub(1, lam), nu), v)) for lam in lams for v in shifts}

        def check(d):
            f = parse_poly(F, d["f"])
            got = R.eigen_pairs(F, f)
            R.require(got == want, f"inverse-group {kind} over {name}: realized group of order {len(got)}, wanted {len(want)}")
            R.require(d["group"]["order"] == len(want), f"inverse-group {kind}: reported order {d['group']['order']}")

        return self._query(f"inverse.{kind}", args, check)

    def _oracle(self, rng, name) -> Op:
        p, m, F = self._fld(name)
        f = self._random_f(rng, F, rng.choice((3, 4)))

        def check(d):
            want = len(R.eigen_pairs(F, f))
            R.require(d["match"] is True and d["order"] == want, f"oracle {name}: {d}")

        args = ["oracle", "--field", spec(p, m), "--f", vec(F, f), "--seed", str(rng.randrange(1 << 16))]
        return self._query(f"oracle.{name}", args, check)

    def _split_f(self, rng, name):
        p, m, F = self._fld(name)
        roots = sorted(rng.sample(range(F.q), 3))
        return F, roots, R.product_of(F, [(R.linear(F, v), 1) for v in roots])

    def _split_eigengroup(self, rng, name) -> Op:
        p, m, _ = self._fld(name)
        F, roots, f = self._split_f(rng, name)

        def check(d):
            want = len(R.eigen_pairs_split(F, f, roots))
            R.require(d["order"] == want, f"eigengroup {name}: order {d['order']} != {want}")

        return self._query(f"eigengroup.{name}", ["eigengroup", "--field", spec(p, m), "--f", vec(F, f)], check)

    def _split_oracle(self, rng, name) -> Op:
        p, m, _ = self._fld(name)
        F, roots, f = self._split_f(rng, name)

        def check(d):
            want = len(R.eigen_pairs_split(F, f, roots))
            R.require(d["match"] is True and d["mode"] == "sampled" and d["order"] == want, f"oracle {name}: {d}")

        args = ["oracle", "--field", spec(p, m), "--f", vec(F, f), "--seed", str(rng.randrange(1 << 16))]
        return self._query(f"oracle.{name}", args, check)
