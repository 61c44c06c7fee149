"""The layer probe of the traced run, and the per-layer metrics.

layer_metrics() runs, after the traced workload pass:
  * nine in-process CLI queries on tiny inputs, traced like the workload, so
    every layer has spans in every traced run (a layer the workload itself
    never reaches reads the small cost of these queries, not zero);
  * gf and poly microbenchmarks in a fresh untraced process
    (`python3 probe.py micro`);
  * cold field construction in fresh processes (`python3 probe.py build p m`);
  * fresh processes that import orecalc, and that do nothing.
It then turns the tracer's spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys

import harness as H

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")

PROBE_QUERIES = [
    ["eigengroup", "--field", "GF(5)", "--f", "(x-2)^4 - 1"],
    ["eigenform", "--field", "GF(3)", "--f", "x^3 - x + 1"],
    ["centre", "--field", "GF(5)", "--f", "x^2 + x"],
    ["aut-group", "--field", "GF(3)", "--f", "x^3 - x"],
    ["isomorphic", "--field", "GF(5)", "--f", "x^2", "--g", "x^2 + 2*x + 1"],
    ["simple-module", "--field", "GF(3)", "--f", "x^2", "--xi", "1", "--rho", "2"],
    ["spectrum", "--field", "GF(3)", "--f", "x^2*(x+1)", "--degree-bound", "2"],
    ["inverse-group", "--field", "GF(4)", "--kind", "shift_cyclic", "--n", "3", "--v-basis", "1;[0,1]"],
    ["oracle", "--field", "GF(9)", "--f", "x^2 + [0,1]*x", "--cap", "4", "--seed", "11"],
]
MICRO_FIELDS = {"prime": (13, 1), "odd_ext": (3, 5), "char2": (2, 8), "no_table": (5, 7)}
BUILDS = {"GF2_12": ((2, 12), 3), "GF3_8": ((3, 8), 3), "GF2_16": ((2, 16), 1)}


def _timed(fn, reps: int) -> float:
    """Median reference seconds of reps calls of fn."""
    timer = H.Timer()
    for _ in range(reps):
        timer.measure(fn)
    return statistics.median(timer.ref)


def micro() -> dict:
    """ns/op field arithmetic and us/op degree-63 Poly operations."""
    import orecalc as oc
    from orecalc.poly import poly_pow_mod

    rng = random.Random(20211)
    out = {}
    for tag, (p, m) in MICRO_FIELDS.items():
        K = oc.GF(p, m)
        n = 20000 if K.q <= 1 << 16 else 500
        pairs = [(rng.randrange(1, K.q), rng.randrange(1, K.q)) for _ in range(n)]
        for op in ("add", "mul"):
            fn = getattr(K, op)
            out[f"gf.{op}_ns.{tag}"] = _timed(lambda: [fn(a, b) for a, b in pairs], 5) / n * 1e9
    for tag in ("prime", "odd_ext"):
        K = oc.GF(*MICRO_FIELDS[tag])

        def rand_poly(deg):
            return oc.Poly.from_values(K, [rng.randrange(K.q) for _ in range(deg)] + [1])

        a, b, c = rand_poly(63), rand_poly(63), rand_poly(126)
        out[f"poly.mul_us.{tag}"] = _timed(lambda: a * b, 5) * 1e6
        if tag == "prime":
            out["poly.divmod_us.prime"] = _timed(lambda: c.divmod(a), 5) * 1e6
            out["poly.gcd_us.prime"] = _timed(lambda: a.gcd(b), 5) * 1e6
            base = oc.Poly.from_values(K, [rng.randrange(K.q), 1])
            out["poly.pow_mod_us.prime"] = _timed(lambda: poly_pow_mod(base, K.q**2, a), 5) * 1e6
    return out


def build(p: int, m: int) -> float:
    """Reference seconds to construct GF(p^m) in this (fresh) process."""
    import orecalc as oc

    return _timed(lambda: oc.GF(p, m), 1)


def _child_json(timer: H.Timer, argv: list[str], env: dict):
    rc, out, err, _ = timer.child([sys.executable, os.path.join(BENCH, "probe.py")] + argv, env)
    if rc != 0:
        raise SystemExit(f"probe.py {' '.join(argv)} failed:\n{err}")
    return json.loads(out)


def layer_metrics(oc, tracer, workload_ops: int, workload_queries: int, setup_build_s: float, env: dict) -> dict:
    """Per-layer metrics; setup_build_s is the build self time the workload's set-up spent."""
    for argv in PROBE_QUERIES:
        tracer.op_id += 1
        code, text = oc.cli.run(argv)
        if code != 0:
            raise SystemExit(f"probe query {argv} failed: {text}")
    n_ops = workload_ops + len(PROBE_QUERIES)
    n_queries = workload_queries + len(PROBE_QUERIES)
    agg, counts = tracer.agg, tracer.counts

    def self_s(name):
        return agg[name][2]

    def total_s(name):
        return agg[name][1]

    m: dict[str, tuple[float, str]] = {
        "gf.add_calls": (counts["gf.add_calls"] / n_ops, "count"),
        "gf.mul_calls": (counts["gf.mul_calls"] / n_ops, "count"),
        # Set-up builds once per run; builds after set-up (cli_cold: all of
        # them, in the query processes) per operation.
        "gf.build_s": (setup_build_s + (self_s("gf.build") - setup_build_s) / n_ops, "s"),
        "poly.roots_s": (self_s("poly.roots") / n_ops, "s"),
        "poly.eval_calls": (counts["poly.eval_calls"] / n_ops, "count"),
        "poly.compose_affine_s": (total_s("poly.compose_affine") / n_ops, "s"),
        "poly.compose_affine_calls": (agg["poly.compose_affine"][0] / n_ops, "count"),
        "eigengroup.closed_self_s": (self_s("eigengroup.closed") / n_ops, "s"),
        "eigengroup.shift_space_s": (self_s("eigengroup.shift_space") / n_ops, "s"),
        "eigengroup.descend_s": (self_s("eigengroup.descend") / n_ops, "s"),
        "lambda_aut.iso_pairs_tried": (counts["lambda_aut.iso_pairs_tried"] / agg["lambda_aut.iso"][0], "count"),
        "lambda_aut.iso_self_s": (self_s("lambda_aut.iso") / n_ops, "s"),
        "lambda_aut.aut_group_s": (total_s("lambda_aut.aut_group") / n_ops, "s"),
        "ore.verify_s": (total_s("ore.verify") / n_ops, "s"),
        "ore.centre_s": (total_s("ore.centre") / n_ops, "s"),
        "modules_spectra.word_span_s": (total_s("modules_spectra.word_span") / n_ops, "s"),
        "modules_spectra.cyclic_check_s": (total_s("modules_spectra.cyclic_check") / n_ops, "s"),
        "modules_spectra.module_self_s": (self_s("modules_spectra.module") / n_ops, "s"),
        "modules_spectra.spectrum_s": (self_s("modules_spectra.spectrum") / n_ops, "s"),
        "modules_spectra.factor_s": (self_s("modules_spectra.factor") / n_ops, "s"),
        "parsing.parse_us": (self_s("parsing.parse") / n_queries * 1e6, "us"),
    }
    probe_timer = H.Timer()
    for name, value in _child_json(probe_timer, ["micro"], env).items():
        m[name] = (value, "ns" if "_ns." in name else "us")
    for tag, ((p, k), reps) in BUILDS.items():
        vals = [_child_json(probe_timer, ["build", str(p), str(k)], env) for _ in range(reps)]
        m[f"gf.build_ms.{tag}"] = (statistics.median(vals) * 1e3, "ms")
    for name, code in (("cli.import_ms", "import orecalc"), ("cli.interp_ms", "pass")):
        fresh = H.Timer()
        for _ in range(5):
            fresh.child([sys.executable, "-c", code], env)
        m[name] = (statistics.median(fresh.ref) * 1e3, "ms")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


if __name__ == "__main__":
    sys.path.insert(0, SRC)
    if sys.argv[1] == "micro":
        print(json.dumps(micro()))
    elif sys.argv[1] == "build":
        print(json.dumps(build(int(sys.argv[2]), int(sys.argv[3]))))
    else:
        raise SystemExit("usage: probe.py micro | build p m")
