"""Seeded CPU-time benchmark of orecalc: four workloads, one closed-loop caller.

    python3 perfbench/run.py --workload eigen_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; orecalc is imported from its src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (from a traced run with spans and counters around
orecalc's functions, plus the layer probe) with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("eigen_sweep", "iso_classify", "simple_modules", "cli_cold")
# Set-up samples per untraced run, this process's own included (cli_cold: all
# fresh imports).  One import is 0.12 s, so cli_cold takes many; eigen_sweep's
# set-up is 1.7 s, which caps its count by the run's length.
SETUP_SAMPLES = {"eigen_sweep": 7, "iso_classify": 11, "simple_modules": 11, "cli_cold": 15}


def _import_orecalc():
    if not os.path.isfile(os.path.join(SRC, "orecalc", "__init__.py")):
        raise SystemExit(f"run.py: no orecalc sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, SRC)
    import orecalc
    import orecalc.cli  # noqa: F401  (bound before the tracer wraps functions)

    if os.path.dirname(os.path.dirname(os.path.abspath(orecalc.__file__))) != SRC:
        raise SystemExit(f"run.py: imported orecalc from {orecalc.__file__}, not from {SRC}")
    return orecalc


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def _workload(name: str, oc, seed: int):
    if name == "eigen_sweep":
        import wl_eigen as mod
    elif name == "iso_classify":
        import wl_iso as mod
    elif name == "simple_modules":
        import wl_modules as mod
    else:
        import wl_cli as mod
    return mod.Workload(oc, seed)


def _setup_child(name: str, seed: int) -> float:
    """Set-up time of one fresh process.

    For cli_cold set-up is a whole process that imports orecalc and exits,
    and this returns its raw CPU seconds (scaled later like the queries); a
    library workload's child reports its own time up to the first call in
    reference seconds.
    """
    import harness as H

    if name == "cli_cold":
        argv = [sys.executable, "-c", "import orecalc"]
    else:
        argv = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
                "--seed", str(seed), "--setup-only"]
    rc, stdout, err, raw, _ = H.run_child(argv, child_env())
    if rc != 0:
        raise SystemExit(f"run.py: set-up child failed:\n{err}")
    return raw if name == "cli_cold" else json.loads(stdout)["setup_ref_s"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time set-up alone in this process (the benchmark runs itself this way)")
    args = ap.parse_args(argv)
    sys.path.insert(0, BENCH)
    import harness as H

    # One core for this process and its children, so that the calibration
    # kernel runs where the timed work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cal0 = [H.calibrate() for _ in range(3)]
    oc = _import_orecalc()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(oc)
    wl = _workload(args.workload, oc, args.seed)
    wl.setup()
    ops = wl.round(0)
    setup_raw = H.cpu()
    setup_build_s = tracer.agg["gf.build"][2] if tracer is not None else 0.0
    setup_ref = setup_raw * H.CAL_REF_S / statistics.median(cal0 + [H.calibrate() for _ in range(3)])
    if args.setup_only:
        print(json.dumps({"setup_ref_s": setup_ref}))
        return 0

    timer = H.Timer()
    attempted = failed = 0
    errors: list[str] = []
    wrong = 0  # answers that failed their check
    child_rss = []
    traced_queries = 0
    # Fresh set-up processes run between rounds, spread over the pass, so
    # that one slow stretch of the machine does not hold them all.
    setups = [] if args.workload == "cli_cold" else [setup_ref]
    n_setups = 0 if tracer is not None else SETUP_SAMPLES[args.workload]
    r = 0
    pass_t0 = H.cpu()
    while True:
        for op in ops:
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted
            try:
                if op.argv is not None:
                    child_argv = wl.child_argv(op.argv, traced=tracer is not None)
                    rc, out, err, rss = timer.child(child_argv, child_env(), op.kind)
                    child_rss.append(rss)
                    if rc != 0:
                        raise RuntimeError(f"exit code {rc}: {err.strip()}")
                    if tracer is not None:
                        traced_queries += 1
                        out = _fold_child_trace(tracer, out)
                    result = (rc, out, err)
                else:
                    result = timer.measure(op.run, op.kind)
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                errors.append(f"{op.kind}: {traceback.format_exc(limit=3)}")
                continue
            try:
                op.check(result)
            except Exception as exc:  # CheckFailed, or a malformed answer
                wrong += 1
                errors.append(f"{op.kind}: check failed: {exc!r}")
        r += 1
        used = min(1.0, sum(timer.raw) / args.seconds)
        while len(setups) < n_setups * used:
            setups.append(_setup_child(args.workload, args.seed))
        # Every call's time counts, failed or not, so the pass ends after
        # whole rounds once --seconds of CPU time are used up.  Calls that
        # fail at once use up next to nothing; the pass then ends when its
        # own CPU time (checks and input drawing too) reaches 3 x --seconds,
        # or when the inputs run out.
        if used >= 1.0 or H.cpu() - pass_t0 >= 3 * args.seconds:
            break
        try:
            ops = wl.round(r)
        except H.OutOfInputs as exc:
            errors.append(f"the pass ends after round {r}: {exc}")
            break
    while len(setups) < n_setups:
        setups.append(_setup_child(args.workload, args.seed))
    if args.workload == "cli_cold":
        setups = [t * H.CAL_REF_S / timer.cal_median() for t in setups]

    ref = timer.ref
    ok_ref = [t for t, c in zip(ref, timer.calls) if c.ok] or ref
    verified = attempted - failed - wrong
    for e in errors:
        print(e, file=sys.stderr)

    if tracer is None:
        if args.workload == "cli_cold":
            rss_mb = max(child_rss) / 1024
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        total = sum(ref)
        metrics = {
            "ops_per_s": {"value": verified / total, "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(ok_ref) * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        raw_ok = [c.raw for c in timer.calls if c.ok] or timer.raw
        print(json.dumps({"raw": {"rounds": r, "ops": attempted, "cpu_s": sum(timer.raw),
                                  "ref_s": total, "cal_median_ms": timer.cal_median() * 1e3,
                                  "ops_per_s_raw": verified / sum(timer.raw),
                                  "latency_p50_raw_ms": statistics.median(raw_ok) * 1e3,
                                  "setup_ref_s": setups, "per_kind_ms": _per_kind(timer.calls, ref)}}))
    else:
        import probe

        metrics = probe.layer_metrics(oc, tracer, attempted, traced_queries, setup_build_s, child_env())
        os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
        tracer.write(os.path.join(BENCH, "out", f"spans_{args.workload}_{args.seed}.jsonl"))
        metrics["trace.ops_per_s"] = {"value": verified / sum(ref), "unit": "ops/s"}
        print(json.dumps({"raw": {"rounds": r, "ops": attempted, "cpu_s": sum(timer.raw)}}))
    print(json.dumps({"correct": wrong == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _per_kind(calls, ref: list[float]) -> dict:
    """Per operation kind: count, median reference ms, median raw ms, quartile spread of reference ms.

    Calls that raised or exited non-zero are listed under "<kind> failed".
    """
    out: dict = {}
    for c, t_ref in zip(calls, ref):
        kind = c.kind if c.ok else f"{c.kind} failed"
        out.setdefault(kind, ([], []))
        out[kind][0].append(t_ref)
        out[kind][1].append(c.raw)
    return {k: [len(a), round(statistics.median(a) * 1e3, 3), round(statistics.median(b) * 1e3, 3), round(_spread(a), 3)]
            for k, (a, b) in out.items()}


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _fold_child_trace(tracer, out: str) -> str:
    """Split a traced child's output into the CLI answer and its span aggregates."""
    body, _, last = out.rstrip("\n").rpartition("\n")
    tracer.merge(json.loads(last))
    return body + "\n"


if __name__ == "__main__":
    sys.exit(main())
