"""Self-test of the benchmark's answer checks.

    python3 perfbench/selftest.py

For every operation of round 0 of each workload (seed 1) this runs the real
call, requires its check to pass, then feeds the check a corrupted copy of
the answer and requires it to fail.  Exits 1 on the first check that
accepts a corrupted answer or rejects a real one.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import refarith as R  # noqa: E402
import run  # noqa: E402
from harness import run_child  # noqa: E402


class _Desc:
    """Stands in for a descriptor, with an altered element list or order."""

    def __init__(self, pairs, order):
        self._pairs, self._order = pairs, order

    def elements(self):
        return [type("A", (), {"pair": p})() for p in self._pairs]

    def eigen_order(self):
        return self._order


def _bump(M):
    """A copy of a matrix with its (0, 0) entry changed."""
    rows = [list(r) for r in M]
    rows[0][0] = rows[0][0] + 1 if not isinstance(rows[0][0], list) else [rows[0][0][0] + 1] + rows[0][0][1:]
    return rows


def corrupt_library(kind: str, out):
    if kind.startswith(("GF5.", "GF7.", "GF13.", "GF9.", "GF8.")) and isinstance(out, tuple):  # eigen_sweep
        base, (closure_d, base_d, form_d) = out
        pairs = [a.pair for a in base.elements()]
        return _Desc(pairs[:-1] if len(pairs) > 1 else pairs + [(2, 1)], base_d["order"]), (closure_d, base_d, form_d)
    if kind.endswith(".partner"):
        F = out.hom.field
        return dataclasses.replace(out, alpha=F.mul(out.alpha, F.generator) if F.q > 2 else out.alpha, beta=F.add(out.beta, 1))
    if kind.endswith(".non_partner"):
        return dataclasses.replace(out, isomorphic=True)
    if kind.endswith(".aut_group"):
        return _Desc([], out.eigen_order() + 1)
    if ".off_f" in kind or ".on_f" in kind:
        return dataclasses.replace(out, X=tuple(tuple(r) for r in _bump_packed(out.field, out.X)))
    if kind.endswith(".spectrum"):
        return dataclasses.replace(out, max_off_f=out.max_off_f[1:])
    if kind.endswith(".centre"):
        return dataclasses.replace(out, c=out.c + 1)
    raise ValueError(kind)


def _bump_packed(F, M):
    rows = [list(r) for r in M]
    rows[0][0] = F.add(rows[0][0], 1)
    return rows


def corrupt_cli(kind: str, d: dict) -> dict:
    d = copy.deepcopy(d)
    head = kind.split(".")[0]
    if head in ("eigengroup", "oracle"):
        d["order"] += 1
    elif head == "eigenform":
        d["i"] += 1
        if d["case"] == "none":
            d["case"] = "single_root"
    elif head == "centre":
        d["c"] = "x^50 + " + d["c"] if d["c"] != "0" else "1"
    elif head == "aut_group":
        d["eigen_part"]["order"] += 1
    elif head == "isomorphic":
        d["isomorphic"] = not d["isomorphic"]
    elif head in ("off_f", "on_f"):
        d["X"] = _bump(d["X"])
    elif head == "spectrum":
        d["max_off_f"] = d["max_off_f"][1:]
    elif head == "inverse":
        d["group"]["order"] += 1
    else:
        raise ValueError(kind)
    return d


def _expect_fail(check, bad, kind) -> None:
    try:
        check(bad)
    except R.CheckFailed:
        return
    raise SystemExit(f"selftest: the check of {kind} accepted a corrupted answer")


def main() -> int:
    oc = run._import_orecalc()
    total = 0
    for name in run.WORKLOADS:
        wl = run._workload(name, oc, 1)
        wl.setup()
        for op in wl.round(0):
            if op.argv is None:
                out = op.run()
                op.check(out)
                _expect_fail(op.check, corrupt_library(op.kind, out), op.kind)
            else:
                rc, text, err, _, _ = run_child(wl.child_argv(op.argv, traced=False), run.child_env())
                if rc != 0:
                    raise SystemExit(f"selftest: {op.kind} exited {rc}: {err}")
                op.check((rc, text, err))
                bad = json.dumps(corrupt_cli(op.kind, json.loads(text)))
                _expect_fail(op.check, (rc, bad, err), op.kind)
            total += 1
        print(f"{name}: every check passed its real answer and failed a corrupted one")
    print(f"selftest: {total} checks ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
