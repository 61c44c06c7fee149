"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads eigen_sweep iso_classify --seeds 1-10 --seconds 20

For every workload and end-to-end metric this prints the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the quartile
distance as a share of the median, and the share of failed operations; the
rows raw.ops_per_s and raw.latency_p50_ms give the same for the uncalibrated
CPU times of the raw line.  Runs are sequential, one at a time, untraced.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    for wl in args.workloads:
        values: dict[str, list[float]] = {}
        shares = set()
        for seed in args.seeds:
            proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", wl,
                                   "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
                                  capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            res, raw = json.loads(lines[-1]), json.loads(lines[-2])["raw"]
            if not res["correct"]:
                print(f"{wl} seed {seed}: incorrect answers\n{proc.stderr}", file=sys.stderr)
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            values.setdefault("raw.ops_per_s", []).append(raw["ops_per_s_raw"])
            values.setdefault("raw.latency_p50_ms", []).append(raw["latency_p50_raw_ms"])
        print(f"{wl}: {len(args.seeds)} runs, failed share {sorted(shares)}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:18s} median {statistics.median(vals):10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {(q3 - q1) / statistics.median(vals):6.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
