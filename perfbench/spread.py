#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload paper-qplacer --runs 10

Runs perfbench/run.py once per seed (1..runs, or --seeds), one run at a
time, and prints for every metric its median and the distance between
the first and third quartiles as a share of the median, the spread
BENCHMARK.json's bounds are checked against. A spread at or above a
third of the metric's bound is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seeds", type=int, nargs="*")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = args.seeds or list(range(1, args.runs + 1))
    values = {}
    for seed in seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        lines = proc.stdout.strip().split("\n")
        result = json.loads(lines[-1]) if lines and lines[-1] else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}"
                  f"{proc.stderr}", file=sys.stderr)
            sys.exit(1)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
            flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4)
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = " <-- spread >= bound/3" if bound and spread >= bound / 3 \
            else ""
        print(f"{name:28s} median {med:14.6g}  spread {spread:7.4f}"
              f"  bound {bound}{flag}")


if __name__ == "__main__":
    main()
