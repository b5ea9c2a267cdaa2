#!/usr/bin/env python3
"""Run one workload of the qplacer benchmark.

    python3 perfbench/run.py --workload paper-qplacer --seed 1 \
        --seconds 20 --trace 0

Builds the driver (perfbench/CMakeLists.txt, Release, library only)
under .bench_build/perfbench in the repository root, runs it, and
prints its metric table. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics; metrics
holds exactly the end_to_end metrics of BENCHMARK.json for an
untraced run (--trace 0) and exactly its per_layer metrics for a
traced one (--trace 1). The line before it records the run metadata
and the sample count behind every metric.

Exit code: 0 when every output check passed, 1 when some operation
failed its check (the result line is still printed), 2 when no
result could be produced.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "qplacer_perfbench"
OPTIMIZED_BUILDS = ("Release", "RelWithDebInfo")
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_checked(cmd, timeout):
    """Run a build step with its output on stderr; die on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        die(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        die(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(ROOT / "perfbench"),
                     "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_checked(configure, 300)
    jobs = str(os.cpu_count() or 1)
    run_checked(["cmake", "--build", str(BUILD_DIR), "-j", jobs], 840)


def source_revision():
    """git revision when the checkout has one, else a digest of src/."""
    rev = "none"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = "unknown"
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*"))
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return rev, digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", type=float, default=0.0,
                        help="serve-iterate only: arrival rate override "
                             "(jobs/s), for re-measuring capacity")
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        die(f"no qplacer sources under {ROOT}")
    if not spec_path.exists():
        die("BENCHMARK.json is missing")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        die(f"unknown workload {args.workload}")
    names = [m["name"] for m in spec["per_layer" if args.trace else
                                     "end_to_end"]]

    build()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.rate > 0:
        cmd += ["--rate", repr(args.rate)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        die(f"workload did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines:
        die(f"driver exited with {proc.returncode}")
    try:
        full = json.loads(lines[-1])
    except json.JSONDecodeError:
        die("driver printed no report")

    meta = full["meta"]
    if meta["build_type"] not in OPTIMIZED_BUILDS:
        die(f"refusing numbers from a {meta['build_type']} build")
    meta["revision"], meta["source_digest"] = source_revision()
    missing = [n for n in names if n not in full["metrics"]]
    if missing:
        die(f"driver did not report {', '.join(missing)}")

    print("\n".join(lines[:-1]))
    meta["samples"] = {n: full["metrics"][n]["samples"] for n in names}
    print(json.dumps({"meta": meta}))
    result = {
        "correct": proc.returncode == 0 and full["failed"] == 0,
        "attempted": full["attempted"],
        "failed": full["failed"],
        "metrics": {n: {"value": full["metrics"][n]["value"],
                        "unit": full["metrics"][n]["unit"]} for n in names},
    }
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
