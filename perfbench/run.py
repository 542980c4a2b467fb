#!/usr/bin/env python3
"""CAT-flow benchmark entry point.

Builds the catlift sources of this checkout together with the flow program
(perfbench/flowbench.cpp) into .bench_build/perfbench, then runs one
workload and forwards its output.  Run it from the checkout root:

    python3 perfbench/run.py --workload vco_cat --seed 0 --seconds 20 --trace 0

The last line of stdout is the JSON result.  The exit code is
non-zero when the build fails or any correctness check fails.  See
perfbench/METRICS.md for the workloads and metrics.
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = Path(".bench_build") / "perfbench"
WORKLOADS = ("vco_cat", "chain_lift", "vco_revise")


def build() -> Path:
    """Configure once, then (re)build flowbench; build logs go to stderr."""
    if not (BENCH_DIR.parent / "src").is_dir():
        sys.exit("perfbench: no src/ beside perfbench/; run from a catlift checkout")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "flowbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD_DIR / "flowbench"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    exe = build()
    # Exact work counts are compared across runs of the same binary only.
    ledger = BUILD_DIR / "ledger" / hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--reference", str(BENCH_DIR / "reference"),
           "--work-dir", str(BUILD_DIR / "work"), "--ledger", str(ledger)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
