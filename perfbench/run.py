#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload paper_sweep|gen_large|campaign \
        --seed N --seconds S --trace 0|1

The benchmark program (perfbench/bench.ml) is built with dune from the
sources beside it first; its last line of standard output is the result
object.  Extra flags (--tiny, --tamper-golden) are passed through; see
perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
# What the benchmark builds and reads: without them there is nothing to
# measure, and the run fails before printing a result.
NEEDED = ["dune-project", "lib", "BENCH_baseline.json", os.path.join("perfbench", "dune")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["paper_sweep", "gen_large", "campaign"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args, extra = ap.parse_known_args()

    missing = [p for p in NEEDED if not os.path.exists(p)]
    if missing:
        print("perfbench: not a checkout of the repository (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2

    # Build output goes to stderr, so stdout carries only the benchmark's.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--cache=disabled",
         "./perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
