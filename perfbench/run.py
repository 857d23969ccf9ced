#!/usr/bin/env python3
"""Builds and runs streamqp's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload fanout --seed 1 --seconds 10 --trace 0

Run from the root of a source tree. The benchmark binary is built from
source on first use into $CARGO_TARGET_DIR (default .bench_build) under
perfbench/; its scratch files (durable archives, span dumps) go to work/
beside it. The last line of stdout is the benchmark's JSON result; the
exit code is non-zero when the build fails, an operation fails or an
output differs from its reference.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("fanout", "window_agg", "sharded_groupby", "served_durable")


def build(root, build_dir):
    """Configures and builds the e2e_bench target; build logs go to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", build_dir, "--target", "e2e_bench",
              "-j", jobs]]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", os.path.join(root, "perfbench"),
                         "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    if not build(root, build_dir):
        print("run.py: build failed", file=sys.stderr)
        return 2

    workdir = os.path.join(build_dir, "work")
    cmd = [os.path.join(build_dir, "e2e_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    try:
        json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    except ValueError:
        print("run.py: no result line (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
