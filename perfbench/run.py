#!/usr/bin/env python3
"""Builds and runs the dphist repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hot_read --seed 1 --seconds 10 --trace 0

Workloads are hot_read, cold_publish and herd. The first run configures
and builds perfbench/ (and the dphist library from ../src) in Release mode
under .bench_build/perfbench; later runs rebuild only what changed. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON
result. Extra arguments (--inject) are passed to the binary, which also
refuses settings that change the measured program. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(BUILD, "work")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("hot_read", "cold_publish", "herd")
# The pool width every run pins (the binary refuses any other).
POOL_WIDTH = "2"


def run_quiet(command):
    """Runs a build step; its output goes to stderr only if it fails."""
    done = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
    return done.returncode == 0


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", SOURCE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()

    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 2
    os.makedirs(WORK, exist_ok=True)
    env = dict(os.environ, DPHIST_THREADS=POOL_WIDTH)
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", WORK] + extra
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
