#!/usr/bin/env python3
"""Self-test of the repository benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, with short runs through perfbench/run.py:
  1. a short run of every workload prints every end-to-end metric of
     BENCHMARK.json with its unit, correct, and exits 0;
  2. a short traced run of every workload prints every per-layer metric
     with its unit, and writes a trace file whose lines all parse, whose
     spans carry name/start/end/parent, and whose residual is finite;
  3. an injected one-bit answer corruption (hot_read and cold_publish)
     makes the verifier fail the run;
  4. an injected double charge (hot_read and herd) makes the verifier
     fail the run;
  5. a variable that changes the measured program is refused by the
     binary before any result is printed.
Exits non-zero if any check fails.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("hot_read", "cold_publish", "herd")

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)

failures = []


def check(condition, what):
    print(("PASS " if condition else "FAIL ") + what, flush=True)
    if not condition:
        failures.append(what)


def run(workload, trace, *extra, env=None, seed=7):
    command = [sys.executable, RUN, "--workload", workload, "--seed",
               str(seed), "--seconds", "1", "--trace",
               str(trace)] + list(extra)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          env=env)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done, lines, result


def metrics_match(result, specs):
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        return False
    got = result["metrics"]
    return set(got) == {m["name"] for m in specs} and all(
        got[m["name"]]["unit"] == m["unit"] and
        math.isfinite(got[m["name"]]["value"]) for m in specs)


for workload in WORKLOADS:
    done, _, result = run(workload, 0)
    check(done.returncode == 0 and result is not None and
          result["correct"] and result["failed"] == 0 and
          result["attempted"] >= 1 and
          metrics_match(result, SPEC["end_to_end"]),
          "%s: short run emits every end-to-end metric with its unit"
          % workload)

for workload in WORKLOADS:
    done, lines, result = run(workload, 1)
    check(done.returncode == 0 and result is not None and
          result["correct"] and metrics_match(result, SPEC["per_layer"]),
          "%s: traced run emits every per-layer metric with its unit"
          % workload)
    paths = [line.split()[2] for line in lines
             if line.startswith("perfbench trace ")]
    parsed, spans, residuals = True, 0, []
    if paths and os.path.exists(paths[0]):
        with open(paths[0]) as trace_file:
            for line in trace_file:
                try:
                    record = json.loads(line)
                except ValueError:
                    parsed = False
                    continue
                if record.get("type") == "span":
                    spans += 1
                    parsed = parsed and all(
                        key in record
                        for key in ("name", "start_us", "end_us", "parent"))
                elif record.get("type") == "residual":
                    residuals.append(record["residual_us"])
    check(bool(paths) and parsed and spans > 0 and len(residuals) == 1 and
          all(math.isfinite(r) for r in residuals),
          "%s: trace file parses and its residual is finite" % workload)

for workload in ("hot_read", "cold_publish"):
    done, _, result = run(workload, 0, "--inject", "flip_bit")
    check(done.returncode != 0 and result is not None and
          not result["correct"] and result["failed"] >= 1,
          "%s: an injected one-bit answer corruption fails the run"
          % workload)

for workload in ("hot_read", "herd"):
    done, _, result = run(workload, 0, "--inject", "double_charge")
    check(done.returncode != 0 and result is not None and
          not result["correct"] and result["failed"] >= 1,
          "%s: an injected double charge fails the run" % workload)

env = dict(os.environ, DPHIST_NOISE_MODEL="snapped")
done, _, result = run("hot_read", 0, env=env)
check(done.returncode != 0 and result is None,
      "DPHIST_NOISE_MODEL is refused without a result")

print("%d check(s) failed" % len(failures) if failures else "all checks pass")
sys.exit(1 if failures else 0)
