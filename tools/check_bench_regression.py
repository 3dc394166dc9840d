#!/usr/bin/env python3
"""Compare bench JSON rows against a committed baseline.

The bench harnesses emit one flat JSON object per result row (see
bench/bench_common.h). This tool either captures those rows into a
baseline file, or compares a fresh run against the committed baseline and
exits non-zero on regression:

  # Capture: row file(s) -> BENCH_BASELINE.json (sorted JSON array).
  # Multiple inputs (jsonl or a prior baseline array) are merged, so a new
  # bench's rows can be folded into an existing baseline.
  tools/check_bench_regression.py --capture bench-rows.jsonl \
      --out BENCH_BASELINE.json

  # Check: exit 1 if any timing metric moved beyond --max-ratio in either
  # direction or any quality metric drifted beyond --metric-rtol.
  tools/check_bench_regression.py --baseline BENCH_BASELINE.json \
      --fresh bench-rows.jsonl --max-ratio 5 --metric-rtol 0.05

Timing metrics (wall-clock fields) are machine-dependent, so they are
gated by a generous fresh/baseline *ratio*. Quality metrics (mae, kl,
...) are pure functions of the seeds, so they are gated by a tight
relative tolerance; a drift there means the algorithms changed behavior,
not that the machine was slow.

The timing ratio is checked both ways. A fresh value above
--max-ratio x baseline is a slowdown. A fresh value below
baseline / --max-ratio, on a metric whose baseline is above
--timing-floor-ms, means the row got much faster and its baseline is
stale: re-capture it, or a later slowdown of the same size would still
pass the gate.

--inject-slowdown N multiplies every fresh timing metric by N before the
comparison. CI uses it to prove both directions of the gate trip:
comparing a baseline against itself with --inject-slowdown 5
--max-ratio 4 must fail on any machine, and so must --inject-slowdown
0.2 --max-ratio 4 --timing-floor-ms 0.
"""

import argparse
import json
import math
import sys

# Fields that identify a row rather than measure it.
ID_FIELDS = {
    "bench", "type", "fig", "dataset", "algo", "score", "strategy",
    "n", "threads", "reps", "k", "length", "bins", "epsilon", "ratio",
    # bench_serve identity fields: which sweep, and which cell of it.
    "mode", "batches", "distinct_releases", "batch_size", "shards",
    "records",
    # bench_serve_net identity fields: concurrency, wire codec, and
    # pipeline depth.
    "clients", "codec", "pipeline",
    # bench_micro noise-model sweep: which sampling construction the row
    # measured. A baseline captured without this field can never match a
    # fresh row that has it — the per-bench empty-intersection check below
    # turns that into a hard, explained failure instead of a silent pass.
    "noise_model",
    # bench_sparse identity field: the 64-bit sparse domain size (distinct
    # from "n", which is the record count there).
    "domain",
    # bench_micro v-opt strategy table: the interval cost the solve
    # minimizes (squared for NoiseFirst, absolute for StructureFirst).
    "cost",
    # bench_micro CRC-32 and sparse range-sum tables: the frame size, and
    # the number of keys the release stores.
    "bytes", "keys",
}

# Measured wall-clock fields: machine-dependent, ratio-gated.
TIMING_SUFFIX = "_ms"

# Derived-from-timing fields that would double-count a slowdown, plus
# absolute throughput (qps): pure machine properties, not gateable —
# the *_ms latencies on the same rows carry the regression signal.
IGNORED_FIELDS = {"speedup", "qps"}


def is_timing(field):
    return field.endswith(TIMING_SUFFIX)


class RowsError(Exception):
    """A row file that cannot be read or parsed — reported as a clear
    one-line failure instead of a traceback."""


def load_rows(path):
    """Loads rows from a JSON array file or a JSON-lines file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise RowsError(f"cannot read rows file {path}: {error}") from error
    stripped = text.lstrip()
    if not stripped:
        return []
    try:
        if stripped.startswith("["):
            rows = json.loads(text)
        else:
            rows = [json.loads(line)
                    for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as error:
        raise RowsError(f"malformed JSON in {path}: {error}") from error
    # Obs snapshot lines share the stream when DPHIST_OBS_OUT points at the
    # same file; keep only bench result rows.
    return [r for r in rows if r.get("type") == "row"]


def load_rows_multi(paths):
    rows = []
    for path in paths:
        rows.extend(load_rows(path))
    return rows


def row_key(row):
    """Stable identity of a row: its id fields, sorted."""
    return json.dumps(
        {k: v for k, v in row.items() if k in ID_FIELDS}, sort_keys=True)


def metrics_of(row):
    return {
        k: v
        for k, v in row.items()
        if k not in ID_FIELDS and k not in IGNORED_FIELDS
        and isinstance(v, (int, float)) and not isinstance(v, bool)
    }


def validate_rows(rows, label):
    """Every measured field must be a finite number. A NaN, Infinity,
    bool, or string where a metric belongs means the capture (or a hand
    edit) corrupted the file; comparing against it would silently pass —
    NaN fails every > comparison — so it is a hard error instead."""
    problems = []
    for row in rows:
        bench = row.get("bench", "?")
        for field, value in row.items():
            if field in ID_FIELDS or field in IGNORED_FIELDS:
                continue
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float))):
                problems.append(
                    f"{label} bench '{bench}': metric '{field}' is "
                    f"non-numeric ({value!r})")
            elif not math.isfinite(value):
                problems.append(
                    f"{label} bench '{bench}': metric '{field}' is "
                    f"{value} — not a finite number")
    return problems


def capture(args):
    rows = load_rows_multi(args.capture)
    if not rows:
        print("capture: no rows found in", ", ".join(args.capture),
              file=sys.stderr)
        return 1
    corrupt = validate_rows(rows, "capture")
    if corrupt:
        for problem in corrupt:
            print("CORRUPT:", problem, file=sys.stderr)
        print("capture refused: a baseline with non-finite metrics would "
              "make every future comparison meaningless", file=sys.stderr)
        return 1
    rows.sort(key=row_key)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"captured {len(rows)} rows -> {args.out}")
    return 0


def check(args):
    baseline_rows = load_rows(args.baseline)
    fresh_rows = load_rows_multi(args.fresh)
    corrupt = (validate_rows(baseline_rows, "baseline")
               + validate_rows(fresh_rows, "fresh"))
    if corrupt:
        for problem in corrupt:
            print("CORRUPT:", problem, file=sys.stderr)
        print(f"FAIL: {len(corrupt)} corrupt metric value(s); fix the "
              f"rows file before comparing", file=sys.stderr)
        return 1
    baseline = {row_key(r): r for r in baseline_rows}
    fresh = {row_key(r): r for r in fresh_rows}
    if not baseline:
        print("check: baseline is empty:", args.baseline, file=sys.stderr)
        return 1

    failures = []
    missing = sorted(set(baseline) - set(fresh))
    # When a whole bench family is absent from the fresh capture, say so
    # once, by name — that means the binary never ran (or its rows went to
    # another file), which is a different problem than one changed row.
    baseline_benches = {r.get("bench", "?") for r in baseline.values()}
    fresh_benches = {r.get("bench", "?") for r in fresh.values()}
    for bench in sorted(baseline_benches - fresh_benches):
        failures.append(
            f"bench '{bench}' has baseline rows but no fresh rows — "
            f"did its binary run and write to the captured file(s)?")
    absent = baseline_benches - fresh_benches
    for key in missing:
        if json.loads(key).get("bench") in absent:
            continue  # already reported at the bench level
        failures.append(f"row missing from fresh run: {key}")
    # The reverse direction must be a hard error too: a bench that ran and
    # produced fresh rows but matches ZERO baseline rows is completely
    # ungated, and "exit 0 with a new-coverage note" reads as a pass. Two
    # ways to get there: the bench has no baseline rows at all, or its
    # identity fields changed (e.g. a baseline captured before a new
    # ID_FIELDS entry existed) so no key can ever match.
    for bench in sorted(fresh_benches - baseline_benches):
        failures.append(
            f"bench '{bench}' has fresh rows but zero baseline rows — "
            f"empty intersection; fold it into the baseline with "
            f"--capture before gating on it")
    for bench in sorted(fresh_benches & baseline_benches):
        bench_fresh = {k for k, r in fresh.items()
                       if r.get("bench") == bench}
        bench_base = {k for k, r in baseline.items()
                      if r.get("bench") == bench}
        if bench_fresh and bench_base and not (bench_fresh & bench_base):
            failures.append(
                f"bench '{bench}': baseline and fresh share zero row keys "
                f"— did an identity field change (or is the baseline "
                f"missing one, e.g. noise_model)? re-capture the baseline")
    extra = len(set(fresh) - set(baseline))
    if extra:
        print(f"note: {extra} fresh row(s) not in baseline (new coverage)")

    compared = 0
    for key, base_row in baseline.items():
        fresh_row = fresh.get(key)
        if fresh_row is None:
            continue
        base_metrics = metrics_of(base_row)
        fresh_metrics = metrics_of(fresh_row)
        for field, base_value in base_metrics.items():
            if field not in fresh_metrics:
                failures.append(f"{key}: metric '{field}' missing from fresh")
                continue
            fresh_value = fresh_metrics[field]
            compared += 1
            if is_timing(field):
                fresh_value *= args.inject_slowdown
                # Guard with an absolute floor: sub-ms timings are noise.
                if (fresh_value > args.timing_floor_ms
                        and fresh_value > base_value * args.max_ratio
                        and fresh_value > base_value + args.timing_floor_ms):
                    failures.append(
                        f"{key}: {field} {fresh_value:.4g} > "
                        f"{args.max_ratio}x baseline {base_value:.4g}")
                elif (base_value > args.timing_floor_ms
                        and fresh_value < base_value / args.max_ratio):
                    failures.append(
                        f"{key}: {field} {fresh_value:.4g} < baseline "
                        f"{base_value:.4g} / {args.max_ratio} — the row got "
                        f"much faster; re-capture its baseline")
            else:
                tolerance = args.metric_rtol * max(abs(base_value), 1e-12)
                if abs(fresh_value - base_value) > tolerance:
                    failures.append(
                        f"{key}: {field} {fresh_value:.17g} != baseline "
                        f"{base_value:.17g} (rtol {args.metric_rtol})")

    for failure in failures:
        print("REGRESSION:", failure, file=sys.stderr)
    status = "FAIL" if failures else "OK"
    print(f"{status}: {compared} metrics compared across "
          f"{len(baseline) - len(missing)}/{len(baseline)} baseline rows, "
          f"{len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--capture", metavar="ROWS", nargs="+",
                        help="capture ROWS file(s) (jsonl or array), "
                             "merged, into --out")
    parser.add_argument("--out", default="BENCH_BASELINE.json",
                        help="output path for --capture")
    parser.add_argument("--baseline", help="committed baseline file")
    parser.add_argument("--fresh", nargs="+",
                        help="fresh bench rows file(s) to check")
    parser.add_argument("--max-ratio", type=float, default=5.0,
                        help="max fresh/baseline (and baseline/fresh) "
                             "ratio for *_ms metrics")
    parser.add_argument("--metric-rtol", type=float, default=0.05,
                        help="relative tolerance for quality metrics")
    parser.add_argument("--timing-floor-ms", type=float, default=5.0,
                        help="ignore timing metrics below this many ms "
                             "(fresh for slowdowns, baseline for speed-ups)")
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        help="multiply fresh timings by N (gate self-test)")
    args = parser.parse_args()

    try:
        if args.capture:
            return capture(args)
        if not args.baseline or not args.fresh:
            parser.error("need --capture, or both --baseline and --fresh")
        return check(args)
    except RowsError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
