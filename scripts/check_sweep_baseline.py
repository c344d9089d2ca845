#!/usr/bin/env python3
"""Regression gate for the quick-sweep bench JSON (CI `bench-sweep-data`).

Usage: check_sweep_baseline.py CURRENT.json BASELINE.json

Compares a `powertcp_run --json` document from a parallel run of a
shipped config against that config's golden JSON under tests/goldens/.
The gate is deliberately generous —
it exists to catch structural breakage and large behavioural
regressions, not to pin every number:

  * structure must match exactly: same tables, columns, and row keys
    (a vanished scheme, metric, or sweep point is always a failure);
  * completion-style metrics (`done%`) may not drop more than
    COMPLETION_DROP percentage points below baseline;
  * `drops` may not explode past 10x baseline + DROPS_SLACK;
  * every other numeric metric is compared as a per-(table, metric)
    mean across rows with RELATIVE_TOL headroom (individual
    time-series bins legitimately shift when timing changes);
  * sanity invariants hold regardless of baseline: finite numbers,
    percentages in [0, 100], throughput within physical line rate.

Exit code 0 = gate passed, 1 = regression/structure failure,
2 = usage or unreadable input.
"""

import json
import math
import sys

COMPLETION_DROP = 10.0   # done% may drop this many points
DROPS_SLACK = 1000.0     # absolute headroom for drop counters
RELATIVE_TOL = 0.5       # +/-50% on per-metric means
MEAN_FLOOR = 1.0         # means below this compare against the floor
MAX_GBPS = 110.0         # no bench here runs a link faster than 100G

failures = []


def fail(msg):
    failures.append(msg)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_table(slug, cur, base):
    if cur["key_columns"] != base["key_columns"]:
        fail(f"{slug}: key columns changed {base['key_columns']} -> "
             f"{cur['key_columns']}")
        return
    if cur["value_columns"] != base["value_columns"]:
        fail(f"{slug}: value columns changed {base['value_columns']} -> "
             f"{cur['value_columns']}")
        return
    cur_keys = [r["keys"] for r in cur["rows"]]
    base_keys = [r["keys"] for r in base["rows"]]
    if cur_keys != base_keys:
        fail(f"{slug}: row keys changed (baseline {len(base_keys)} rows, "
             f"current {len(cur_keys)})")
        return

    sums = {}  # metric -> [cur_sum, base_sum, n]
    for cur_row, base_row in zip(cur["rows"], base["rows"]):
        for metric in cur["value_columns"]:
            cv = cur_row["values"].get(metric)
            bv = base_row["values"].get(metric)
            if is_number(cv) != is_number(bv):
                fail(f"{slug}: {metric} @ {cur_row['keys']} changed kind "
                     f"({bv!r} -> {cv!r})")
                continue
            if not is_number(cv):
                continue
            if not math.isfinite(cv):
                fail(f"{slug}: {metric} @ {cur_row['keys']} is not finite")
                continue
            if "done%" in metric and not 0.0 <= cv <= 100.0:
                fail(f"{slug}: {metric} @ {cur_row['keys']} = {cv} "
                     f"outside [0, 100]")
            if "gbps" in metric.lower() and not 0.0 <= cv <= MAX_GBPS:
                fail(f"{slug}: {metric} @ {cur_row['keys']} = {cv} "
                     f"outside [0, {MAX_GBPS}]")
            if metric in ("f1", "f2", "f3", "f4") and not 0.0 <= cv <= MAX_GBPS:
                fail(f"{slug}: per-flow gbps {metric} @ {cur_row['keys']} = "
                     f"{cv} outside [0, {MAX_GBPS}]")
            if "done%" in metric and cv < bv - COMPLETION_DROP:
                fail(f"{slug}: completion {metric} @ {cur_row['keys']} "
                     f"dropped {bv} -> {cv} (> {COMPLETION_DROP} points)")
            if metric == "drops" and cv > bv * 10 + DROPS_SLACK:
                fail(f"{slug}: {metric} @ {cur_row['keys']} exploded "
                     f"{bv} -> {cv}")
            s = sums.setdefault(metric, [0.0, 0.0, 0])
            s[0] += cv
            s[1] += bv
            s[2] += 1

    for metric, (cur_sum, base_sum, n) in sums.items():
        if n == 0 or "done%" in metric or metric == "drops":
            continue
        cur_mean, base_mean = cur_sum / n, base_sum / n
        scale = max(abs(base_mean), MEAN_FLOOR)
        if abs(cur_mean - base_mean) > RELATIVE_TOL * scale:
            fail(f"{slug}: mean {metric} moved {base_mean:.3f} -> "
                 f"{cur_mean:.3f} (> {RELATIVE_TOL:.0%} of {scale:.3f})")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        current = json.load(open(argv[1]))
        baseline = json.load(open(argv[2]))
    except (OSError, json.JSONDecodeError) as e:
        print(f"check_sweep_baseline: cannot read inputs: {e}",
              file=sys.stderr)
        return 2

    cur_tables = {t["slug"]: t for t in current.get("tables", [])}
    base_tables = {t["slug"]: t for t in baseline.get("tables", [])}
    if set(cur_tables) != set(base_tables):
        fail(f"table set changed: baseline {sorted(base_tables)} vs "
             f"current {sorted(cur_tables)}")
    else:
        for slug in sorted(base_tables):
            check_table(slug, cur_tables[slug], base_tables[slug])

    if failures:
        print(f"REGRESSION GATE FAILED ({argv[1]} vs {argv[2]}):")
        for f in failures:
            print(f"  - {f}")
        print("If the change is intentional, regenerate the baseline "
              "(see bench/baselines/README.md).")
        return 1
    n = sum(len(t["rows"]) for t in base_tables.values())
    print(f"regression gate passed: {argv[1]} matches {argv[2]} "
          f"({len(base_tables)} tables, {n} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
