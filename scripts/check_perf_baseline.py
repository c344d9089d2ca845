#!/usr/bin/env python3
"""Calibrated perf gate for bench_event_engine (CI `perf-gate`).

Usage: check_perf_baseline.py BASELINE.json CURRENT1.json [CURRENT2.json ...]

Compares fresh bench_event_engine JSON documents against the committed
baseline (bench/baselines/perf.json). Two classes of metric, two rules:

  * deterministic columns — `events`, `windows`, and every
    `allocs/ev` column — must match the baseline EXACTLY, and must
    agree across the repeat runs. A planted allocation on the hot path,
    a changed event count or a drifted lookahead-window count is always
    a failure; there is no noise to tolerate.
  * wall-clock columns (`Mev/s`) are gated loosely: the BEST repeat
    must stay above baseline minus a tolerance learned from the
    repeats themselves — max(MIN_DROP, NOISE_FACTOR x the relative
    spread across repeats), capped at MAX_DROP. One noisy run never
    fails the gate; a machine-wide slowdown shows up in the spread and
    widens the band instead of flagging a phantom regression.
    Passing several repeat files is how the gate calibrates; with one
    file the floor MIN_DROP applies.

Structure (tables, columns, row keys) must match exactly, like
scripts/check_sweep_baseline.py.

The baseline may additionally carry a top-level `floors` list of
absolute per-workload bars, each carrying `min` or `max`:

    "floors": [{"table": "event_engine_shard",
                "row": {"sim_threads": 4},
                "metric": "speedup", "min": 1.5},
               {"table": "event_engine_shard",
                "row": {"sim_threads": 4},
                "metric": "windows", "max": 1999}]

A `min` floor requires the BEST (largest) repeat of that cell to stay
>= the bar — an absolute minimum (e.g. "four shards must stay at
least 1.5x faster than one"); a `max` floor requires the SMALLEST
repeat to stay <= the bar — an absolute ceiling (e.g. "batched
lookahead must keep barrier-window counts at least 2x below the
pre-batching engine"). Both are unlike the relative drift band above.
A floor that names an unknown table, row, or metric is malformed
input (exit 2), so a renamed workload cannot silently un-gate its
floor.

Exit code 0 = gate passed, 1 = regression/structure failure,
2 = usage error or malformed/unreadable input.
"""

import json
import math
import sys

MIN_DROP = 0.40      # wall-clock floor: always allow a 40% dip
NOISE_FACTOR = 3.0   # widen the band to 3x the observed repeat spread
MAX_DROP = 0.90      # never accept losing more than 90% of throughput

failures = []


def fail(msg):
    failures.append(msg)


class MalformedInput(Exception):
    pass


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_deterministic(metric):
    return metric in ("events", "windows") or \
        "allocs" in metric


def load_document(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise MalformedInput(f"{path}: cannot read: {e}")
    if not isinstance(doc, dict) or "tables" not in doc:
        raise MalformedInput(f"{path}: missing top-level 'tables' key")
    tables = {}
    for t in doc["tables"]:
        for key in ("slug", "key_columns", "value_columns", "rows"):
            if key not in t:
                raise MalformedInput(
                    f"{path}: table {t.get('slug', '<unnamed>')!r} missing "
                    f"'{key}'")
        for row in t["rows"]:
            if "keys" not in row or "values" not in row:
                raise MalformedInput(
                    f"{path}: table {t['slug']!r} has a row without "
                    f"keys/values")
        if t["slug"] in tables:
            raise MalformedInput(f"{path}: duplicate table slug {t['slug']!r}")
        tables[t["slug"]] = t
    return tables, doc.get("floors", [])


def check_structure(path, tables, base_path, base_tables):
    if set(tables) != set(base_tables):
        fail(f"{path}: table set {sorted(tables)} differs from "
             f"{base_path} {sorted(base_tables)}")
        return False
    ok = True
    for slug, base in base_tables.items():
        cur = tables[slug]
        if cur["key_columns"] != base["key_columns"] or \
                cur["value_columns"] != base["value_columns"]:
            fail(f"{path}: {slug}: columns changed "
                 f"({base['key_columns']}/{base['value_columns']} -> "
                 f"{cur['key_columns']}/{cur['value_columns']})")
            ok = False
            continue
        if [r["keys"] for r in cur["rows"]] != \
                [r["keys"] for r in base["rows"]]:
            fail(f"{path}: {slug}: row keys changed")
            ok = False
    return ok


def find_floor_row(base_path, table, keys):
    matches = [r for r in table["rows"] if r["keys"] == keys]
    if len(matches) != 1:
        raise MalformedInput(
            f"{base_path}: floor row {keys!r} matches {len(matches)} rows in "
            f"{table['slug']!r} (want exactly 1)")
    return table["rows"].index(matches[0])


def check_floors(base_path, base_tables, floors, cur_docs):
    if not isinstance(floors, list):
        raise MalformedInput(f"{base_path}: 'floors' must be a list")
    checked = 0
    for fl in floors:
        if not isinstance(fl, dict) or \
                not {"table", "row", "metric"} <= set(fl) or \
                len({"min", "max"} & set(fl)) != 1:
            raise MalformedInput(
                f"{base_path}: floor {fl!r} needs table/row/metric and "
                f"exactly one of min/max")
        slug, keys, metric = fl["table"], fl["row"], fl["metric"]
        if slug not in base_tables:
            raise MalformedInput(
                f"{base_path}: floor names unknown table {slug!r}")
        base = base_tables[slug]
        if metric not in base["value_columns"]:
            raise MalformedInput(
                f"{base_path}: floor names unknown metric {metric!r} in "
                f"{slug!r}")
        bar = fl.get("min", fl.get("max"))
        if not is_number(bar):
            raise MalformedInput(
                f"{base_path}: floor bar {bar!r} is not a number")
        i = find_floor_row(base_path, base, keys)
        cvs = [cell(p, slug, tables[slug]["rows"][i], metric)
               for p, tables in cur_docs]
        checked += 1
        if "min" in fl:
            best = max(cvs)
            if best < bar:
                fail(f"{slug}: {metric} @ {keys} below floor: best of "
                     f"{len(cvs)} repeat(s) {best:.2f} < required minimum "
                     f"{bar:.2f}")
        else:
            best = min(cvs)
            if best > bar:
                fail(f"{slug}: {metric} @ {keys} above ceiling: best of "
                     f"{len(cvs)} repeat(s) {best:.2f} > required maximum "
                     f"{bar:.2f}")
    return checked


def cell(path, table, row, metric):
    v = row["values"].get(metric)
    if not is_number(v) or not math.isfinite(v):
        raise MalformedInput(
            f"{path}: {table}: {metric} @ {row['keys']} is not a finite "
            f"number ({v!r})")
    return v


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    base_path, cur_paths = argv[1], argv[2:]
    try:
        base_tables, floors = load_document(base_path)
        cur_docs = [(p, load_document(p)[0]) for p in cur_paths]

        structure_ok = all(
            check_structure(p, tables, base_path, base_tables)
            for p, tables in cur_docs)
        if not structure_ok:
            raise SystemExit(report(base_path))

        checked = 0
        for slug, base in sorted(base_tables.items()):
            for i, base_row in enumerate(base["rows"]):
                for metric in base["value_columns"]:
                    bv = cell(base_path, slug, base_row, metric)
                    cvs = [cell(p, slug, tables[slug]["rows"][i], metric)
                           for p, tables in cur_docs]
                    checked += 1
                    if is_deterministic(metric):
                        if len(set(cvs)) != 1:
                            fail(f"{slug}: {metric} @ {base_row['keys']} is "
                                 f"not reproducible across repeats: {cvs} — "
                                 f"deterministic columns may not vary")
                        elif cvs[0] != bv:
                            fail(f"{slug}: {metric} @ {base_row['keys']} "
                                 f"changed exactly-gated value {bv} -> "
                                 f"{cvs[0]}")
                        continue
                    # Wall clock: gate the best repeat, with the band
                    # widened by the observed repeat spread.
                    best = max(cvs)
                    spread = (best - min(cvs)) / best if best > 0 else 0.0
                    allowed = min(max(MIN_DROP, NOISE_FACTOR * spread),
                                  MAX_DROP)
                    if best < bv * (1.0 - allowed):
                        fail(f"{slug}: {metric} @ {base_row['keys']} "
                             f"regressed: best of {len(cvs)} repeat(s) "
                             f"{best:.2f} < baseline {bv:.2f} - "
                             f"{allowed:.0%} (repeat spread {spread:.0%})")
        checked += check_floors(base_path, base_tables, floors, cur_docs)
    except MalformedInput as e:
        print(f"check_perf_baseline: malformed input: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:
        return e.code

    if failures:
        return report(base_path)
    print(f"perf gate passed: {len(cur_paths)} run(s) vs {base_path} "
          f"({checked} cells)")
    return 0


def report(base_path):
    print(f"PERF GATE FAILED (vs {base_path}):")
    for f in failures:
        print(f"  - {f}")
    print("If the change is intentional, regenerate the baseline "
          "(see bench/baselines/README.md).")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
