#!/usr/bin/env python3
"""Checks that two perfbench runs simulated the same thing.

Usage: compare_perfbench_points.py PARENT.jsonl CHANGE.jsonl

Each file is the standard output of `perfbench_driver` (one JSON object
per simulation point; other lines, such as run.py's summary line, are
ignored). A change that claims to keep the simulated behaviour must
give every input the same `digest`, `events`, `packets` and
`pending_peak` as its parent. Wall-clock fields are not compared.

Exit codes: 0 when both files cover the same inputs and every input
agrees on every compared field; 1 when they differ; 2 when a file is
unreadable, holds no points, or one input reports two different values
within one file (the driver is deterministic, so that is a broken
run, not a difference).
"""

import json
import sys

FIELDS = ("digest", "events", "packets", "pending_peak")


class Malformed(Exception):
    pass


def load(path):
    """Maps each input to its compared fields, read from `path`."""
    points = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except OSError as e:
        raise Malformed(f"{path}: {e.strerror}")
    for n, line in enumerate(lines, 1):
        if not line.startswith('{"input"'):
            continue
        try:
            p = json.loads(line)
            key = p["input"]
            fields = tuple(p[k] for k in FIELDS)
        except (ValueError, KeyError) as e:
            raise Malformed(f"{path}:{n}: not a driver point ({e})")
        if points.setdefault(key, fields) != fields:
            raise Malformed(f"{path}:{n}: input {key} disagrees with an "
                            "earlier run of the same input")
    if not points:
        raise Malformed(f"{path}: no perfbench_driver points")
    return points


def compare(parent, change):
    """Returns one line per difference between two loaded runs."""
    diffs = []
    for key in sorted(parent.keys() ^ change.keys()):
        side = "parent" if key in parent else "change"
        diffs.append(f"input {key}: only in the {side} run")
    for key in sorted(parent.keys() & change.keys()):
        for name, a, b in zip(FIELDS, parent[key], change[key]):
            if a != b:
                diffs.append(f"input {key}: {name} {a} -> {b}")
    return diffs


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    try:
        parent, change = load(argv[1]), load(argv[2])
    except Malformed as e:
        print(f"compare_perfbench_points: {e}", file=sys.stderr)
        return 2
    diffs = compare(parent, change)
    for d in diffs:
        print(d)
    if diffs:
        print(f"FAIL: {len(diffs)} difference(s)")
        return 1
    print(f"OK: {len(parent)} inputs agree on {', '.join(FIELDS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
