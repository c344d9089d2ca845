#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the packet-level simulator.

    python3 perfbench/run.py --workload fattree --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Builds perfbench_driver (the simulator
library plus driver.cpp, Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, runs it for --seconds,
checks every simulation point it reports, and prints one JSON object as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). Build output goes to standard error.

Every time is in reference seconds: the driver scales each span to the
host speed at which its own fixed reference loop takes 2 ms, so runs on
a shared host whose speed drifts stay comparable.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("fattree", "dumbbell", "incast")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, out, "perfbench")
    # Written only by a configure that got as far as generating.
    if not os.path.exists(os.path.join(build_dir, "cmake_install.cmake")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", build_dir, "-j", jobs,
           "--target", "perfbench_driver"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_driver")


def metric(value, unit):
    return {"value": value, "unit": unit}


def median(points, key):
    return statistics.median(p[key] for p in points)


def end_to_end(points):
    times = [1e3 * (p["topo_s"] + p["install_s"] + p["run_s"] + p["stats_s"] +
                    p["teardown_s"]) for p in points]
    setup = [p["topo_s"] + p["install_s"] for p in points]
    return {
        "point_ms": metric(statistics.median(times), "ms"),
        "point_p90_ms": metric(statistics.quantiles(times, n=10)[-1], "ms"),
        "setup_s": metric(statistics.median(setup), "s"),
    }


def per_layer(points):
    def ms(key):
        return metric(1e3 * median(points, key), "ms")

    def count(key):
        return metric(median(points, key), "count")

    run_s = sum(p["run_s"] for p in points)
    cc_s = sum(p["cc_s"] for p in points)
    return {
        "topo_build_ms": ms("topo_s"),
        "flow_install_ms": ms("install_s"),
        "engine_run_ms": ms("run_s"),
        "fct_stats_ms": ms("stats_s"),
        "teardown_ms": ms("teardown_s"),
        "engine_ns_per_event": metric(
            1e9 * run_s / sum(p["events"] for p in points), "ns"),
        "engine_ns_per_packet": metric(
            1e9 * run_s / sum(p["packets"] for p in points), "ns"),
        "cc_ns_per_ack": metric(
            1e9 * cc_s / sum(p["cc_calls"] for p in points), "ns"),
        "cc_share_of_engine": metric(cc_s / run_s, "ratio"),
        "events_per_point": count("events"),
        "packets_per_point": count("packets"),
        "cc_acks_per_point": count("cc_calls"),
        "pending_peak": count("pending_peak"),
    }


def check(points):
    """Returns the number of failed points; prints why each failed."""
    failed = 0
    digests = {}
    for p in points:
        first = digests.setdefault(p["input"], p["digest"])
        why = p["error"] or (first != p["digest"] and
                             f"input {p['input']} is not deterministic")
        if why:
            failed += 1
            print(f"perfbench: point failed: {why}", file=sys.stderr)
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    driver = build()
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    if proc.returncode != 0:
        fail(f"driver exited with {proc.returncode}")
    points = [json.loads(line) for line in proc.stdout.splitlines() if line]
    if len(points) < 10:
        fail(f"driver reported {len(points)} points, too few for a p90")

    failed = check(points)
    metrics = per_layer(points) if args.trace else end_to_end(points)
    print(json.dumps({"correct": failed == 0, "attempted": len(points),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
