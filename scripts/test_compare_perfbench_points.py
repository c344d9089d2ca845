#!/usr/bin/env python3
"""Unit tests for compare_perfbench_points.py, run as a ctest.

Each test writes two synthetic perfbench_driver outputs to a temp dir
and asserts the exit code: identical behaviour passes (0) whatever the
wall-clock fields say; a changed digest, event, packet or pending-peak
count, or a missing input, fails (1); empty, malformed or
self-contradictory files are rejected (2).
"""

import importlib.util
import io
import json
import os
import tempfile
import unittest
from contextlib import redirect_stderr, redirect_stdout

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "compare_perfbench_points",
    os.path.join(_HERE, "compare_perfbench_points.py"))
compare = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare)


def point(n, run_s=0.01, **over):
    p = {"input": n, "error": "", "digest": f"{n:016x}", "topo_s": 0.001,
         "install_s": 0.0001, "run_s": run_s, "stats_s": 0.0,
         "teardown_s": 0.0, "cc_s": 0.0, "cc_calls": 0,
         "events": 1000 + n, "pending_peak": 50 + n, "packets": 400 + n}
    p.update(over)
    return json.dumps(p)


class CompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, lines):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write("\n".join(lines) + "\n")
        return path

    def run_main(self, parent, change):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = compare.main(["compare", self.write("a", parent),
                                 self.write("b", change)])
        return code, out.getvalue() + err.getvalue()

    def test_same_behaviour_passes_whatever_the_timings(self):
        parent = [point(0), point(1), point(0), '{"correct": true}']
        change = [point(1, run_s=0.5), point(0, run_s=0.002)]
        code, text = self.run_main(parent, change)
        self.assertEqual(code, 0, text)
        self.assertIn("2 inputs agree", text)

    def test_each_compared_field_fails_when_it_differs(self):
        for field, value in (("digest", "ffffffffffffffff"),
                             ("events", 7), ("packets", 7),
                             ("pending_peak", 7)):
            code, text = self.run_main([point(0), point(1)],
                                       [point(0), point(1, **{field: value})])
            self.assertEqual(code, 1, field)
            self.assertIn(f"input 1: {field}", text)

    def test_missing_input_fails(self):
        code, text = self.run_main([point(0), point(1)], [point(0)])
        self.assertEqual(code, 1)
        self.assertIn("input 1: only in the parent run", text)

    def test_empty_malformed_or_contradictory_files_are_rejected(self):
        for bad in ([], ['{"input": 0, "digest": "00"}'], ['{"input": 0,'],
                    [point(0), point(0, events=1)]):
            code, _ = self.run_main([point(0)], bad)
            self.assertEqual(code, 2, bad)

    def test_wrong_argument_count_is_a_usage_error(self):
        with redirect_stderr(io.StringIO()):
            self.assertEqual(compare.main(["compare", "only-one"]), 2)


if __name__ == "__main__":
    unittest.main()
