#!/usr/bin/env python3
"""The benchmark's own test: every workload at reduced size.

    python3 ridbench/test_ridbench.py

Checks that each run prints every metric BENCHMARK.json names (trace 0:
the end-to-end ones, trace 1: the per-layer ones), each with its unit;
that no scan fails and verdict_errors is 0; and that the deterministic work
counts repeat exactly across two traced runs at one thread.
"""

import contextlib
import io
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

SCALE_FACTOR = 0.1
SEED = 7
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Counts that depend only on the corpus and the analysis, never on timing.
DETERMINISTIC = ["frontend.tokens", "ir.functions", "ir.blocks",
                 "ir.instructions", "analysis.paths",
                 "analysis.blocks_executed", "smt.queries", "reports"]


def bench(workload, trace):
    out = io.StringIO()
    argv = ["run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "1", "--trace", str(trace),
            "--scale-factor", str(SCALE_FACTOR)]
    saved = sys.argv
    sys.argv = argv
    try:
        with contextlib.redirect_stdout(out):
            code = run.main()
    finally:
        sys.argv = saved
    lines = out.getvalue().splitlines()
    return code, lines[:-1], json.loads(lines[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.ridc, cls.tool = run.build()

    def check_run(self, workload, trace, declared):
        code, text, result = bench(workload, trace)
        self.assertEqual(code, 0)
        self.assertEqual(sorted(result), ["attempted", "correct", "failed",
                                          "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(sorted(metrics), sorted(m["name"] for m in declared))
        for m in declared:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))
            printed = "%s %s %s: " % (workload, "trace" if trace else "e2e",
                                      m["name"])
            self.assertTrue(any(line.startswith(printed) and
                                line.endswith(" " + m["unit"])
                                for line in text), printed)
        return text, metrics

    def test_end_to_end(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                text, metrics = self.check_run(name, 0, SPEC["end_to_end"])
                self.assertGreater(metrics["scan_s"]["value"], 0)
                self.assertIn(name + " e2e verdict_errors: 0 count", text)
                self.assertIn(name + " e2e scan_failure_ratio: 0.0 ratio",
                              text)

    def test_per_layer(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                _, metrics = self.check_run(name, 1, SPEC["per_layer"])
                self.assertEqual(metrics["verdict_errors"]["value"], 0)
                self.assertEqual(metrics["scan_failure_ratio"]["value"], 0)
                self.assertGreater(metrics["frontend.tokens"]["value"], 0)
                self.assertGreater(metrics["ir.functions"]["value"], 0)

    def test_counts_repeat_at_one_thread(self):
        for name, cfg in run.WORKLOADS.items():
            with self.subTest(workload=name):
                wl = run.Workload(name, SEED, SCALE_FACTOR, self.ridc,
                                  self.tool)
                saved = cfg["threads"]
                cfg["threads"] = 1
                try:
                    wl.setup_once()
                    # incremental-resume: replay the same edit both times.
                    first = wl.traced()
                    wl.ops = 0
                    second = wl.traced()
                finally:
                    cfg["threads"] = saved
                    wl.cleanup()
                for r in (first, second):
                    self.assertFalse(r["failed"])
                    self.assertEqual(r["errors"], 0)
                self.assertEqual(first["emit"], second["emit"])
                for key in DETERMINISTIC:
                    self.assertEqual(first["layers"][key],
                                     second["layers"][key], key)


if __name__ == "__main__":
    unittest.main()
