#!/usr/bin/env python3
"""Self-test of the benchmark: every workload at a tiny length on two
seeds, untraced and traced.

    python3 perfbench/selftest.py

Asserts that every end-to-end and per-layer metric named in
BENCHMARK.json is emitted and finite, that the correctness gates pass,
and that no operation failed (failed / attempted == 0).
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = (1, 2)


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)


class SelfTest(unittest.TestCase):
    def test_every_workload_emits_every_metric_and_passes_its_gates(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = {0: {m["name"] for m in spec["end_to_end"]},
                 1: {m["name"] for m in spec["per_layer"]}}
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in SEEDS:
                for trace in (0, 1):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        done = run(workload, seed, trace)
                        self.assertEqual(done.returncode, 0, done.stderr[-4000:])
                        result = json.loads(done.stdout.strip().splitlines()[-1])
                        self.assertTrue(result["correct"], done.stderr[-4000:])
                        self.assertGreater(result["attempted"], 0)
                        self.assertEqual(result["failed"] / result["attempted"], 0)
                        self.assertEqual(set(result["metrics"]), names[trace])
                        for name, metric in result["metrics"].items():
                            self.assertTrue(math.isfinite(metric["value"]), name)


if __name__ == "__main__":
    unittest.main()
