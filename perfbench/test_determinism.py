#!/usr/bin/env python3
"""Determinism self-test of the benchmark's traced run.

    python3 perfbench/test_determinism.py

Run from the root of a checkout. For each workload it makes the traced
run twice at one seed, each with an output directory of its own (so
each run computes the Table 3 error itself), and asserts that
every count-type per-layer metric (the `exact` block of the LEDGER
line), the Table 3 error and the total simulated cycles are identical,
and that both runs pass their output checks. A later change may then
cite any of these counts as exact.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["paper-regen", "trace-replay", "service-jobs"]
SEED = 7


def traced(workload):
    build = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    os.makedirs(build, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as out_dir:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1",
             "--out-dir", out_dir],
            stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    ledger = next(l for l in out if l.startswith("LEDGER "))
    return json.loads(ledger[len("LEDGER "):]), json.loads(out[-1])


class Determinism(unittest.TestCase):
    def test_counts_repeat_exactly(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                (first, r1), (second, r2) = traced(workload), traced(workload)
                for result in (r1, r2):
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                self.assertEqual(first["exact"], second["exact"])
                self.assertEqual(first["table3_err"], second["table3_err"])
                self.assertEqual(first["sim_cycles"], second["sim_cycles"])
                self.assertGreater(first["sim_cycles"], 0)


if __name__ == "__main__":
    unittest.main()
