#!/usr/bin/env python3
"""Short-mode test of the benchmark: python3 perfbench/test_perfbench.py

Runs every workload briefly, untraced and traced, and checks that each
metric BENCHMARK.json lists is printed with its unit and that a clean
run passes its output checks; then checks that a deliberately
perturbed served output is caught (fail_ratio > 0, correct is false).
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "2"


def run(workload, trace, *extra):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", SECONDS, "--trace",
         str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


class ShortRuns(unittest.TestCase):
    def check_names(self, result, listed):
        metrics = result["metrics"]
        for m in listed:
            self.assertIn(m["name"], metrics)
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"])
        self.assertEqual(len(metrics), len(listed))

    def test_every_metric_is_printed_with_its_unit(self):
        for w in SPEC["workloads"]:
            for trace, listed in ((0, SPEC["end_to_end"]),
                                  (1, SPEC["per_layer"])):
                with self.subTest(workload=w["name"], trace=trace):
                    r = run(w["name"], trace)
                    self.check_names(r, listed)
                    self.assertTrue(r["correct"])
                    self.assertEqual(r["failed"], 0)
                    self.assertGreater(r["attempted"], 0)
                    if trace:
                        self.assertEqual(
                            r["metrics"]["fail_ratio"]["value"], 0)

    def test_perturbed_output_is_caught(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                r = run(w["name"], 1, "--perturb")
                self.assertGreater(r["metrics"]["fail_ratio"]["value"], 0)
                self.assertFalse(r["correct"])
                self.assertGreater(run(w["name"], 0, "--perturb")["failed"],
                                   0)


if __name__ == "__main__":
    unittest.main()
