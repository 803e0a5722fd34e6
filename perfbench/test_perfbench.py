#!/usr/bin/env python3
"""Self-test of the benchmark: python3 -m unittest perfbench/test_perfbench.py

Runs every workload in --quick mode (tiny inputs, seconds each) with and
without tracing and checks the result against BENCHMARK.json: every
declared metric is printed by name with its declared unit, and the run is
correct. It also runs `socmix_perfbench selftest`, which feeds corrupted
outputs (a rising or out-of-range TVD trajectory, an unconverged Lanczos
solve, a bad admitted fraction) to the checkers and fails unless each trips,
and checks that a directory holding only the benchmark fails cleanly.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run_quick(workload, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--quick"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


class QuickRuns(unittest.TestCase):
    def check(self, workload, trace):
        proc = run_quick(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        lines = proc.stdout.rstrip("\n").split("\n")
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], lines[-1])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        text = "\n".join(lines[:-1])
        self.assertRegex(text, r"error_rate \S+ \(\d+ failed of \d+ attempted ops\)")
        self.assertIn("provenance workload=", text)
        self.assertIn("simd=", text)
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            if not trace:
                self.assertGreater(got["value"], 0, m["name"])
                pattern = rf"metric {re.escape(m['name'])}\s+\S+ {re.escape(m['unit'])}$"
                self.assertRegex(text, re.compile(pattern, re.M))

    def test_every_workload_untraced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 0)

    def test_every_workload_traced(self):
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                self.check(w["name"], 1)


class Checkers(unittest.TestCase):
    def test_corrupted_outputs_trip_the_checks(self):
        self.assertEqual(run_quick(SPEC["workloads"][0]["name"], 0).returncode, 0)
        binary = os.path.join(ROOT, ".bench_build", "perfbench", "socmix_perfbench")
        proc = subprocess.run([binary, "selftest"], capture_output=True, text=True,
                              timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout)
        self.assertIn("corrupted trajectory in a measurement trips", proc.stdout)
        self.assertNotIn("FAIL", proc.stdout)


class BenchmarkAlone(unittest.TestCase):
    def test_fails_without_the_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
