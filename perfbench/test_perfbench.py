#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny sizes (under a minute in all).

Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload must pass every job's check and print every metric that
BENCHMARK.json names, traced and untraced; the virtual-time digest must
repeat; and a perturbed reference must make the checks fail.
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

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace=0, *extra):
    """Runs one tiny workload; returns (result JSON, stdout lines)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"] +
        list(extra),
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("run.py exited %d:\n%s" %
                             (proc.returncode, proc.stdout))
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines


def line_value(lines, prefix):
    for line in lines:
        if line.startswith(prefix):
            return line
    raise AssertionError("no line starting with %r" % prefix)


class WorkloadTest(unittest.TestCase):

    def check_result(self, result, expected_metrics):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in expected_metrics})
        for metric in expected_metrics:
            got = result["metrics"][metric["name"]]
            self.assertEqual(got["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(got["value"], (int, float))

    def test_untraced_passes_and_prints_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = run(workload, 0)
                self.check_result(result, SPEC["end_to_end"])
                for name, value in result["metrics"].items():
                    self.assertGreater(value["value"], 0, name)
                self.assertIn("fail_frac 0 ", line_value(lines, "fail_frac"))

    def test_traced_prints_every_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = run(workload, 1)
                self.check_result(result, SPEC["per_layer"])
                for metric in SPEC["per_layer"]:
                    self.assertTrue(
                        any(l.split()[:1] == [metric["name"]] and
                            l.split()[-1] == metric["unit"] for l in lines),
                        metric["name"])

    def test_virtual_time_digest_repeats(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, first = run(workload, 0)
                _, second = run(workload, 1)
                digest = line_value(first, "virtual-time digest")
                self.assertNotIn("DIFFERS", digest)
                self.assertEqual(digest,
                                 line_value(second, "virtual-time digest"))

    def test_perturbed_reference_fails_every_job(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result, lines = run(workload, 0, "--perturb-reference")
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                frac = float(re.match(r"fail_frac (\S+)",
                                      line_value(lines, "fail_frac")).group(1))
                self.assertGreater(frac, 0)


class NoSourcesTest(unittest.TestCase):

    def test_fails_without_simulator_sources(self):
        # A directory holding only the benchmark: run.py must refuse.
        with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=tmp, stdout=subprocess.PIPE, text=True,
                timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
