#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 mipbench/test_bench.py

Each case runs mipbench/run.py for a second or two per workload, so the
whole file takes a few minutes (plus the first build).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("mipbench", "run.py")]
WORKLOADS = ["dashboard", "explore", "analysis"]


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace)] + list(extra),
        cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    notes = [l[2:] for l in lines if l.startswith("# ")]
    return proc.returncode, result, notes


def daemons_alive():
    proc = subprocess.run(["pgrep", "-f", "tools/mip_(worker|gateway)"],
                          capture_output=True, text=True)
    return proc.stdout.split()


class BenchmarkTest(unittest.TestCase):

    def assert_clean(self):
        self.assertEqual(daemons_alive(), [], "a daemon outlived its run")
        scratch = os.path.join(ROOT, ".bench_run")
        self.assertFalse(os.path.isdir(scratch) and os.listdir(scratch),
                         "per-run data outlived its run")

    def test_metric_sets_and_units(self):
        spec = bench_spec()
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            want = {m["name"]: m["unit"] for m in declared}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, result, notes = run(workload, trace=trace)
                    self.assertEqual(code, 0, notes)
                    self.assertTrue(result["correct"], notes)
                    self.assertGreater(result["attempted"], 0)
                    self.assertEqual(result["failed"], 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for name, metric in result["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if trace == 0:
                            self.assertGreater(metric["value"], 0, name)
                    self.assert_clean()

    def test_corrupted_reply_is_flagged(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result, notes = run(workload, extra=["--corrupt-reply"])
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertTrue(any(n.startswith("CHECK FAILED") for n in notes))
                self.assert_clean()

    def test_seed_changes_inputs_not_metric_set(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                runs = [run(workload, seed=seed) for seed in (1, 2)]
                inputs = []
                for code, result, notes in runs:
                    self.assertEqual(code, 0, notes)
                    inputs.append([n for n in notes if n.startswith("inputs:")])
                self.assertEqual(len(inputs[0]), 1)
                self.assertNotEqual(inputs[0], inputs[1])
                self.assertEqual(set(runs[0][1]["metrics"]),
                                 set(runs[1][1]["metrics"]))

    def test_fails_without_the_repository(self):
        # Only BENCHMARK.json and the benchmark's own files: the build must
        # fail and no result may be printed.
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in bench_spec()["paths"]:
                shutil.copytree(os.path.join(ROOT, path),
                                os.path.join(tmp, path))
            env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tmp, ".bench_build"))
            proc = subprocess.run(
                RUN + ["--workload", "dashboard", "--seed", "1", "--seconds",
                       "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
