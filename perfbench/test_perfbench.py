#!/usr/bin/env python3
"""The benchmark's own tests, in smoke mode (tiny sizes, a few seconds).

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Checks that every workload runs once with and without tracing, that its
metric names and units match BENCHMARK.json, that one corrupted output
byte fails the output check, and that the benchmark refuses to run in a
directory that holds only BENCHMARK.json and perfbench/.
"""

import json
import math
import re
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


class BenchmarkJson(unittest.TestCase):
    def test_contract_shape(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        self.assertTrue(1 <= SPEC["run_seconds"] <= 60)
        names = [w["name"] for w in SPEC["workloads"]]
        for group in ("end_to_end", "per_layer"):
            names += [m["name"] for m in SPEC[group]]
        self.assertEqual(len(names), len(set(names)))
        for n in names:
            self.assertRegex(n, NAME)
        for m in SPEC["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertRegex(m["unit"], UNIT)
        for m in SPEC["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))


class Smoke(unittest.TestCase):
    def check_run(self, workload, trace):
        """Runs one smoke run; returns its result's metrics."""
        proc = run_bench("--workload", workload, "--seed", "5", "--seconds",
                         "2", "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        res = result_of(proc)
        self.assertIsNotNone(res, proc.stdout)
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        expected = SPEC["per_layer" if trace else "end_to_end"]
        self.assertEqual(list(res["metrics"]), [m["name"] for m in expected])
        for m in expected:
            got = res["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
            if not trace:
                self.assertNotEqual(got["value"], 0, m["name"])
        return res["metrics"]

    def test_every_workload(self):
        measured = set()
        for w in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=w["name"], trace=trace):
                    metrics = self.check_run(w["name"], trace)
                    if trace:
                        measured |= {k for k, v in metrics.items() if v["value"]}
        # Every layer metric is measured by some workload (a name the
        # binary never emits would read 0 everywhere). Failed writes are
        # the exception: 0 is their only correct value.
        never = {m["name"] for m in SPEC["per_layer"]} - measured
        self.assertEqual(never, {"core.write_fail_pct"})


class OutputCheck(unittest.TestCase):
    def check_fails(self, workload, how):
        proc = run_bench("--workload", workload, "--seed", "5", "--seconds",
                         "2", "--trace", "0", "--smoke", "--corrupt", how)
        self.assertNotEqual(proc.returncode, 0, proc.stdout)
        res = result_of(proc)
        self.assertIsNotNone(res, proc.stdout)
        self.assertFalse(res["correct"])
        self.assertIn("CHECK FAILED", proc.stdout)

    def test_corrupt_output_file_byte(self):
        self.check_fails("ckpt_burst", "file")

    def test_corrupt_read_back_byte(self):
        self.check_fails("insitu_blocks", "data")

    def test_corrupt_simulated_result(self):
        self.check_fails("sim_kraken", "data")


class BareDirectory(unittest.TestCase):
    def test_refuses_without_sources(self):
        bare = ROOT / ".bench_build" / "bare-test"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / BENCH.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("--workload", "sim_kraken", "--seed", "1",
                             "--seconds", "2", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertIsNone(result_of(proc), proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main(verbosity=2)
