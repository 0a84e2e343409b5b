"""Tests of the benchmark harness itself, including its negative controls.

Run from the checkout root:  python3 bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

CHEAP = ["coproduct", "--tree", "v(v(.))"]


class SampleVerification(unittest.TestCase):
    def cheap_digest(self) -> str:
        result = run.Runner().run(run.cli_argv({"argv": CHEAP, "seeded": False}, 0))
        self.assertEqual(result.exit, 0)
        return hashlib.sha256(result.stdout).hexdigest()

    def test_recorded_digest_passes_every_sample(self):
        spec = {"argv": CHEAP, "seeded": False, "sha256": self.cheap_digest()}
        samples = run.sample_cli(run.Runner(), spec, 0, 1.0)
        self.assertGreaterEqual(len(samples), 2)
        self.assertTrue(all(s["ok"] for s in samples))

    def test_wrong_digest_fails_every_sample(self):
        wrong = hashlib.sha256(b"not the output").hexdigest()
        spec = {"argv": CHEAP, "seeded": False, "sha256": wrong}
        samples = run.sample_cli(run.Runner(), spec, 0, 1.0)
        self.assertGreaterEqual(len(samples), 2)
        self.assertFalse(any(s["ok"] for s in samples))
        self.assertTrue(all(s["why"].startswith("sha256") for s in samples))

    def test_suite_lines(self):
        spec = {"sha256": None, "suites": 2}
        good = b"a: PASS (3 checks)\nb: PASS (1 checks)\nsuites failed: 0\n"
        self.assertEqual(run.verify_output(spec, good), "")
        for bad in (
            b"a: PASS (3 checks)\nb: FAIL (1 checks)\nsuites failed: 0\n",
            b"a: PASS (3 checks)\nsuites failed: 0\n",
            b"a: PASS (3 checks)\nb: PASS (1 checks)\nsuites failed: 1\n",
            b"",
        ):
            self.assertNotEqual(run.verify_output(spec, bad), "", bad)

    def test_nonzero_exit_and_timeout_fail(self):
        runner = run.Runner()
        failed = runner.run([sys.executable, "-c", "raise SystemExit(3)"])
        self.assertEqual(run.exit_failure(failed), "exit code 3")
        child = run.Child([sys.executable, "-c", "import time; time.sleep(30)"],
                          runner.env, timeout=0.5)
        result = child.wait()
        self.assertIsNone(result.exit)
        self.assertLess(result.wall_s, 10)
        self.assertEqual(run.exit_failure(result), "timed out")


class SpeedProbes(unittest.TestCase):
    def test_calibrated_runner_pins_probes_and_scales(self):
        before = os.sched_getaffinity(0)
        runner = run.Runner(calibrated=True)
        try:
            self.assertEqual(len(os.sched_getaffinity(0)), 1)
            result = runner.run([sys.executable, "-c", "import time; time.sleep(0.5)"])
        finally:
            runner.release()
        self.assertEqual(os.sched_getaffinity(0), before)
        self.assertEqual(result.exit, 0)
        self.assertLess(result.wall_s, 1.5)
        self.assertGreaterEqual(len(result.probes), 5)
        sample = run.record(result, True, "")
        self.assertEqual(sample["probes"], len(result.probes))
        self.assertAlmostEqual(
            sample["scaled_s"],
            (result.wall_s - sum(result.probes)) * run.PROBE_NOMINAL_S
            / statistics.mean(result.probes),
        )

    def test_uncalibrated_runner_takes_no_probes(self):
        result = run.Runner().run([sys.executable, "-c", "pass"])
        self.assertIsNone(result.probes)
        self.assertNotIn("scaled_s", run.record(result, True, ""))


class CountComparison(unittest.TestCase):
    def test_unrepeated_counts_are_reported(self):
        first = {"a": 1, "b": 2, "c": 5}
        second = {"a": 1, "b": 3, "d": 4}
        self.assertEqual(
            run.compare_counts(first, second),
            {"b": [2, 3], "c": [5, None], "d": [None, 4]},
        )
        self.assertEqual(run.compare_counts(first, dict(first)), {})


class Definitions(unittest.TestCase):
    def test_benchmark_json_lists_the_metrics_the_harness_reports(self):
        with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            bench = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in bench["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in bench["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.load_workloads()))


class WithoutSources(unittest.TestCase):
    def test_fails_without_the_program(self):
        run.RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(run.HERE, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "check-all",
                 "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, b"")


if __name__ == "__main__":
    unittest.main()
