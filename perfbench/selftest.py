"""Self-tests of the repo benchmark, at tiny sizes (``--seconds 1``).

    python3 perfbench/selftest.py        # or: python3 -m pytest perfbench/selftest.py

Checks that every run prints every metric BENCHMARK.json names, with its
unit; that the count metrics repeat exactly across two traced runs of one
seed; and that a perturbed executor output, a changed committed science
digest and a changed per-seed digest each fail the science check.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as driver  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(driver.ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

#: Counts that must repeat exactly across two traced runs of one seed.
EXACT_COUNTS = ("hepdata.events", "cache.hits", "scheduler.tasks", "storage.persist_files",
                "storage.puts", "history.events", "service.submits")


def bench(workload: str, seed: int, trace: int):
    """One tiny benchmark run through the real command line."""
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=False,
    )
    if completed.returncode != 0:
        raise AssertionError(completed.stdout + completed.stderr)
    return json.loads(completed.stdout.splitlines()[-1]), completed.stdout


class TestWorkloads(unittest.TestCase):
    def check_workload(self, workload: str) -> None:
        expected = {
            0: {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]},
            1: {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]},
        }
        traced = []
        for trace in (0, 1, 1):
            result, stdout = bench(workload, 5, trace)
            self.assertTrue(result["correct"], stdout)
            self.assertEqual(result["failed"], 0, stdout)
            self.assertGreater(result["attempted"], 0)
            units = {name: metric["unit"] for name, metric in result["metrics"].items()}
            self.assertEqual(units, expected[trace])
            for name, unit in units.items():
                self.assertIn(f"  {name} = ", stdout)
                self.assertRegex(stdout, rf"  {name} = \S+ {unit}\n")
            if trace:
                traced.append(result["metrics"])
        for name in EXACT_COUNTS:
            self.assertEqual(traced[0][name]["value"], traced[1][name]["value"], name)

    def test_matrix(self):
        self.check_workload("matrix")

    def test_service(self):
        self.check_workload("service")

    def test_nightly(self):
        self.check_workload("nightly")


class TestDigestCheck(unittest.TestCase):
    """The science checks, on one in-process matrix round (every cell once)."""

    def setUp(self):
        work = tempfile.TemporaryDirectory()
        self.addCleanup(work.cleanup)
        self.work = work.name
        patch = mock.patch.object(driver, "WORK", self.work)
        patch.start()
        self.addCleanup(patch.stop)

    def run_matrix(self):
        return workloads.run("matrix", 7, 1, os.path.join(self.work, "run"))

    def test_unperturbed_run_passes(self):
        self.assertEqual(driver.check("matrix", 7, 1, [self.run_matrix()]), [])

    def test_changed_committed_science_trips_the_check(self):
        science = dict(driver.committed_science()["matrix"])
        science["ZEUS/SL6_64bit_gcc4.4"] = "0" * 64
        problems = driver.check("matrix", 7, 1, [self.run_matrix()], science)
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("ZEUS/SL6_64bit_gcc4.4", problems[0])

    def test_changed_seed_digest_trips_the_check(self):
        result = self.run_matrix()
        self.assertEqual(driver.check("matrix", 7, 1, [result]), [])
        with open(os.path.join(self.work, "digests", "matrix-7-1.txt"), "w",
                  encoding="utf-8") as handle:
            handle.write("0" * 64 + "\n")
        problems = driver.check("matrix", 7, 1, [result])
        self.assertEqual(len(problems), 1, problems)
        self.assertIn("earlier run of this seed", problems[0])

    def test_perturbed_executor_output_trips_the_digest_check(self):
        from repro.hepdata.simulation import DetectorSimulation

        simulate = DetectorSimulation.simulate

        def perturbed(self, record, seed=2):
            return simulate(self, record, seed=seed + 1)

        with mock.patch.object(DetectorSimulation, "simulate", perturbed):
            result = self.run_matrix()
        problems = driver.check("matrix", 7, 1, [result])
        self.assertTrue(any("science.json" in problem for problem in problems), problems)
        self.assertTrue(any("simulated replay" in problem for problem in problems), problems)


if __name__ == "__main__":
    unittest.main()
