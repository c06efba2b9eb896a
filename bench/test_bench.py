"""Tests of the benchmark itself (standard library only).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))

import generate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def job_names(workload: str, seed: int) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        return [job.name for job in generate.make_jobs(workload, seed, Path(tmp))]


class SmokeTest(unittest.TestCase):
    """Every workload runs briefly, end to end and traced, and reports every declared metric."""

    def run_bench(self, workload: str, trace: int) -> dict:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.3", "--trace", str(trace)])
        self.assertEqual(code, 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_each_workload(self):
        spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(generate.WORKLOADS))
        for workload in generate.WORKLOADS:
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared},
                    )


class SeedTest(unittest.TestCase):
    def test_same_seed_same_jobs_other_seed_other_jobs(self):
        for workload in generate.WORKLOADS:
            with self.subTest(workload=workload):
                first = job_names(workload, 3)
                self.assertEqual(first, job_names(workload, 3))
                self.assertNotEqual(first, job_names(workload, 4))


class CorruptionTest(unittest.TestCase):
    """A wrong result is counted as a failed operation, once per execution of its job."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.lib, cls.jobs, _, _ = run.set_up("tape-growth", 5, Path(cls.tmp.name))

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def first_of(self, kind: str) -> int:
        return next(i for i, job in enumerate(self.jobs) if job.kind == kind)

    def verify(self, index: int, result, executions: int = 2) -> list[str]:
        loop = run.LoopRun(order=[index] * executions, first={index: result})
        return run.verify(self.lib, self.jobs, loop)[1]

    def test_correct_result_passes(self):
        index = self.first_of("run")
        self.assertEqual(self.verify(index, workloads.execute(self.lib, self.jobs[index])), [])

    def test_wrong_halt_step_count_fails(self):
        index = self.first_of("run")
        outcome, confirm = workloads.execute(self.lib, self.jobs[index])
        bad = self.lib.machine.BudgetExceeded(self.jobs[index].params["budget"] + 1)
        self.assertEqual(len(self.verify(index, (bad, confirm))), 2)

    def test_wrong_naive_confirmation_fails(self):
        index = self.first_of("run")
        outcome, confirm = workloads.execute(self.lib, self.jobs[index])
        self.assertEqual(len(self.verify(index, (outcome, self.lib.machine.Halted(0, self.jobs[index].params["start"])))), 2)

    def test_edited_gu_stdout_fails(self):
        index = self.first_of("gu")
        code, text = workloads.execute(self.lib, self.jobs[index])
        self.assertEqual(len(self.verify(index, (code, text.replace('"step": 1,', '"step": 2,', 1) + "\n"))), 2)

    def test_corrupted_probe_part_fails(self):
        index = self.first_of("probe")
        parts = workloads.execute(self.lib, self.jobs[index])
        beta_at = next(i for i, job in enumerate(self.jobs[index].params["jobs"]) if job.kind == "beta")
        dist = parts[beta_at]
        parts[beta_at] = dataclasses.replace(dist, total=dist.total + 1)
        self.assertEqual(len(self.verify(index, parts, executions=3)), 3)

    def test_result_that_changes_between_executions_fails(self):
        index = self.first_of("run")
        outcome, confirm = workloads.execute(self.lib, self.jobs[index])
        loop = run.LoopRun()
        loop.first[index] = (self.lib.machine.BudgetExceeded(10**9), confirm)
        run.run_job(self.lib, self.jobs[index], index, loop)
        self.assertEqual(len(loop.failed), 1)


class CoverageTest(unittest.TestCase):
    """Godelsim time reached other than through a wrapped entry point fails the traced run."""

    def test_unwrapped_entry_point_fails(self):
        rows = tuple(row for row in tracing.ENTRY_POINTS if row[1] != "run_with_loop_detection")
        self.assertEqual(len(rows), len(tracing.ENTRY_POINTS) - 1)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(tracing, "ENTRY_POINTS", rows), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run.main(["--workload", "tape-growth", "--seed", "7", "--seconds", "1", "--trace", "1"])
        self.assertEqual(code, 0)
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertIn("outside them exceeds the allowance", err.getvalue())


if __name__ == "__main__":
    unittest.main()
