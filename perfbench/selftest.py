"""The benchmark's own tests: toy-size runs, metric names, the checker.

Run from the root of a checkout::

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py

The file is deliberately not named ``test_*.py`` so the repository's
own test run does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import workloads  # noqa: E402
from perfbench.reference import ReferenceChecker, check  # noqa: E402
from perfbench.workloads import Read, Write  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(completed: subprocess.CompletedProcess) -> dict:
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


class ToyRuns(unittest.TestCase):
    """Every workload end to end at toy size, untraced and traced."""

    def check_result(self, result: dict, declared: list) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: entry["unit"] for name, entry in result["metrics"].items()},
            {entry["name"]: entry["unit"] for entry in declared},
        )
        for entry in result["metrics"].values():
            self.assertIsInstance(entry["value"], float)

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run_benchmark(
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "0", "--toy",
                ))
                self.check_result(result, SPEC["end_to_end"])
                for entry in result["metrics"].values():
                    self.assertGreater(entry["value"], 0)

    def test_traced_runs_emit_every_per_layer_metric(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                result = result_of(run_benchmark(
                    "--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "1", "--toy",
                ))
                self.check_result(result, SPEC["per_layer"])

    def test_fails_without_program_sources(self):
        bare = ROOT / ".perfbench_run" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, bare / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            completed = run_benchmark(
                "--workload", "warm-http", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=bare,
            )
            self.assertNotEqual(completed.returncode, 0)
            self.assertNotIn('"metrics"', completed.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


def exact_replies(workload, ops):
    """Replies a correct server would send, built from the reference."""
    checker = ReferenceChecker(workload)
    for op in ops:
        if isinstance(op, Write):
            checker.apply(op)
        else:
            checker.read(op)
    values = iter(checker.values())
    replies = []
    for op in ops:
        if isinstance(op, Write):
            replies.append((200, b'{"ok": true}'))
            continue
        exact = next(values)
        if workload.shapes[op.shape].route == "/evaluate":
            body = {"probability": exact.get((), 0.0)}
        else:
            ranked = sorted(exact.items(), key=lambda item: -item[1])
            body = {"answers": [{"answer": list(answer), "probability": p}
                                for answer, p in ranked]}
        replies.append((200, json.dumps(body).encode()))
    return replies


class Checker(unittest.TestCase):
    """The answer checker accepts right replies and flags wrong ones."""

    def setUp(self):
        self.workload = workloads.build("hard-drift", 5, toy=True, max_ops=400)
        self.ops = workloads.setup_reads(self.workload) + self.workload.ops
        self.replies = exact_replies(self.workload, self.ops)

    def read_index(self, shape: int) -> int:
        return next(index for index, op in enumerate(self.ops)
                    if isinstance(op, Read) and op.shape == shape
                    and index > len(self.ops) // 2)

    def test_exact_replies_pass(self):
        self.assertEqual(check(self.workload, self.ops, self.replies),
                         [None] * len(self.ops))

    def test_corrupted_reply_is_a_failed_operation(self):
        index = self.read_index(0)
        replies = list(self.replies)
        value = json.loads(replies[index][1])["probability"]
        replies[index] = (200, json.dumps({"probability": value + 1e-6}).encode())
        verdicts = check(self.workload, self.ops, replies)
        self.assertIsNotNone(verdicts[index])
        self.assertEqual(sum(v is not None for v in verdicts), 1)

    def test_corrupted_answers_reply_is_a_failed_operation(self):
        index = self.read_index(1)
        replies = list(self.replies)
        body = json.loads(replies[index][1])
        body["answers"] = body["answers"][1:]
        replies[index] = (200, json.dumps(body).encode())
        self.assertIsNotNone(check(self.workload, self.ops, replies)[index])

    def test_monte_carlo_reads_use_the_stated_tolerance(self):
        index = self.read_index(2)
        self.assertFalse(self.workload.shapes[2].exact)
        value = json.loads(self.replies[index][1])["probability"]
        for shift, ok in ((0.5 * workloads.MC_TOLERANCE, True),
                          (1.5 * workloads.MC_TOLERANCE, False)):
            replies = list(self.replies)
            replies[index] = (200, json.dumps(
                {"probability": value - shift}).encode())
            verdict = check(self.workload, self.ops, replies)[index]
            self.assertEqual(verdict is None, ok, verdict)

    def test_error_status_is_a_failed_operation(self):
        replies = list(self.replies)
        replies[0] = (503, b'{"error": "overloaded"}')
        replies[1] = (0, b"")
        verdicts = check(self.workload, self.ops, replies)
        self.assertIsNotNone(verdicts[0])
        self.assertIsNotNone(verdicts[1])

    def test_tolerance_is_stated_in_benchmark_json(self):
        why = next(entry["why"] for entry in SPEC["workloads"]
                   if entry["name"] == "hard-drift")
        self.assertIn(f"±{workloads.MC_TOLERANCE}", why)


class Inputs(unittest.TestCase):

    def test_design_record_matches_the_generators(self):
        design = json.loads((ROOT / "perfbench" / "design.json").read_text())
        for name in workloads.WORKLOADS:
            size = workloads.build(name, 1, max_ops=10).size
            for key, stated in design["workloads"][name]["size"].items():
                if not isinstance(stated, str):
                    actual = size["tuples"].get(key, size.get(key))
                    self.assertEqual(actual, stated, (name, key))

    def test_same_seed_same_inputs(self):
        for name in workloads.WORKLOADS:
            a = workloads.build(name, 7, max_ops=500)
            b = workloads.build(name, 7, max_ops=500)
            c = workloads.build(name, 8, max_ops=500)
            self.assertEqual((a.db, a.shapes, a.ops), (b.db, b.shapes, b.ops))
            self.assertNotEqual((a.db, a.ops), (c.db, c.ops))

    def test_boolean_answers_stay_away_from_0_and_1(self):
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 1, max_ops=10)
            checker = ReferenceChecker(workload)
            for op in workloads.setup_reads(workload):
                checker.read(op)
            for op, exact in zip(workloads.setup_reads(workload),
                                 checker.values()):
                if workload.shapes[op.shape].route == "/evaluate":
                    self.assertTrue(0.05 < exact[()] < 0.95, (name, exact))

    def test_hard_drift_shapes_sit_on_either_side_of_the_budget(self):
        """The compiled shape fits 10k nodes even with every reserve
        tuple inserted; the Monte Carlo shape never does."""
        from repro.core.parser import parse
        from repro.db.database import ProbabilisticDatabase
        from repro.engines.base import UnsupportedQueryError
        from repro.engines.compiled import CompiledEngine

        engine = CompiledEngine(max_nodes=10_000)
        for seed in (1, 2, 3):
            workload = workloads.build("hard-drift", seed, max_ops=20_000)
            db = ProbabilisticDatabase()
            for relation, rows in workload.db.items():
                for row, p in rows.items():
                    db.add(relation, row, p)
            for op in workload.ops:
                if isinstance(op, Write) and op.kind == "insert":
                    db.add(op.relation, op.row, op.probability)
            compiled, sampled = workload.shapes[0], workload.shapes[2]
            engine.probability(parse(compiled.text), db)
            with self.assertRaises(UnsupportedQueryError):
                engine.probability(parse(sampled.text), db)


if __name__ == "__main__":
    unittest.main()
