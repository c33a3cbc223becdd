"""The benchmark's own tests.

    python3 -m pytest bench/test_bench.py      (or: python3 -m unittest bench/test_bench.py)

They run every workload at its small size and take about half a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (puts the package source on sys.path)
import workloads  # noqa: E402

# layer -> (workloads that must call it, workloads that must never call it)
BYPASS_TABLE = {
    "polyring.mul": (("certify",), ("oracle",)),
    "polyring.evaluate": (("evaluate",), ("certify", "oracle", "enumerate")),
    "combinatorics.tableaux": (("enumerate",), ("oracle",)),
    "combinatorics.set_partitions": (("oracle",), ("certify", "evaluate", "enumerate")),
    "specht.expand": (("certify",), ("oracle",)),
    "specht.shape_generators": (("certify",), ("oracle",)),
    "groebner.certify": (("certify",), ("evaluate", "enumerate", "oracle")),
    "groebner.buchberger": (("oracle",), ("evaluate", "enumerate")),
    "groebner.normal_form": (("certify", "oracle"), ("evaluate", "enumerate")),
    "groebner.reduce": (("certify", "oracle"), ("evaluate", "enumerate")),
    "groebner.intersection": (("oracle",), ("certify", "evaluate", "enumerate")),
    "strata.oracle": (("oracle",), ("certify", "evaluate", "enumerate")),
    "strata.sample": (("evaluate",), ("certify", "oracle", "enumerate")),
}

CHECKS_RUN = {
    "certify": ("lexgb", "universal", "restricted", "containment", "finite_field", "engine"),
    "evaluate": ("vanishing",),
}


def spec_names(kind: str) -> list[str]:
    return [m["name"] for m in run.load_spec()[kind]]


def traced_run(workload: str, seed: int = 3) -> dict:
    return run.run_workload(workload, seed, 0, 1, size="small")


class TracedRuns(unittest.TestCase):
    """One traced small run of every workload, shared by the tests below."""

    runs: dict = {}

    @classmethod
    def setUpClass(cls):
        cls.runs = {w: traced_run(w) for w in workloads.WORKLOADS}

    def test_seed_code_gives_known_answers(self):
        for workload, result in self.runs.items():
            self.assertGreater(result["attempted"], 0, workload)
            self.assertEqual(result["failed"], 0, (workload, result["provenance"]))

    def test_bypass_table(self):
        for layer, (exercised, bypassed) in BYPASS_TABLE.items():
            for workload in exercised:
                for rec in self.runs[workload]["traced"]:
                    self.assertGreater(rec["layers"][f"{layer}.calls"], 0, (layer, workload))
            for workload in bypassed:
                for rec in self.runs[workload]["traced"]:
                    self.assertEqual(rec["layers"][f"{layer}.calls"], 0, (layer, workload))

    def test_each_check_is_timed_where_it_runs(self):
        checks = [name.split(".")[1] for name in spec_names("per_layer")
                  if name.startswith("verify.")]
        for workload, result in self.runs.items():
            for check in checks:
                value = result["metrics"][f"verify.{check}.s"]
                if check in CHECKS_RUN.get(workload, ()):
                    self.assertGreater(value, 0, (workload, check))
                else:
                    self.assertEqual(value, 0, (workload, check))

    def test_self_times_fit_in_traced_wall(self):
        for workload, result in self.runs.items():
            for rec in result["traced"]:
                self_total = sum(v for k, v in rec["layers"].items() if k.endswith(".self_s"))
                self.assertGreater(self_total, 0, workload)
                self.assertLessEqual(self_total, rec["wall_s"], workload)
            self.assertGreater(result["metrics"]["trace.overhead_ratio"], 0, workload)

    def test_batches_start_cold(self):
        # A warm oracle cache would leave the later batches, or a second run,
        # without intersections; every batch of both runs must count the same.
        again = traced_run("oracle")
        counts = [
            {k: v for k, v in rec["layers"].items() if not k.endswith(("_s", ".s"))}
            for rec in self.runs["oracle"]["traced"] + again["traced"]
        ]
        self.assertGreater(counts[0]["groebner.intersection.calls"], 0)
        for other in counts[1:]:
            self.assertEqual(other, counts[0])

    def test_every_declared_metric_is_measured(self):
        for result in self.runs.values():
            self.assertEqual(set(result["metrics"]), set(spec_names("per_layer")))


class KnownAnswers(unittest.TestCase):
    def test_wrong_hook_count_is_a_failure(self):
        right = workloads.hook_length_count
        with mock.patch.object(workloads, "hook_length_count", lambda shape: right(shape) + 1):
            result = run.run_workload("enumerate", 5, 0, 0, size="small")
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"], result["attempted"])
        self.assertGreater(result["provenance"]["failed_ratio"], 0)

    def test_wrong_oracle_basis_is_a_failure(self):
        truth = workloads.KnownAnswers.oracle_expected

        def drop_first(self, item):
            return truth(self, item)[1:]

        with mock.patch.object(workloads.KnownAnswers, "oracle_expected", drop_first):
            result = run.run_workload("oracle", 5, 0, 0, size="small")
        self.assertGreater(result["failed"], 0)

    def test_hook_length_formula(self):
        self.assertEqual(workloads.hook_length_count((3, 2)), 5)
        self.assertEqual(workloads.hook_length_count((4, 3, 1)), 70)
        self.assertEqual(workloads.hook_length_count((1, 1, 1)), 1)

    def test_every_program_seed_has_a_pinned_hash(self):
        with open(run.SEED_HASHES_PATH, encoding="utf-8") as fh:
            table = json.load(fh)
        for workload in ("certify", "evaluate"):
            self.assertEqual(set(table[workload]),
                             {str(s) for s in range(workloads.PROGRAM_SEEDS)})


class CommandLine(unittest.TestCase):
    def test_last_line_follows_the_contract(self):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "evaluate",
             "--seed", "2", "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=run.REPO_ROOT, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(spec_names("end_to_end")))
        for metric in result["metrics"].values():
            self.assertGreater(metric["value"], 0)
        provenance = json.loads(lines[-2].split(" ", 1)[1])
        self.assertEqual(provenance["determinism_hash_mismatches"], [])
        for key in ("python", "nproc", "commit", "seed"):
            self.assertIn(key, provenance)

    def test_fails_without_the_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(BENCH_DIR, Path(tmp) / "bench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.SPEC_PATH, tmp)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                capture_output=True, text=True, cwd=tmp, timeout=170)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
