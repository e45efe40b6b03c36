"""Checks of the benchmark itself.

    python3 -m unittest bench/selftest.py            # all checks, about 6 minutes
    python3 -m unittest bench.selftest.DeadlineTest  # the fast ones

The file is not named test_*.py, so the package's own pytest run does not
collect it.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import unittest
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SEED = 5

# layer metric -> workloads on which it must be nonzero in a traced run
LAYER_COVERAGE = {
    "linalg.rref_calls": ("check", "solve"),
    "linalg.rref_s": ("check", "solve"),
    "linalg.rref_cells": ("check", "solve"),
    "linalg.rref_nnz": ("check", "solve"),
    "linalg.rref_max_cells": ("check", "solve"),
    "linalg.rref_per_solve": ("check", "solve"),
    "linalg.matmul_calls": ("check", "zoo-cli", "solve"),
    "linalg.matmul_s": ("check", "zoo-cli", "solve"),
    "linalg.matmul_mults": ("check", "zoo-cli", "solve"),
    "linalg.kron_calls": ("check", "zoo-cli", "solve"),
    "linalg.kron_s": ("check", "zoo-cli", "solve"),
    "linalg.kron_cells": ("check", "zoo-cli", "solve"),
    "linalg.add_calls": ("check", "zoo-cli", "solve"),
    "linalg.add_s": ("check", "zoo-cli", "solve"),
    "fields.fp_mul_calls": ("zoo-cli", "check", "solve"),
    "fields.fp_add_calls": ("zoo-cli", "check", "solve"),
    "repcat.tensor_calls": ("zoo-cli", "check"),
    "repcat.tensor_s": ("zoo-cli", "check"),
    "repcat.hom_space_calls": ("zoo-cli", "check"),
    "repcat.hom_space_s": ("zoo-cli", "check"),
    "repcat.module_maps": ("zoo-cli", "check"),
    "qha.make_quasi_hopf_s": ("solve", "zoo-cli"),
    "qha.validate_s": ("solve", "zoo-cli"),
    "qha.mul_vec_calls": ("solve", "zoo-cli"),
    "ayd.check_type_i_s": ("check", "zoo-cli"),
    "ayd.check_type_ii_s": ("check", "zoo-cli"),
    "ayd.quasi_comodule_condition_matrices_s": ("check", "zoo-cli"),
    "ayd.tau_builds": ("check", "solve", "zoo-cli"),
    "ayd.stability_check_s": ("check", "zoo-cli"),
    "ayd.lambda_from_tau_s": ("check", "solve", "zoo-cli"),
    "ayd_solve.linear_space_s": ("solve", "zoo-cli"),
    "ayd_solve.candidates_tried": ("zoo-cli",),
    "ayd_solve.candidates_passed": ("zoo-cli",),
    "ayd_solve.pass_ratio": ("zoo-cli",),
    "dsl.parse_s": ("zoo-cli",),
    "dsl.eval_s": ("zoo-cli",),
    "dsl.eval_calls": ("zoo-cli",),
    "jsonio.load_s": ("zoo-cli", "solve"),
    "jsonio.dump_s": ("zoo-cli",),
    "jsonio.dump_bytes": ("zoo-cli",),
    "cli.main_calls": ("zoo-cli",),
    "cli.main_s": ("zoo-cli",),
    "cli.exit_0": ("zoo-cli",),
    "cli.exit_1": ("zoo-cli",),
    "cli.exit_2": ("zoo-cli",),
    "zoo.build_entry_s": ("check", "solve", "zoo-cli"),
}
# the counts a traced run must repeat exactly
DETERMINISTIC = ("linalg.rref_cells", "linalg.matmul_mults", "repcat.tensor_calls",
                 "ayd_solve.candidates_tried", "fields.fp_mul_calls")


def bench(workload: str, trace: int) -> dict:
    """Run the benchmark in a fresh process; returns its layer lines and result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.splitlines()
    layers, digest = {}, None
    for line in lines:
        parts = line.split()
        if parts[:1] == ["layer"]:
            layers[parts[1]] = float(parts[2])
        elif parts[:2] == ["outputs", "sha256"]:
            digest = parts[2]
    return {"code": proc.returncode, "stderr": proc.stderr, "layers": layers,
            "outputs": digest, "result": json.loads(lines[-1])}


class DeadlineTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.q, _, _ = run.import_qhayd()

    def test_slow_operation_is_stopped_charged_and_the_pass_continues(self):
        q = self.q
        m = q.zoo.build_entry("s3", q.fields.QQ).modules["regular"]
        slow = wl.Op("slow", "linear_space", lambda: q.ayd_solve.linear_space_type_i(m),
                     wl.canon_space, deadline=0.5)
        fast = wl.Op("fast", "convert", lambda: 41 + 1, lambda x: x)
        start = perf_counter()
        results = run.run_pass([slow, fast], {"slow": "never", "fast": "42"}, random.Random(0))
        self.assertLess(perf_counter() - start, 5.0)
        by_id = {r["id"]: r for r in results}
        self.assertEqual(by_id["slow"]["status"], "deadline")
        self.assertEqual(by_id["slow"]["seconds"], 0.5)
        self.assertEqual(by_id["fast"]["status"], "ok")
        self.assertEqual(run.pass_metrics(results)["linear_space_s"], 0.5)

    def test_wrong_output_and_exception_fail(self):
        wrong = wl.Op("wrong", "convert", lambda: 1, lambda x: x)
        boom = wl.Op("boom", "convert", lambda: 1 / 0, lambda x: x)
        self.assertEqual(run.run_op(wrong, {"wrong": "2"})["status"], "mismatch")
        self.assertEqual(run.run_op(boom, {})["status"], "error")

    def test_expected_refusal_is_recorded_as_exit_2(self):
        ops = json.loads(run.EXPECTED.read_text())["ops"]
        for typ in ("I", "II"):
            rec = json.loads(ops[f"qhayd ayd solve --type {typ} --module "
                                 "h4_f5/module_regular.json --json"])
            self.assertEqual(rec["exit"], 2)


class TracedRunTest(unittest.TestCase):
    """Traced and untraced runs of every workload in fresh processes."""

    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for workload in ("check", "solve", "zoo-cli"):
            cls.runs[workload] = [bench(workload, 1), bench(workload, 1), bench(workload, 0)]

    def test_runs_pass(self):
        for workload, runs in self.runs.items():
            for r in runs:
                self.assertEqual(r["code"], 0, f"{workload}: {r['stderr']}")
                self.assertTrue(r["result"]["correct"])
                self.assertEqual(r["result"]["failed"], 0)

    def test_every_layer_metric_is_seen_where_assigned(self):
        for name, workloads in LAYER_COVERAGE.items():
            for workload in workloads:
                value = self.runs[workload][0]["layers"][name]
                self.assertGreater(value, 0, f"{name} on {workload}")

    def test_counts_repeat_exactly(self):
        for workload, (first, second, _) in self.runs.items():
            for name in DETERMINISTIC:
                self.assertEqual(first["layers"][name], second["layers"][name],
                                 f"{name} on {workload}")

    def test_traced_outputs_equal_untraced_outputs(self):
        for workload, (traced, _, untraced) in self.runs.items():
            self.assertIsNotNone(traced["outputs"])
            self.assertEqual(traced["outputs"], untraced["outputs"], workload)


if __name__ == "__main__":
    unittest.main()
