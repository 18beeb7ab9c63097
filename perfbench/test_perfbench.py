#!/usr/bin/env python3
"""Tests for the benchmark itself. Run from the repository root:

    python3 perfbench/test_perfbench.py

Each workload runs a few times with --seconds 1 (about three minutes in all):
untraced and traced on seed 1, untraced on seed 2, and once with the
--corrupt-oracle hook that doubles every reference value a check uses.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ["speedup", "table1", "ooc", "wide"]


def run(workload, seed, trace, *extra):
    """Runs one workload; returns (details, result) from its last two lines."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1" if trace else "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d failed (%d):\n%s" %
                             (workload, seed, proc.returncode, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            cls.spec = json.load(spec)
        cls.runs = {}
        for workload in WORKLOADS:
            cls.runs[workload] = {
                "plain": run(workload, 1, False),
                "traced": run(workload, 1, True),
                "seed2": run(workload, 2, False),
                "corrupt": run(workload, 1, False, "--corrupt-oracle"),
            }

    def test_workloads_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         WORKLOADS)

    def test_metric_names_and_units_match_benchmark_json(self):
        end_to_end = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        for workload, runs in self.runs.items():
            for kind, expected in (("plain", end_to_end),
                                   ("traced", per_layer)):
                metrics = runs[kind][1]["metrics"]
                printed = {name: m["unit"] for name, m in metrics.items()}
                self.assertEqual(printed, expected, (workload, kind))

    def test_result_line_shape(self):
        for workload, runs in self.runs.items():
            for kind, (_, result) in runs.items():
                self.assertEqual(
                    set(result), {"correct", "attempted", "failed", "metrics"},
                    (workload, kind))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_clean_runs_have_no_failed_operations(self):
        for workload, runs in self.runs.items():
            for kind in ("plain", "traced", "seed2"):
                details, result = runs[kind]
                self.assertTrue(result["correct"], (workload, kind,
                                                    details["failures"]))
                self.assertEqual(result["failed"], 0, (workload, kind))

    def test_wrong_oracle_is_a_failed_operation(self):
        for workload, runs in self.runs.items():
            details, result = runs["corrupt"]
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            self.assertTrue(details["failures"], workload)

    def test_token_steps_and_estimates_repeat_for_a_fixed_seed(self):
        # Separate processes, the second one traced: the same seed gives the
        # same token-step count and bit-identical estimates.
        for workload, runs in self.runs.items():
            plain, traced = runs["plain"][0], runs["traced"][0]
            self.assertEqual(plain["token_steps_per_rep"],
                             traced["token_steps_per_rep"], workload)
            self.assertEqual(plain["digest"], traced["digest"], workload)

    def test_second_seed_changes_the_inputs(self):
        for workload, runs in self.runs.items():
            self.assertNotEqual(runs["plain"][0]["digest"],
                                runs["seed2"][0]["digest"], workload)

    def test_traced_run_reports_its_layers(self):
        expected = {
            "speedup": ["walk.lane_steps_per_s", "mc.efficiency"],
            "table1": ["theory.hmax_s", "linalg.mixing_s",
                       "linalg.mixing_steps"],
            "ooc": ["storage.write_s", "storage.open_s",
                    "storage.extent_loads", "storage.evictions",
                    "storage.bytes_mapped", "walk.block_visits",
                    "walk.horizons", "walk.block_overhead"],
            "wide": ["walk.merges", "walk.shard_tax", "mc.lanes_mode"],
        }
        for workload, names in expected.items():
            details, result = self.runs[workload]["traced"]
            metrics = result["metrics"]
            for name in names + ["graph.build_s", "walk.token_steps",
                                 "mc.trials", "pool.cores_used"]:
                self.assertGreater(metrics[name]["value"], 0,
                                   (workload, name))
            trace_path = os.path.join(ROOT, details["trace_file"])
            with open(trace_path) as trace_file:
                events = json.load(trace_file)["traceEvents"]
            spans = {e["name"] for e in events if e.get("ph") == "X"}
            self.assertIn("rep.layered", spans, workload)
            self.assertIn("setup", spans, workload)
            self.assertTrue(
                os.path.exists(os.path.join(ROOT, details["layers_file"])))

    def test_machine_fingerprint_is_recorded(self):
        details = self.runs["table1"]["plain"][0]
        machine = details["machine"]
        for key in ("nproc", "cpu_model", "l2", "l3", "compiler",
                    "build_type", "mw_native", "loadavg_1m"):
            self.assertIn(key, machine)
        self.assertLessEqual(machine["executors"], machine["nproc"])


if __name__ == "__main__":
    unittest.main()
