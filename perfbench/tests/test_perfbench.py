#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny budgets.

    python3 perfbench/tests/test_perfbench.py

Run from the repository root. The perfbench binary is built through
run.py (into $CARGO_TARGET_DIR, default .bench_build), which also holds
the tests' temporary files, and run with budgets small enough that the
whole file takes well under a minute.
"""

import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.dirname(HERE)
ROOT = os.path.dirname(PKG)
sys.path.insert(0, PKG)
import run  # noqa: E402

WORKLOADS = run.WORKLOADS
TINY = ["--instrs", "3000", "--verify-seeds", "1", "--seconds", "0"]
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

# Per-layer metrics that must do work (be applicable) on each workload,
# and ones that must read 0 there because the layer does no work.
APPLIES = {
    "msp-ladder": ["workload.build_s", "core.msp.run_s", "msp.lcs_recomputes",
                   "pipeline.executed", "lsq.probes"],
    "ref-ladder": ["workload.build_s", "core.baseline.run_s", "core.cpr.run_s",
                   "cpr.checkpoints", "bpred.cond_predicted"],
    "verify-fuzz": ["verify.fuzz_s", "verify.diff_s", "verify.jobs",
                    "verify.commits", "pipeline.cycles"],
}
ABSENT = {
    "msp-ladder": ["verify.fuzz_s", "core.cpr.run_s", "core.baseline.run_s",
                   "cpr.checkpoints", "verify.jobs"],
    "ref-ladder": ["verify.diff_s", "core.msp.run_s", "core.msp.ns_per_cycle",
                   "msp.lcs_recomputes", "verify.jobs"],
    "verify-fuzz": ["workload.build_s", "core.msp.run_s", "pipeline.executed",
                    "lsq.probes", "msp.gate_releases"],
}
HOST_LAYERS = {"workload.build_s", "verify.fuzz_s", "sim.construct_s",
               "sim.construct_faults", "verify.diff_s", "verify.ns_per_commit",
               "driver.report_s", "trace.overhead_frac", "host.minor_faults"}
LEAVES = {"workload.build", "verify.fuzz", "sim.construct", "core.baseline.run",
          "core.cpr.run", "core.msp.run", "verify.diff", "driver.report",
          "calib"}
EXE = None


def setUpModule():
    global EXE
    EXE = run.build()


def is_host_time(name):
    return name in HOST_LAYERS or name.startswith("core.")


class PerfbenchTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp(prefix="perfbench-test-", dir=run.out_base())

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def bench(self, workload, trace, *extra, seed=1):
        """Run the binary; returns (result line, report, spans path, stdout)."""
        stem = os.path.join(self.tmp, f"{workload}-{seed}-{trace}")
        cmd = [EXE, "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--data", PKG, "--out", stem + ".json",
               "--spans", stem + "-spans.json", *TINY, *extra]
        p = subprocess.run(cmd, capture_output=True, text=True)
        self.assertEqual(p.returncode, 0, p.stderr)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        with open(stem + ".json") as f:
            report = json.load(f)
        return result, report, stem + "-spans.json", p.stdout

    def test_every_metric_printed_with_unit(self):
        for w in WORKLOADS:
            for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=w, trace=trace):
                    result, report, _, stdout = self.bench(w, trace)
                    self.assertEqual(set(result),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in listed})
                    for m in listed:
                        got = metrics[m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                        self.assertIn(m["name"], stdout)
                    if trace == 0:
                        for m in listed:
                            self.assertGreater(metrics[m["name"]]["value"], 0, m["name"])
                        continue
                    absent = set(report["not_applicable"])
                    for name in APPLIES[w]:
                        self.assertNotIn(name, absent)
                        self.assertGreater(metrics[name]["value"], 0, name)
                    for name in ABSENT[w]:
                        self.assertIn(name, absent)
                    for name in absent:
                        self.assertEqual(metrics[name]["value"], 0, name)

    def test_spans_nest_and_self_times_are_non_negative(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, report, spans_path, _ = self.bench(w, 1)
                with open(spans_path) as f:
                    spans = json.load(f)["spans"]
                roots = [s for s in spans if s["parent"] == -1]
                self.assertEqual([r["name"] for r in roots], ["run"])
                children = {}
                for s in spans:
                    self.assertEqual(s["id"], spans.index(s))
                    self.assertLessEqual(s["start_ns"], s["end_ns"])
                    if s["parent"] == -1:
                        continue
                    p = spans[s["parent"]]
                    self.assertLess(p["id"], s["id"])
                    self.assertGreaterEqual(s["start_ns"], p["start_ns"])
                    self.assertLessEqual(s["end_ns"], p["end_ns"])
                    children.setdefault(p["id"], []).append(s)
                for s in spans:
                    kids = children.get(s["id"], [])
                    for a, b in zip(kids, kids[1:]):
                        self.assertLessEqual(a["end_ns"], b["start_ns"])
                    covered = sum(k["end_ns"] - k["start_ns"] for k in kids)
                    self.assertEqual(s["self_ns"],
                                     s["end_ns"] - s["start_ns"] - covered)
                    self.assertGreaterEqual(s["self_ns"], 0)
                    if s["name"] in LEAVES:
                        self.assertEqual(kids, [], s["name"])
                    if s["name"] == "job":
                        self.assertTrue(kids)
                        self.assertTrue({k["name"] for k in kids} <= LEAVES)
                traced = sum(1 for s in spans if s["name"] == "pass")
                self.assertGreaterEqual(traced, 1)
                jobs = sum(1 for s in spans if s["name"] == "job")
                self.assertEqual(jobs, traced * report["jobs"])

    def test_timings_are_calibrated_medians(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                result, report, _, _ = self.bench(w, 0, "--seconds", "0.5")
                # The warm-up round runs no slices and is not timed.
                self.assertEqual(report["pass_scale"][0], 1.0)
                rounds = list(zip(report["pass_wall_s"], report["pass_scale"],
                                  report["setup_s"]))[1:]
                self.assertGreaterEqual(len(rounds), 1)
                for row in rounds:
                    for v in row:
                        self.assertGreater(v, 0)
                metrics = result["metrics"]
                wall = statistics.median(w_ * s for w_, s, _ in rounds)
                setup = statistics.median(u for _, _, u in rounds)
                self.assertTrue(math.isclose(metrics["wall_s"]["value"], wall,
                                             rel_tol=1e-5))
                self.assertTrue(math.isclose(metrics["setup_s"]["value"], setup,
                                             rel_tol=1e-5))

    def test_tampered_expectation_is_a_failed_operation(self):
        for w, col in (("ref-ladder", 2), ("verify-fuzz", 3)):
            with self.subTest(workload=w):
                exp = os.path.join(self.tmp, w + ".tsv")
                self.bench(w, 0, "--write-expect", exp)
                result, report, _, _ = self.bench(w, 0, "--expect", exp)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertIn("recorded job outputs", report["expectations"])

                with open(exp) as f:
                    lines = f.read().splitlines()
                fields = lines[3].split("\t")
                fields[col] = ("0" if fields[col] != "0" else "1") * len(fields[col])
                lines[3] = "\t".join(fields)
                with open(exp, "w") as f:
                    f.write("\n".join(lines) + "\n")
                result, report, _, _ = self.bench(w, 0, "--expect", exp)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], report["passes"])
                self.assertEqual(result["attempted"],
                                 report["passes"] * report["jobs"])

    def test_traced_and_untraced_runs_report_identical_counts(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                _, plain, _, _ = self.bench(w, 0)
                _, traced, _, _ = self.bench(w, 1)
                counts = {k: v for k, v in plain["per_layer"].items()
                          if not is_host_time(k)}
                self.assertTrue(counts)
                for k, v in counts.items():
                    self.assertEqual(traced["per_layer"][k], v, k)
                self.assertEqual(plain["end_to_end"]["sim_ipc"],
                                 traced["end_to_end"]["sim_ipc"])

    def test_other_seeds_change_inputs_and_still_check_repeats(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                one, _, _, _ = self.bench(w, 0, seed=1)
                two, report, _, _ = self.bench(w, 0, "--seconds", "0.5", seed=2)
                self.assertTrue(two["correct"])
                self.assertIn("checked for repeats", report["expectations"])
                self.assertNotEqual(one["metrics"]["sim_ipc"]["value"],
                                    two["metrics"]["sim_ipc"]["value"])

    def test_fails_without_the_simulator_sources(self):
        bare = os.path.join(self.tmp, "bare")
        shutil.copytree(PKG, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                            "ref-ladder", "--seed", "1", "--seconds", "1",
                            "--trace", "0"], cwd=bare, env=env,
                           capture_output=True, text=True, timeout=170)
        self.assertNotEqual(p.returncode, 0)
        self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main()
