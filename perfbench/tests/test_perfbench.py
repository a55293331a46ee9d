#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds perfbench through run.py, then checks on short runs that
  * the TimedBackend decorators forward every call (--selftest) and the
    decorated stack issues exactly the bare stack's deterministic counts;
  * latency percentiles are taken over every measured operation;
  * the traced ledger closes: layer self times plus the harness remainder
    add up to the measured wall time;
  * only wall time is reported: no simulated-clock or credited figure is
    read by the sources or appears in the output;
  * no nexusd process or scratch directory outlives a run, including a
    run whose oracle check fails;
  * compare.py fails on a changed deterministic count;
  * in a directory holding only BENCHMARK.json and perfbench/, the
    benchmark exits non-zero without printing a result.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PB = os.path.dirname(HERE)
ROOT = os.path.dirname(PB)
sys.path.insert(0, PB)
import run as runner  # noqa: E402

WORKLOADS = ("bulk", "churn", "scan")
SEED = 7
RESULTS = os.path.join(ROOT, ".bench_out", "results")

# Reads that would mix simulated or credited time into a wall-time figure.
FORBIDDEN_SOURCE = [
    r"enclave_seconds", r"io_seconds", r"saved_seconds", r"critical_path",
    r"TakeParallelSavedSeconds", r"\bProfile\(\)", r"\.Now\(\)", r"\.Account\(",
    r"PercentileMs", r"ecall:",
]
FORBIDDEN_OUTPUT = re.compile(r"enclave_seconds|io_seconds|saved|critical_path|sim_|modeled")


def bench(workload, trace, seed=SEED, seconds=1, extra=()):
    cmd = [sys.executable, os.path.join(PB, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    path = os.path.join(RESULTS, f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as f:
        full = json.load(f)
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc, summary, full


class PerfbenchTest(unittest.TestCase):
    runs = {}

    @classmethod
    def setUpClass(cls):
        if not runner.build(runner.build_dir()):
            raise RuntimeError("perfbench build failed")
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = bench(w, trace)

    def test_selftest(self):
        binary = os.path.join(runner.build_dir(), "perfbench")
        proc = subprocess.run([binary, "--selftest"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)

    def test_runs_are_correct(self):
        for (w, trace), (proc, summary, full) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.assertTrue(summary["correct"])
                self.assertEqual(summary["failed"], 0)
                self.assertEqual(set(summary), {"correct", "attempted", "failed", "metrics"})

    def test_percentiles_cover_every_sample(self):
        for w in WORKLOADS:
            full = self.runs[(w, 0)][2]
            with self.subTest(workload=w):
                for name in ("mutate_p50_ms", "mutate_p99_ms"):
                    self.assertEqual(full["percentiles"][name]["samples"],
                                     full["counts"]["ops.mutations"])

    def test_decorated_stack_matches_bare(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                traced = self.runs[(w, 1)][2]
                bare = self.runs[(w, 0)][2]
                # Inside the traced run: bare stack vs decorated stack.
                self.assertEqual(traced["metrics"]["trace.count_mismatches"]["value"], 0,
                                 traced["problems"])
                # Across runs: untraced run vs traced run, same seed.
                self.assertEqual(bare["counts"], traced["counts"])
                self.assertGreater(traced["counts"]["afs.rpcs"], 0)

    def test_layers_that_must_be_idle(self):
        for w in WORKLOADS:
            m = self.runs[(w, 1)][2]["metrics"]
            with self.subTest(workload=w):
                if w != "scan":
                    self.assertEqual(m["cluster.quorum_reads"]["value"], 0)
                    self.assertEqual(m["cluster.self_s"]["value"], 0)
                else:
                    self.assertGreater(m["cluster.quorum_reads"]["value"], 0)
                if w == "bulk":
                    self.assertEqual(m["cache.self_s"]["value"], 0)
                    self.assertGreater(m["parallel.chunks_encrypted"]["value"], 0)
                else:
                    self.assertGreater(m["cache.hit_ratio"]["value"], 0)
                if w == "churn":
                    self.assertGreater(m["net.server.leases_granted"]["value"], 0)

    def test_ledger_closes(self):
        for w in WORKLOADS:
            m = {k: v["value"] for k, v in self.runs[(w, 1)][2]["metrics"].items()}
            with self.subTest(workload=w):
                layers = (m["core.self_s"] + m["storage.self_s"] + m["cache.self_s"] +
                          m["cluster.self_s"] + m["net.client.busy_s"])
                self.assertAlmostEqual(layers + m["bench.self_s"], m["ledger.wall_s"], delta=1e-6)
                self.assertLess(abs(layers - m["ledger.wall_s"]) / m["ledger.wall_s"], 0.05)

    def test_wall_time_only(self):
        for path in glob.glob(os.path.join(PB, "src", "*")):
            with open(path) as f:
                text = f.read()
            for pattern in FORBIDDEN_SOURCE:
                with self.subTest(file=os.path.basename(path), pattern=pattern):
                    self.assertIsNone(re.search(pattern, text))
        for (w, trace), (_, _, full) in self.runs.items():
            for name in list(full["metrics"]) + list(full["counts"]):
                with self.subTest(workload=w, trace=trace, name=name):
                    self.assertIsNone(FORBIDDEN_OUTPUT.search(name))

    def test_zz_no_leftovers_even_after_a_failed_check(self):
        proc, summary, full = bench("churn", 0, extra=("--inject-mismatch",))
        self.assertNotEqual(proc.returncode, 0)
        self.assertFalse(summary["correct"])
        fulls = [r[2] for r in self.runs.values()] + [full]
        for doc in fulls:
            for pid in doc["daemon_pids"]:
                self.assertFalse(os.path.exists(f"/proc/{pid}/cmdline") and
                                 b"nexusd" in open(f"/proc/{pid}/cmdline", "rb").read(),
                                 f"nexusd {pid} still running")
            for d in doc["scratch_dirs"]:
                self.assertFalse(os.path.exists(d), d)
        self.assertEqual(os.listdir(os.path.join(ROOT, ".bench_out", "tmp")), [])

    def test_compare_tool(self):
        with tempfile.TemporaryDirectory() as tmp:
            old, new = os.path.join(tmp, "old"), os.path.join(tmp, "new")
            os.makedirs(old)
            for (w, trace), (_, _, full) in self.runs.items():
                with open(os.path.join(old, f"{w}-{trace}.json"), "w") as f:
                    json.dump(full, f)
            shutil.copytree(old, new)
            compare = [sys.executable, os.path.join(PB, "compare.py"), old, new]
            same = subprocess.run(compare, capture_output=True, text=True)
            self.assertEqual(same.returncode, 0, same.stdout)
            path = os.path.join(new, "churn-0.json")
            with open(path) as f:
                doc = json.load(f)
            doc["counts"]["journal.records"] += 1
            with open(path, "w") as f:
                json.dump(doc, f)
            changed = subprocess.run(compare, capture_output=True, text=True)
            self.assertEqual(changed.returncode, 1, changed.stdout)
            self.assertIn("journal.records", changed.stdout)

    def test_bare_directory_fails_without_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(PB, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "churn", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
