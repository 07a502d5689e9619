"""The benchmark's own tests. Run from the root of a checkout:

    python3 perfbench/selftest.py

They use the tiny size of each workload and take about a minute. The file
is named so that the repository's pytest run does not collect it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]
os.chdir(ROOT)  # workloads write their reports under perfbench/out

import metrics  # noqa: E402
import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", ".configs", ".entries", "_ratio", ".largest_table", ".report_bytes")


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_metric_printed_with_its_unit(self):
        for workload in workloads.WORKLOADS:
            for trace, expected in ((0, metrics.END_TO_END), (1, metrics.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = last_json(proc)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(set(result["metrics"]), set(expected))
                    for name, (unit, *_rest) in expected.items():
                        self.assertEqual(result["metrics"][name]["unit"], unit)
                        self.assertRegex(proc.stdout, rf"(?m)^{name}: \S+ {unit}$")
                    self.assertIn("failed_ops_ratio: 0/", proc.stdout)


class ControlTest(unittest.TestCase):
    def test_flipped_control_raises_failed_ops_ratio(self):
        for name, workload in workloads.WORKLOADS.items():
            with self.subTest(workload=name):
                meter = workloads.Meter()
                workload(5, "tiny", flip_controls=True).run_pass(meter)
                self.assertGreater(meter.failed / meter.attempted, 0)


class TraceTest(unittest.TestCase):
    def test_layer_counts_repeat_across_traced_runs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (last_json(run_bench(workload, 1)) for _ in range(2))
                counts = [n for n in metrics.PER_LAYER
                          if n.endswith(COUNT_SUFFIXES) and not n.startswith("trace.")]
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_lists_the_printed_metrics(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]},
            metrics.END_TO_END)
        self.assertEqual({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
                         {k: v[:2] for k, v in metrics.PER_LAYER.items()})

    def test_refuses_to_run_without_the_program(self):
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            bare = Path(tmp)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = run_bench("exact-identities", 0, cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
