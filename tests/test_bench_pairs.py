"""tools/bench_pairs.py: the run plan its dry run prints, and the summary
it writes from pairs of runs."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_dry_run_plans_every_benchmark_workload_alternating_sides_and_directories():
    """Each workload of BENCHMARK.json gets the same pairs: the first side
    alternates every pair and the directories swap every second pair."""
    done = subprocess.run([sys.executable, str(TOOL), "--parent", "HEAD~1", "--change", "HEAD",
                           "--seeds", "901-904", "--out", "unwritten.json", "--dry-run"],
                          capture_output=True, text=True, check=True, cwd=ROOT)
    rows = [line.split("\t") for line in done.stdout.splitlines()]
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    pairs = [("seed 901", "parent", "HEAD~1", "d1"), ("seed 901", "change", "HEAD", "d2"),
             ("seed 902", "change", "HEAD", "d2"), ("seed 902", "parent", "HEAD~1", "d1"),
             ("seed 903", "parent", "HEAD~1", "d2"), ("seed 903", "change", "HEAD", "d1"),
             ("seed 904", "change", "HEAD", "d1"), ("seed 904", "parent", "HEAD~1", "d2")]
    assert [(r[0], r[2], r[3], r[4], r[5]) for r in rows] == [
        (w, *run) for w in workloads for run in pairs]
    assert done.stderr == "" and not (ROOT / "unwritten.json").exists()


def test_summary_counts_wins_bounds_and_the_claim():
    tool = load_tool()
    metrics = [{"name": "run_s", "better": "lower", "bound": 0.25},
               {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}]
    pairs = {"w": [{"seed": s, "parent": {"run_s": 1.0 + s / 100, "peak_rss_mb": 20.0, "failed": 0},
                    "change": {"run_s": 0.8 + s / 100, "peak_rss_mb": 21.5, "failed": 0}}
                   for s in range(10)]}
    out = tool.analyse(pairs, metrics, ("w", "run_s", 0.08))
    assert out["change_wins_per_metric"]["w"] == {"run_s": 10, "peak_rss_mb": 0}
    assert out["regression_check"]["w"] == {"run_s": -19.14, "peak_rss_mb": 7.5}
    assert out["regressions_beyond_bound"] == [
        {"workload": "w", "metric": "peak_rss_mb", "percent": 7.5, "bound_percent": 5.0}]
    assert out["claimed_gain"]["met"] and out["claimed_gain"]["change_wins"] == 10
    assert not tool.analyse(pairs, metrics, ("w", "run_s", 0.25))["claimed_gain"]["met"]


def test_a_dry_run_into_a_closed_pipe_exits_0_without_a_traceback():
    """``--dry-run | head``: the reader closes the pipe after one line, while
    the plan (3 workloads x 2 x 4000 lines) is far longer than a pipe holds."""
    run = subprocess.Popen([sys.executable, str(TOOL), "--parent", "HEAD~1", "--change", "HEAD",
                            "--seeds", "1-4000", "--out", "unwritten.json", "--dry-run"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
    assert run.stdout.readline().startswith(b"exact-identities\tpair 0")
    run.stdout.close()
    stderr = run.stderr.read().decode()
    assert run.wait() == 0 and stderr == ""  # no BrokenPipeError traceback
