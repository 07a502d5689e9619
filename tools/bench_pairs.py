"""Alternating parent/change benchmark pairs from fresh git archives.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent REV --change REV --seeds 901-910 \\
        --out BENCH_N.json [--claim WORKLOAD:METRIC:FRACTION] [--dry-run]

For each workload of BENCHMARK.json and each seed it runs
``perfbench/run.py --trace 0`` once on each revision, a pair, for the
``run_seconds`` that BENCHMARK.json sets. Every run starts from a fresh
``git archive`` of its revision, extracted anew into one of two
directories, d1 and d2, of a new temporary directory (``TMPDIR`` sets
where), and runs with PYTHONDONTWRITEBYTECODE=1, so no
run reads bytecode or output that another left. The parent runs first in
even pairs and the change in odd ones; the parent sits in d1 in pairs 0,
1, 4, 5, 8, 9 and in d2 in the others, so neither the order nor the
directory favours one side.

The result goes to ``--out`` after every pair: the pairs, the median and
quartiles of each end-to-end metric of BENCHMARK.json per side, the
change's wins per metric, the change of each median in percent, and the
metrics that moved past their bound in the worse direction. A claim
``WORKLOAD:METRIC:FRACTION`` adds ``claimed_gain``: it is met when the
change's median is better by at least FRACTION, the change wins at least
nine pairs in ten, and the medians differ by more than the parent's
interquartile range. Keys of an existing ``--out`` file that this run does
not write are kept. ``--dry-run`` prints the runs in order and runs
nothing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list:
    """``901-910`` or ``901,903,905``."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def plan(workloads: list, seeds: list) -> list:
    """(workload, pair index, seed, side, directory) for every run, in order."""
    runs = []
    for workload in workloads:
        for i, seed in enumerate(seeds):
            parent_dir = "d1" if i // 2 % 2 == 0 else "d2"
            dirs = {"parent": parent_dir, "change": "d2" if parent_dir == "d1" else "d1"}
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                runs.append((workload, i, seed, side, dirs[side]))
    return runs


def archive(rev: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                          check=True, capture_output=True).stdout


def run_once(tar: bytes, where: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run from a fresh extraction: the last line of run.py's output."""
    shutil.rmtree(where, ignore_errors=True)
    where.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as t:
        t.extractall(where, filter="data")
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=where, capture_output=True, text=True,
                          env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {where} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            "correct": result["correct"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, _, q3 = statistics.quantiles(sorted(values), n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def better(metric: dict, change: float, parent: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def analyse(pairs: dict, metrics: list, claim: tuple | None) -> dict:
    """summary, wins, regression check and claim over the pairs so far."""
    out = {"summary": {}, "change_wins_per_metric": {}, "regression_check": {},
           "regressions_beyond_bound": []}
    for workload, done in pairs.items():
        summary = out["summary"][workload] = {}
        for side in ("parent", "change"):
            summary[side] = {m["name"]: quartiles([p[side][m["name"]] for p in done])
                             for m in metrics}
        out["change_wins_per_metric"][workload] = {
            m["name"]: sum(better(m, p["change"][m["name"]], p["parent"][m["name"]])
                           for p in done) for m in metrics}
        checks = out["regression_check"][workload] = {}
        for m in metrics:
            parent = summary["parent"][m["name"]]["median"]
            relative = summary["change"][m["name"]]["median"] / parent - 1 if parent else 0.0
            checks[m["name"]] = round(100 * relative, 2)
            worse = relative if m["better"] == "lower" else -relative
            if worse > m["bound"]:
                out["regressions_beyond_bound"].append(
                    {"workload": workload, "metric": m["name"], "percent": checks[m["name"]],
                     "bound_percent": 100 * m["bound"]})
        failed = {side: sum(p[side]["failed"] for p in done) for side in ("parent", "change")}
        if any(failed.values()):
            out["regressions_beyond_bound"].append({"workload": workload, "failed_ops": failed})
    if claim and claim[0] in pairs:
        workload, name, fraction = claim
        metric = next(m for m in metrics if m["name"] == name)
        parent = out["summary"][workload]["parent"][name]
        change = out["summary"][workload]["change"][name]["median"]
        relative = change / parent["median"] - 1
        gain = -relative if metric["better"] == "lower" else relative
        wins = out["change_wins_per_metric"][workload][name]
        n = len(pairs[workload])
        iqr = parent["q3"] - parent["q1"]
        out["claimed_gain"] = {
            "workload": workload, "metric": name, "parent_median": parent["median"],
            "change_median": change, "relative": round(relative, 4), "parent_iqr": iqr,
            "median_difference": abs(change - parent["median"]), "change_wins": wins,
            "pairs": n,
            "met": gain >= fraction and 10 * wins >= 9 * n and abs(change - parent["median"]) > iqr,
            "claim": f"{workload} {name} median at least {fraction:.0%} better, at least 9 of "
                     f"10 pair wins, difference above the parent's IQR"}
    return out


def say(text: str) -> None:
    """Print to stdout; once the reader has gone (``| head``), stdout is os.devnull."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--claim", type=lambda s: (*s.split(":")[:2], float(s.split(":")[2])))
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--dry-run", action="store_true")
    args = parser.parse_args(argv)
    seconds = BENCHMARK["run_seconds"]
    runs = plan([w["name"] for w in BENCHMARK["workloads"]], args.seeds)
    revs = {"parent": args.parent, "change": args.change}
    if args.dry_run:
        for workload, i, seed, side, where in runs:
            say(f"{workload}\tpair {i}\tseed {seed}\t{side}\t{revs[side]}\t{where}")
        return 0

    metrics = BENCHMARK["end_to_end"]
    sha = {side: subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                                capture_output=True, text=True).stdout.strip()
           for side, rev in revs.items()}
    tars = {side: archive(rev) for side, rev in revs.items()}
    workdir = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    record = json.loads(args.out.read_text()) if args.out.is_file() else {}
    record.update({
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "note": "times converted to perfbench's fixed reference speed"},
        "parent_commit": sha["parent"], "change_commit": sha["change"],
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                   "--trace 0",
        "order": f"{len(args.seeds)} alternating pairs per workload on seeds "
                 f"{args.seeds[0]}-{args.seeds[-1]}; the parent runs first at even offsets",
        "directories": "the two copies sit in directories d1 and d2 and swap every second pair "
                       "(parent in d1 at offsets 0, 1, 4, 5, 8, 9)",
        "bytecode": "fresh git-archive copies of the parent and of the change, extracted anew "
                    "for every run, no __pycache__, PYTHONDONTWRITEBYTECODE=1",
        "regression_check_note": "change median relative to parent median, percent; "
                                 "BENCHMARK.json bounds apply in the worse direction",
    })
    pairs: dict = {}
    pending: dict = {}
    for workload, i, seed, side, where in runs:
        print(f"{workload} pair {i} seed {seed}: {side} in {where}", file=sys.stderr, flush=True)
        pending[side] = run_once(tars[side], workdir / where, workload, seed, seconds)
        if len(pending) == 2:
            pairs.setdefault(workload, []).append(
                {"seed": seed, "first": "parent" if i % 2 == 0 else "change",
                 "parent_dir": where if side == "parent" else ("d1" if where == "d2" else "d2"),
                 **pending})
            pending = {}
            record.update(pairs=pairs, **analyse(pairs, metrics, args.claim))
            args.out.write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)
    say(json.dumps({"regressions_beyond_bound": record.get("regressions_beyond_bound"),
                    "claimed_gain": record.get("claimed_gain")}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
