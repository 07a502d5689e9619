"""gibbsfields benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Every measurement happens in a fresh
interpreter (worker.py) started by this single-threaded runner, one at a
time: a closed loop with one client that sends operations back to back.
gibbsfields is imported from ``src`` without installing it.

With --trace 0 the runner starts four set-up-only processes, one process
that runs a single pass under another PYTHONHASHSEED (its report digests
must match), and the measuring process; it prints the end-to-end metrics.
With --trace 1 it starts one traced measuring process and prints the
per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. A run record with
the machine, the seed, sample counts, quartiles and the committed
baseline goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, perf_counter

import metrics
import tracing

HERE = Path(__file__).resolve().parent
WORKLOADS = ("exact-identities", "potential-validate", "diagnostics-sweep")
DIGEST_WORKLOADS = ("potential-validate", "diagnostics-sweep")
SETUP_SAMPLES = 5
HASH_SEEDS = ("0", "1")
RUN_LIMIT_S = 170
# Times are converted to the speed at which workloads.reference_s() reads
# REF_NOMINAL_S. Shared 2-core hosts change speed by up to 1.6x within
# minutes; measured over 7 minutes, the spread of 10 s medians fell from
# 0.34-0.35 of the median in raw seconds to 0.06-0.10 in converted
# seconds. The raw seconds are kept in the run record.
REF_NOMINAL_S = 0.01
TAIL_PASSES = 5


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def quartiles(values: list) -> dict:
    values = sorted(values)
    if len(values) == 1:
        q1 = q2 = q3 = values[0]
    else:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        q2 = statistics.median(values)
    return {"q1": q1, "median": q2, "q3": q3, "samples": len(values)}


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.deadline = monotonic() + RUN_LIMIT_S
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def spawn(self, role: str, hash_seed: str, trace: int = 0) -> tuple:
        """Start one worker; returns (set-up seconds, reference seconds
        after set-up, result dict or None)."""
        a = self.args
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(trace),
               "--size", a.size, "--role", role]
        env = dict(self.env, PYTHONHASHSEED=hash_seed)
        start = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=self.root)
        setup_s = ref_s = None
        result = None
        buffer = b""
        try:
            while True:
                remaining = self.deadline - monotonic()
                if remaining <= 0:
                    raise BenchError(f"{role} worker exceeded the {RUN_LIMIT_S} s limit")
                ready, _, _ = select.select([proc.stdout], [], [], remaining)
                if not ready:
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    if line == b"READY":
                        setup_s = perf_counter() - start
                    elif line.startswith(b"REF "):
                        ref_s = float(line[4:])
                    elif line.startswith(b"RESULT "):
                        result = json.loads(line[7:])
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        if proc.returncode != 0 or ref_s is None or (role != "setup" and result is None):
            raise BenchError(f"{role} worker failed with exit code {proc.returncode}")
        return setup_s, ref_s, result


def converted(p: dict) -> tuple:
    """A pass's time and operation latencies at the reference speed."""
    latencies = iter(p["latencies"])
    total = 0.0
    ops = []
    for seconds, count, ref in p["blocks"]:
        scale = REF_NOMINAL_S / ref
        total += seconds * scale
        ops.extend(next(latencies) * scale for _ in range(count))
    return total, ops


def end_to_end(measure: dict, setups: list) -> tuple:
    """End-to-end metric samples and notes from the measuring worker.

    setups holds (set-up seconds, reference seconds) per worker.
    """
    passes = measure["passes"]
    walls, ops = zip(*(converted(p) for p in passes))
    pooled = sorted(x for pass_ops in ops for x in pass_ops)
    samples = {
        "setup_s": [s * REF_NOMINAL_S / r for s, r in setups],
        "run_s": list(walls),
        "checks_per_s": [p["tuples"] / w for p, w in zip(passes, walls)],
        "op_p50_ms": [1e3 * x for x in pooled],
        "peak_rss_mb": [measure["peak_rss_mb"]],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    references = [b[2] for p in passes for b in p["blocks"]] + [r for _, r in setups]
    notes = {"passes": len(passes), "ops_per_pass": len(passes[0]["latencies"]),
             "ops_total": len(pooled),
             "raw_run_s": quartiles([p["wall_s"] for p in passes]),
             "raw_setup_s": quartiles([s for s, _ in setups]),
             "reference_s": quartiles(references)}
    if len(pooled) >= 11:
        q = tail_quantile(len(passes[0]["latencies"]), len(pooled))
        index = math.ceil(q * len(pooled)) - 1
        values["op_tail_ms"] = 1e3 * pooled[index]
        notes["op_tail_percentile"] = 100 * q
        notes["op_tail_samples_beyond"] = len(pooled) - 1 - index
    return values, samples, notes


def tail_quantile(ops_per_pass: int, ops_total: int) -> float:
    """The highest quantile with at least 10 samples beyond it in a run of
    TAIL_PASSES passes, or in this run if it is shorter.

    Fixing the run length keeps the quantile the same when more passes fit
    in --seconds: otherwise a faster program would read a higher quantile,
    which on these mixes of cheap and costly operations can jump from one
    kind of operation to another.
    """
    n = min(ops_total, ops_per_pass * TAIL_PASSES)
    return (n - 10) / n


def layer_values(measure: dict) -> tuple:
    """Per-layer metrics from the traced passes, and the defects found."""
    traced = [p for p in measure["passes"] if p["traced"]]
    plain = [p for p in measure["passes"] if not p["traced"]]
    per_pass = [tracing.layer_metrics(p["trace"]) for p in traced]
    defects = []
    first = traced[0]["trace"]
    for p in traced[1:]:
        if p["trace"]["calls"] != first["calls"] or p["trace"]["work"] != first["work"]:
            defects.append("per-layer call counts differ between traced passes")
            break
    values = {}
    for name in per_pass[0]:
        column = [m[name] for m in per_pass]
        values[name] = statistics.median(column) if name.endswith("self_s") else column[0]
    walls = [p["wall_s"] for p in traced]
    harness = [p["harness_s"] for p in traced]
    unattributed = [p["wall_s"] - p["harness_s"] - sum(p["trace"]["self_s"].values())
                    for p in traced]
    values["harness.self_s"] = statistics.median(harness)
    values["cli.report_bytes"] = traced[0]["report_bytes"]
    values["models.build_s"] = tracing.build_seconds(measure["setup_trace"])
    values["trace.overhead_ratio"] = (statistics.median(converted(p)[0] for p in traced)
                                      / statistics.median(converted(p)[0] for p in plain))
    values["trace.unattributed_ratio"] = statistics.median(
        [u / w for u, w in zip(unattributed, walls)])
    attribution = {
        "pass_self_s_by_layer": {k: statistics.median(m[k] for m in per_pass)
                                 for k in per_pass[0] if k.endswith("self_s")},
        "setup_wall_s": measure["setup_wall_s"],
        "setup_self_s_by_layer": measure["setup_trace"]["self_s"],
        "top_edges_by_inclusive_s": sorted(
            ([k, *v] for k, v in first["edges"].items()), key=lambda e: -e[2])[:15],
        "traced_passes": len(traced), "untraced_passes": len(plain),
        "unattributed_s": unattributed,
        "note": "__hash__/__eq__ of Volume and Configuration are not wrapped; "
                "their cost is self time of the calling layer",
    }
    return values, attribution, defects


def run_info(root: Path, args, measure: dict) -> dict:
    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "gfl_enum_cap": measure["enum_cap"],
        "gfl_enum_cap_env": os.environ.get("GFL_ENUM_CAP"),
        "loadavg_at_start": args.loadavg,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def git_sha(root: Path):
    """Commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a few operations, for the benchmark's own tests")
    args = parser.parse_args(argv)
    args.loadavg = os.getloadavg()
    root = Path.cwd()
    if not (root / "src" / "gibbsfields" / "__init__.py").is_file():
        print("run.py: no src/gibbsfields here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    runner = Runner(args, root)
    try:
        if args.trace:
            _, _, measure = runner.spawn("measure", HASH_SEEDS[0], trace=1)
            workers = [measure]
        else:
            setups = [runner.spawn("setup", HASH_SEEDS[0])[:2]
                      for _ in range(SETUP_SAMPLES - 2)]
            role = "check" if args.workload in DIGEST_WORKLOADS else "setup"
            *setup, check = runner.spawn(role, HASH_SEEDS[1])
            setups.append(setup)
            *setup, measure = runner.spawn("measure", HASH_SEEDS[0])
            setups.append(setup)
            workers = [w for w in (check, measure) if w]
    except BenchError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 3

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    failures = [f for w in workers for f in w["failures"]]
    defects = []
    if args.trace:
        values, attribution, defects = layer_values(measure)
        units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
        samples = {}
        notes = {"passes": len(measure["passes"]), "spans_file": measure["spans_file"],
                 "attribution": attribution}
    else:
        values, samples, notes = end_to_end(measure, setups)
        units = {k: v[0] for k, v in metrics.END_TO_END.items()}
        if check is not None:
            mismatched = [k for k, d in check["digests"].items()
                          if measure["digests"].get(k) != d]
            attempted += len(check["digests"])
            failed += len(mismatched)
            failures += [f"report digest of op {k} differs between PYTHONHASHSEED "
                         f"{HASH_SEEDS[0]} and {HASH_SEEDS[1]}" for k in mismatched]
        notes["accepted_outcomes"] = measure["notes"]
    correct = failed == 0 and not defects

    record = {
        "run": run_info(root, args, measure),
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_ops_ratio": failed / attempted, "failures": failures[:20],
        "defects": defects,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
        "quartiles": {k: quartiles(v) for k, v in samples.items()},
        "notes": notes,
        "baseline": baseline(args.workload, args.trace),
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")

    for k, v in values.items():
        print(f"{k}: {v:.6g} {units[k]}")
    print(f"failed_ops_ratio: {failed}/{attempted} = {failed / attempted:.6g} ratio")
    for line in failures[:5] + defects:
        print(f"FAILED: {line}")
    print(f"record: perfbench/out/{name}")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": record["metrics"]}
    print(json.dumps(result))
    return 0


def baseline(workload: str, trace: int):
    path = HERE / "baseline.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload, {}).get(f"trace{trace}")


if __name__ == "__main__":
    sys.exit(main())
