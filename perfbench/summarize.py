"""Run one workload over several seeds and summarize each metric.

    python3 perfbench/summarize.py --workload NAME --seeds 1 2 3 ... \
        [--seconds 20] [--trace 0|1] [--write-baseline]

For every metric it prints the median, the quartiles and the spread: the
distance between the first and third quartile as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them. For end-to-end
metrics the spread is compared with the metric's bound. With
--write-baseline the medians and quartiles are stored in
perfbench/baseline.json, which every run record quotes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-baseline", action="store_true")
    args = parser.parse_args()

    results = []
    for seed in args.seeds:
        result = run(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {"seeds": args.seeds, "seconds": args.seconds,
               "all_correct": all(r["correct"] for r in results),
               "attempted": sum(r["attempted"] for r in results),
               "failed": sum(r["failed"] for r in results), "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                 "q1": q1, "q3": q3, "values": values}
        if median:
            entry["spread"] = (q3 - q1) / median
        bound = metrics.END_TO_END.get(name, (None, None, None))[2]
        if bound is not None and not args.trace:
            entry["bound"] = bound
        summary["metrics"][name] = entry
        flag = ""
        if "bound" in entry:
            flag = "ok" if entry["spread"] < bound / 3 else (
                "WITHIN BOUND" if entry["spread"] <= bound else "OVER BOUND")
        print(f"{name:45s} median {median:<14.6g} spread {entry.get('spread', 0):.4f} {flag}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"summary-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    if args.write_baseline:
        base_path = HERE / "baseline.json"
        base = json.loads(base_path.read_text()) if base_path.is_file() else {}
        base.setdefault(args.workload, {})[f"trace{args.trace}"] = {
            "seeds": args.seeds, "seconds": args.seconds,
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {k: {f: v[f] for f in ("unit", "median", "q1", "q3")}
                        for k, v in summary["metrics"].items()},
        }
        base_path.write_text(json.dumps(base, indent=1, sort_keys=True) + "\n")
    return 0 if summary["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
