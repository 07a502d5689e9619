"""One benchmark process: set up a workload, then run timed passes.

Started by run.py in a fresh interpreter, with ``src`` on PYTHONPATH.
It writes ``READY`` to stdout when set-up is done, then ``REF <seconds>``:
the time of the reference kernel (workloads.reference_s), which run.py
uses to convert times to the reference speed. Unless it was started with
``--role setup``, it then runs passes and writes one ``RESULT <json>``
line at the end.

Roles:
  setup    set up, then exit (one more set-up time sample);
  check    set up, then run one pass: its report digests are compared
           with those of the measuring process, which runs under another
           PYTHONHASHSEED;
  measure  set up, then run passes until --seconds have passed. With
           --trace 1 the passes alternate untraced and traced, starting
           untraced, and set-up itself is traced.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter


def write_spans(spans: list, workload: str, seed: int) -> str:
    """Write the kept spans as JSON lines; returns the file name."""
    import workloads

    path = workloads.OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("id", "name", "module", "start", "end", "parent", "op")
    with path.open("w") as out:
        for span in spans:
            out.write(json.dumps(dict(zip(keys, span))) + "\n")
    return path.name


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--role", choices=("setup", "check", "measure"), default="measure")
    args = parser.parse_args()

    import gibbsfields.lattice
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_start = perf_counter()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size)
    setup_wall = perf_counter() - setup_start
    setup_trace = tracer.snapshot() if tracer else None
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)
    print(f"REF {workloads.reference_s()!r}", flush=True)
    if args.role == "setup":
        return 0

    meter = workloads.Meter()
    passes = []
    started = perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        meter.tracer = tracer if traced else None
        meter.start_pass()
        workload.run_pass(meter)
        meter.end_pass()
        record = {"wall_s": sum(b[0] for b in meter.blocks), "blocks": meter.blocks,
                  "latencies": meter.latencies, "tuples": meter.tuples, "traced": traced}
        if traced:
            tracer.uninstall()
            record.update(trace=tracer.snapshot(), harness_s=meter.harness_s,
                          report_bytes=meter.report_bytes)
        passes.append(record)
        if len(passes) == 1:
            # later passes repeat the same work; only the harness's own
            # latency lists would keep growing
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.role == "check":
            break
        enough = len(passes) >= (3 if tracer else 1)
        if enough and perf_counter() - started >= args.seconds:
            break

    result = {
        "passes": passes,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "failures": meter.failures,
        "notes": meter.notes,
        "digests": {str(k): v for k, v in meter.digests.items()},
        "peak_rss_mb": peak_rss_mb,
        "enum_cap": gibbsfields.lattice.enumeration_cap(),
        "setup_wall_s": setup_wall,
        "setup_trace": setup_trace,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
    }
    if tracer:
        result["spans_file"] = write_spans(tracer.spans, args.workload, args.seed)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
