"""Two tiny passes of each benchmark workload, run in-process, and one
tiny traced pass of each.

perfbench/workloads.py and perfbench/tracing.py are loaded from their
files without writing bytecode next to them, and every report goes under
a temporary working directory. A wrong verdict, a failed operation or
report bytes that change between passes then fail here, before the
benchmark itself is run; so does a table type the tracer cannot count.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("exact-identities", "potential-validate", "diagnostics-sweep")


def load(name: str):
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                      PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def workloads():
    return load("workloads")


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_passes_succeed_with_stable_digests(workloads, name, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    workload = workloads.WORKLOADS[name](1, "tiny")
    meter = workloads.Meter()
    digests = []
    for _ in range(2):
        meter.start_pass()
        workload.run_pass(meter)
        meter.end_pass()
        digests.append(dict(meter.digests))
    assert meter.failed == 0, meter.failures
    assert meter.attempted > 0
    # the meter compares each report with the first pass's; the second pass
    # must also produce exactly the same set of reports
    assert digests[0] == digests[1]
    if name != "exact-identities":
        assert digests[0]


def test_traced_passes_count_every_layer(workloads, monkeypatch, tmp_path):
    """The tracer's wrappers see marginals built, kernel-cache calls and
    energy ratios; marginal tables must be weakref-able and sized."""
    monkeypatch.chdir(tmp_path)
    tracing = load("tracing")
    built = [workloads.WORKLOADS[name](1, "tiny") for name in WORKLOADS]
    tracer = tracing.Tracer()
    failures = []
    tracer.install()
    try:
        for workload in built:
            # one meter per workload: digests are keyed by position in the pass
            meter = workloads.Meter(tracer)
            workload.run_pass(meter)
            meter.end_pass()
            failures += meter.failures
    finally:
        tracer.uninstall()
    assert not failures
    metrics = tracing.layer_metrics(tracer.snapshot())
    for name in ("fields.marginal.calls", "fields.marginal.build_ratio",
                 "conditionals.kernel_cache.calls", "energy.ratio.calls"):
        assert metrics[name] > 0, name
