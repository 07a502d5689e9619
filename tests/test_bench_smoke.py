"""Two tiny passes of each benchmark workload, run in-process.

perfbench/workloads.py is loaded from its file without writing bytecode
next to it, and every report goes under a temporary working directory. A
wrong verdict, a failed operation or report bytes that change between
passes then fail here, before the benchmark itself is run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("name", ["exact-identities", "potential-validate",
                                  "diagnostics-sweep"])
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
