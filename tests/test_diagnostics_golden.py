"""Byte-level pin of the diagnostics reports.

The golden file holds the JSON of every diagnostic (and the CSV of each
convergence report) on an Ising chain, a rational Bernoulli product, the
example1 chain and the example2 mixture. A refactor of the diagnostics
must leave every entry unchanged. Regenerate the file only when a report
is meant to change:

    PYTHONPATH=src python tests/test_diagnostics_golden.py --write
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

from gibbsfields.diagnostics import (
    BoundaryFamily,
    constant_density_boundary,
    density_switch_boundary,
    energy_criterion_report,
    filtration_independence_check,
    locality_probe_family,
    mixed_family,
    non_gibbs_witness,
    positive_half_boundary,
    quasilocality_report,
    uniform_convergence_report,
)
from gibbsfields.lattice import box_filtration, interval_filtration, line_window
from gibbsfields.models import bernoulli_product, example1_pair, example2_model, ising_demo
from gibbsfields.specifications import (
    ising_potential,
    onepoint_spec_from_model,
    onepoint_spec_from_tef,
    tef_from_potential,
)

GOLDEN = Path(__file__).parent / "data" / "diagnostics_golden.json"


def _json(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True, default=str)


def build_reports() -> dict:
    """Report name -> exact text of the report."""
    out = {}

    def convergence(name, *args):
        report = uniform_convergence_report(*args)
        out[f"uniform/{name}.json"] = _json(report.to_json_dict())
        out[f"uniform/{name}.csv"] = report.to_csv()

    ising = ising_demo(0.4, window=9)
    bern = bernoulli_product(Fraction(1, 3), line_window(9))
    chain = example1_pair(8, Fraction(1, 2), Fraction(1, 2))[0]
    mixture = example2_model(1, line_window(325))

    F9 = box_filtration(0, [1, 2, 3], ising.window)
    F9_full = box_filtration(0, [1, 2, 3, 4], ising.window)
    F9_odd = box_filtration(0, [2, 4], ising.window)
    F9_lop = interval_filtration(0, [(1, 2), (2, 4), (4, 4)])
    F_chain = box_filtration(4, [1, 2, 3], chain.window)
    F_chain_full = box_filtration(4, [1, 2, 3, 4], chain.window)
    F_mix = box_filtration(0, [6, 18, 54, 162], mixture.window)
    F_mix_lop = interval_filtration(0, [(6, 12), (18, 36), (54, 108)])
    switch = BoundaryFamily(
        (constant_density_boundary(Fraction(1, 4)),
         *[density_switch_boundary(Fraction(1, 4), Fraction(3, 4), i) for i in range(3)]),
        "density-switch")

    for name, m, t, F in (("ising", ising, 0, F9), ("bernoulli", bern, 0, F9),
                          ("example1", chain, 4, F_chain)):
        binary = set(m.alphabet.symbols) == {0, 1}
        family = mixed_family(m.alphabet, include_oscillating=binary, include_half=binary)
        probe = locality_probe_family(m.alphabet, F)
        convergence(name, m, t, F, family, 1e-12)
        out[f"quasilocality/{name}.json"] = _json(quasilocality_report(m, t, F, probe, 1e-12))
        out[f"energy/{name}.json"] = _json(energy_criterion_report(m, t, F, probe, 1e-9))
    convergence("example2-mixed", mixture, 0, F_mix,
                mixed_family(mixture.alphabet, include_oscillating=True, include_half=True), 1e-9)
    convergence("example2-probe", mixture, 0, F_mix,
                locality_probe_family(mixture.alphabet, F_mix), 1e-9)
    out["quasilocality/example2-switch.json"] = _json(
        quasilocality_report(mixture, 0, F_mix, switch, 1e-9))
    out["energy/example2-switch.json"] = _json(
        energy_criterion_report(mixture, 0, F_mix, switch, 1e-3))

    tef_spec = onepoint_spec_from_tef(tef_from_potential(ising_potential(0.4), ising.window,
                                                         ising.alphabet))
    for name, q, t, F in (("ising", onepoint_spec_from_model(ising), 0, F9_full),
                          ("ising-tef", tef_spec, 0, F9_full),
                          ("example1", onepoint_spec_from_model(chain), 4, F_chain_full)):
        out[f"quasilocality/spec-{name}.json"] = _json(
            quasilocality_report(q, t, F, locality_probe_family(q.alphabet, F), 1e-12))

    for name, m, t, F1, F2, family, tol in (
            ("ising", ising, 0, F9, F9_odd, mixed_family(ising.alphabet), 1e-12),
            ("ising-lopsided", ising, 0, F9, F9_lop, mixed_family(ising.alphabet), 1e-12),
            ("example1", chain, 4, F_chain, box_filtration(4, [2, 3], chain.window),
             mixed_family(chain.alphabet), 1e-12),
            ("example2", mixture, 0, box_filtration(0, [6, 18, 54], mixture.window),
             F_mix_lop, BoundaryFamily((positive_half_boundary(),), "half-ones"), 0.05)):
        out[f"independence/{name}.json"] = _json(
            filtration_independence_check(m, t, F1, F2, family, tol))

    for name, m, t, F, strategy in (
            ("example2-oscillating", mixture, 0, F_mix, "oscillating-density"),
            ("ising-oscillating", ising, 0, F9, "oscillating-density"),
            ("ising-exhaustive", ising, 0, F9, "exhaustive-small"),
            ("bernoulli-exhaustive", bern, 0, F9, "exhaustive-small"),
            ("example1-exhaustive", chain, 4, F_chain, "exhaustive-small")):
        out[f"witness/{name}.json"] = _json(non_gibbs_witness(m, t, F, strategy=strategy))
    return out


def test_diagnostics_reports_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    reports = build_reports()
    assert sorted(reports) == sorted(golden)
    for name, text in reports.items():
        assert text == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(build_reports(), indent=1, sort_keys=True) + "\n")
