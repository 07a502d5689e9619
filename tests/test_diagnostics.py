import json
import math
from fractions import Fraction
from itertools import combinations

import pytest

from gibbsfields.diagnostics import (
    BoundaryFamily,
    DIVERGENCE_WITNESS,
    INCONCLUSIVE,
    NONLOCALITY_WITNESS,
    QUASILOCAL_EVIDENCE,
    UNIFORM_EVIDENCE,
    constant_boundaries,
    constant_boundary,
    constant_density_boundary,
    density_switch_boundary,
    energy_criterion_report,
    filtration_independence_check,
    locality_probe_family,
    mixed_family,
    non_gibbs_witness,
    oscillating_density_boundary,
    patch_boundary,
    positive_half_boundary,
    quasilocality_report,
    uniform_convergence_report,
)
from gibbsfields.conditionals import limit_along_filtration
from gibbsfields.fields import format_scalar
from gibbsfields.lattice import (
    Configuration,
    box_filtration,
    interval_filtration,
    line_window,
    restrict,
    volume,
)
from gibbsfields.models import (
    bernoulli_product,
    example1_pair,
    example2_model,
    ising_demo,
)
from gibbsfields.specifications import (
    ising_potential,
    onepoint_spec_from_model,
    onepoint_spec_from_tef,
    tef_from_potential,
)


def example2_setup(tau=1):
    model = example2_model(tau, line_window(325))
    F = box_filtration(0, [6, 18, 54, 162], model.window)
    return model, F


def test_generators_nest_and_hit_exact_densities():
    model, F = example2_setup()
    t = volume(0)
    gen = oscillating_density_boundary(start="high")
    configs = gen.configs(t, F)
    assert [len(c) for c in configs] == [12, 36, 108, 324]
    # densities 3/4, 1/4, 3/4, 1/4 exactly
    assert [c.count(1) for c in configs] == [9, 9, 81, 81]
    for earlier, later in zip(configs, configs[1:]):
        assert restrict(later, earlier.volume) == earlier

    low = oscillating_density_boundary(start="low")
    low_configs = low.configs(t, F)
    assert [c.count(1) for c in low_configs] == [3, 27, 27, 243]


def test_density_switch_agrees_with_base_through_switch_stage():
    model, F = example2_setup()
    t = volume(0)
    base = constant_density_boundary(Fraction(1, 4))
    for stage in range(3):
        switched = density_switch_boundary(Fraction(1, 4), Fraction(3, 4), stage)
        a = base.configs(t, F)
        b = switched.configs(t, F)
        for n in range(stage + 1):
            assert a[n] == b[n]
        assert a[stage + 1] != b[stage + 1]


def test_family_rejects_duplicate_labels():
    with pytest.raises(ValueError):
        BoundaryFamily((constant_boundary(0, "x"), constant_boundary(1, "x")))


def test_uniform_convergence_verdicts():
    # product field: exact zero gaps from stage one
    mp = bernoulli_product(Fraction(1, 3), line_window(9))
    Fp = box_filtration(0, [1, 2, 3], mp.window)
    rep = uniform_convergence_report(mp, 0, Fp, mixed_family(mp.alphabet), 1e-12)
    assert rep.verdict == UNIFORM_EVIDENCE
    assert all(st.sup_gap == 0 for st in rep.stages)

    # Markov chain: stabilizes exactly once both neighbors are inside
    m1 = example1_pair(8, Fraction(1, 2), Fraction(1, 2))[0]
    F1 = box_filtration(4, [1, 2, 3], m1.window)
    rep1 = uniform_convergence_report(m1, (4,), F1, mixed_family(m1.alphabet), 1e-12)
    assert rep1.verdict == UNIFORM_EVIDENCE
    assert all(st.sup_gap == 0 for st in rep1.stages[1:])

    # mixture with adversarial family: witness with gap >= 0.4
    m2, F2 = example2_setup()
    fam = BoundaryFamily(
        (oscillating_density_boundary(start="high"),
         oscillating_density_boundary(start="low")), "oscillating")
    rep2 = uniform_convergence_report(m2, 0, F2, fam, 1e-9)
    assert rep2.verdict == DIVERGENCE_WITNESS
    assert rep2.witness["generator"].startswith("oscillating")
    for gap_text in rep2.witness["gap_trace"][-3:]:
        assert Fraction(gap_text) >= Fraction(2, 5)


def test_slow_convergence_is_not_a_witness():
    """Constant boundaries on the mixture converge like 1/n; they must not
    be reported as divergence witnesses."""
    m2, F2 = example2_setup()
    fam = BoundaryFamily((constant_boundary(0), constant_boundary(1)), "constants")
    rep = uniform_convergence_report(m2, 0, F2, fam, 1e-9)
    assert rep.verdict == INCONCLUSIVE
    assert rep.witness is None


def test_report_json_and_csv_shape():
    mp = bernoulli_product(Fraction(1, 2), line_window(7))
    F = box_filtration(0, [1, 2], mp.window)
    rep = uniform_convergence_report(mp, 0, F, mixed_family(mp.alphabet), 1e-12)
    payload = rep.to_json_dict()
    for key in ("model", "site", "filtration", "family", "stages", "verdict",
                "witness", "note"):
        assert key in payload
    assert [s["n"] for s in payload["stages"]] == [1, 2]
    assert all(set(s) >= {"n", "volume_size", "sup_gap"} for s in payload["stages"])
    json.dumps(payload)  # must serialize
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[0] == "stage,volume_size,sup_gap"


def test_filtration_independence_markov_three_ways():
    m = ising_demo(0.4, window=9)
    fam = mixed_family(m.alphabet)
    filtrations = [
        box_filtration(0, [1, 2, 3], m.window),
        box_filtration(0, [2, 4], m.window),
        interval_filtration(0, [(1, 2), (2, 4), (4, 4)]),
    ]
    for i in range(len(filtrations)):
        for j in range(i + 1, len(filtrations)):
            ok, report = filtration_independence_check(
                m, 0, filtrations[i], filtrations[j], fam, 1e-12)
            assert ok, report


def test_filtration_independence_example2_positive_and_negative():
    m, _ = example2_setup()
    F_sym_a = box_filtration(0, [6, 18, 54], m.window)
    F_sym_b = box_filtration(0, [12, 36, 81], m.window)
    fam = BoundaryFamily((positive_half_boundary(),), "half-ones")
    ok, _ = filtration_independence_check(m, 0, F_sym_a, F_sym_b, fam, tol=0.05)
    assert ok

    # lopsided stages see density 2/3 instead of 1/2
    F_lop = interval_filtration(0, [(6, 12), (18, 36), (54, 108)])
    bad, report = filtration_independence_check(m, 0, F_sym_a, F_lop, fam, tol=0.05)
    assert not bad
    dev = Fraction(report["per_generator"]["half-ones"]["deviation"])
    assert dev > Fraction(1, 10)


def test_quasilocality_verdicts():
    mi = ising_demo(0.4, window=9)
    Fi = box_filtration(0, [1, 2, 3], mi.window)
    fam = locality_probe_family(mi.alphabet, Fi)
    rep = quasilocality_report(mi, 0, Fi, fam, tol=1e-12)
    assert rep["verdict"] == QUASILOCAL_EVIDENCE
    assert all(s["pairs"] > 0 for s in rep["stages"])

    m2, F2 = example2_setup()
    switch_fam = BoundaryFamily(
        (constant_density_boundary(Fraction(1, 4)),
         *[density_switch_boundary(Fraction(1, 4), Fraction(3, 4), i)
           for i in range(3)]), "density-switch")
    rep2 = quasilocality_report(m2, 0, F2, switch_fam, tol=1e-9)
    assert rep2["verdict"] == NONLOCALITY_WITNESS
    assert all(Fraction(s["modulus"]) >= Fraction(2, 5)
               for s in rep2["stages"] if s["pairs"])


def test_locality_verdict_is_inconclusive_without_pairs_or_between_tol_and_ten_tol():
    """Two constant boundaries never agree on a stage, so no stage has a
    pair and neither report can judge; and a last modulus m judged at
    tol = m / 2 is neither within tol nor at least 10 tol."""
    mi = ising_demo(0.4, window=9)
    Fi = box_filtration(0, [1, 2, 3], mi.window)
    constants = BoundaryFamily(constant_boundaries(mi.alphabet), "constants")
    for report in (quasilocality_report, energy_criterion_report):
        rep = report(mi, 0, Fi, constants)
        assert [s["pairs"] for s in rep["stages"]] == [0, 0]
        assert rep["verdict"] == INCONCLUSIVE

    m2, F2 = example2_setup()
    switch_fam = BoundaryFamily(
        (constant_density_boundary(Fraction(1, 4)),
         *[density_switch_boundary(Fraction(1, 4), Fraction(3, 4), i)
           for i in range(3)]), "density-switch")
    modulus = float(quasilocality_report(m2, 0, F2, switch_fam)["moduli"][-1])
    assert modulus == float(Fraction(81, 163))
    verdicts = [quasilocality_report(m2, 0, F2, switch_fam, tol)["verdict"]
                for tol in (modulus, modulus / 2, modulus / 20)]
    assert verdicts == [QUASILOCAL_EVIDENCE, INCONCLUSIVE, NONLOCALITY_WITNESS]


def test_quasilocality_on_spec_object():
    m = ising_demo(0.4, window=7)
    q_model = onepoint_spec_from_model(m)
    q_tef = onepoint_spec_from_tef(
        tef_from_potential(ising_potential(0.4), m.window, m.alphabet))
    F = box_filtration(0, [1, 2, 3], m.window)
    fam = locality_probe_family(m.alphabet, F)
    for q in (q_model, q_tef):
        rep = quasilocality_report(q, 0, F, fam, tol=1e-12)
        assert rep["verdict"] == QUASILOCAL_EVIDENCE


def test_energy_criterion_verdicts():
    mi = ising_demo(0.4, window=9)
    Fi = box_filtration(0, [1, 2, 3], mi.window)
    rep = energy_criterion_report(mi, 0, Fi, locality_probe_family(mi.alphabet, Fi),
                                  tol=1e-9)
    assert rep["verdict"] == QUASILOCAL_EVIDENCE
    assert rep["min_kernel_entry"] > 0

    mp = bernoulli_product(Fraction(1, 2), line_window(9))
    rep_p = energy_criterion_report(mp, 0, Fi, locality_probe_family(mp.alphabet, Fi),
                                    tol=1e-9)
    assert rep_p["verdict"] == QUASILOCAL_EVIDENCE

    m2, F2 = example2_setup()
    fam2 = BoundaryFamily(
        (constant_density_boundary(Fraction(1, 4)),
         *[density_switch_boundary(Fraction(1, 4), Fraction(3, 4), i)
           for i in range(3)]), "density-switch")
    rep2 = energy_criterion_report(m2, 0, F2, fam2, tol=1e-3)
    assert rep2["verdict"] == NONLOCALITY_WITNESS


def test_non_gibbs_witness_strategies():
    m2, F2 = example2_setup()
    witness = non_gibbs_witness(m2, 0, F2, strategy="oscillating-density")
    assert witness is not None
    assert min(Fraction(g) for g in witness["gap_trace"][-3:]) >= Fraction(2, 5)
    assert "note" in witness

    mi = ising_demo(0.4, window=9)
    Fi = box_filtration(0, [1, 2, 3], mi.window)
    assert non_gibbs_witness(mi, 0, Fi, strategy="oscillating-density") is None
    assert non_gibbs_witness(mi, 0, Fi, strategy="exhaustive-small") is None

    mp = bernoulli_product(Fraction(1, 3), line_window(9))
    assert non_gibbs_witness(mp, 0, Fi, strategy="exhaustive-small") is None


def test_witness_trace_reproduces_bit_for_bit():
    m2, F2 = example2_setup()
    first = non_gibbs_witness(m2, 0, F2)
    second = non_gibbs_witness(example2_model(1, line_window(325)), 0, F2)
    assert first == second


def test_volume_patch_agreement():
    m = ising_demo(0.4, window=9)
    F = box_filtration(0, [1, 2, 3], m.window)
    t = volume(0)
    const = constant_boundary(1, "c")
    patch = patch_boundary(Configuration(F[1], (1,) * len(F[1])), -1, "+1@3", m.alphabet)
    assert patch.label == "patch[+1@3|-1]"
    c_configs = const.configs(t, F)
    p_configs = patch.configs(t, F)
    assert c_configs[0] == p_configs[0]
    assert c_configs[1] == p_configs[1]
    assert c_configs[2] != p_configs[2]


def test_uniform_gaps_are_the_limit_estimates_of_each_deepest_boundary():
    mi = ising_demo(0.4, window=9)
    m2, F2 = example2_setup()
    for m, F, fam in (
            (mi, box_filtration(0, [1, 2, 3], mi.window), mixed_family(mi.alphabet)),
            (m2, F2, mixed_family(m2.alphabet, include_oscillating=True, include_half=True))):
        rep = uniform_convergence_report(m, 0, F, fam, 1e-9)
        t = volume(0)
        for gen in fam:
            est = limit_along_filtration(m, t, gen.configs(t, F)[-1], F)
            assert rep.per_generator[gen.label]["gaps"] == [
                format_scalar(g, m.mode) for g in est.sup_gaps]


@pytest.mark.parametrize("m, t", [
    (example1_pair(8, Fraction(1, 2), Fraction(1, 2))[0], 4),
    (bernoulli_product(Fraction(2, 5), line_window(9)), 0),
])
def test_quasilocality_of_a_rational_model_and_of_its_one_point_spec_agree(m, t):
    F = box_filtration(t, [1, 2, 3, 4], m.window)
    assert F.window == m.window
    fam = locality_probe_family(m.alphabet, F)
    on_model = quasilocality_report(m, t, F, fam, tol=1e-12)
    on_spec = quasilocality_report(onepoint_spec_from_model(m), t, F, fam, tol=1e-12)
    for key in ("stages", "moduli", "verdict"):
        assert on_spec[key] == on_model[key]
    assert all(isinstance(v, Fraction) for v in on_model["moduli"])


def test_energy_moduli_of_a_product_field_are_exactly_zero():
    m = bernoulli_product(Fraction(1, 3), line_window(9))
    F = box_filtration(0, [1, 2, 3], m.window)
    moduli = energy_criterion_report(m, 0, F, locality_probe_family(m.alphabet, F))["moduli"]
    assert moduli == [Fraction(0), Fraction(0)]
    assert all(type(v) is Fraction for v in moduli)


def test_energy_moduli_of_example2_follow_its_closed_form_conditional():
    m, F = example2_setup()
    gens = (constant_density_boundary(Fraction(1, 4)),
            *[density_switch_boundary(Fraction(1, 4), Fraction(3, 4), i) for i in range(3)])
    t = volume(0)

    def log_ratios(z):
        q = m.conditional_one(len(z), z.count(1))
        return [math.log(float(q / (1 - q))), math.log(float((1 - q) / q))]

    stage_configs = [g.configs(t, F) for g in gens]
    want = []
    for n in range(len(F) - 1):
        worst = Fraction(0)
        for sc_a, sc_b in combinations(stage_configs, 2):
            if sc_a[n] == sc_b[n]:
                gap = max(abs(a - b) for a, b in zip(log_ratios(sc_a[-1]), log_ratios(sc_b[-1])))
                worst = max(worst, gap)
        want.append(worst)
    got = energy_criterion_report(m, 0, F, BoundaryFamily(gens, "density-switch"))["moduli"]
    assert all(v > 0 for v in got)
    assert got == want
