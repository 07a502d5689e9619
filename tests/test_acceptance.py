"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its runtime. Exact rational equality wherever the
model is rational; float comparisons at the stated 1e-12 tolerance."""

import json
import math
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations
from pathlib import Path

import gibbsfields
from gibbsfields.conditionals import (
    KernelCache,
    check_one_point_consistency,
    check_pair_consistency,
    finite_conditional,
    one_point_from_model,
    reconstruct_from_one_point,
)
from gibbsfields.energy import (
    check_antisymmetry,
    check_cocycle,
    check_decomposition,
    check_one_point_exchange,
    gibbs_form_from_energy,
    hamiltonian_from_energy,
    transition_energy,
)
from gibbsfields.fields import check_marginal_consistency, seeded_positive_table
from gibbsfields.lattice import (
    Configuration,
    Volume,
    binary_alphabet,
    box_filtration,
    enumerate_configurations,
    interval_filtration,
    line_window,
    volume,
)
from gibbsfields.models import (
    bernoulli_product,
    example1_pair,
    example2_limiting_hamiltonian,
    example2_model,
    ising_demo,
)
from gibbsfields.specifications import (
    ising_potential,
    onepoint_spec_from_tef,
    pair_site_fixtures,
    spec_from_onepoint,
    tef_from_potential,
    validate_1spec,
    validate_spec,
    validate_tef,
    volume_split_fixtures,
)
from gibbsfields.diagnostics import (
    BoundaryFamily,
    DIVERGENCE_WITNESS,
    UNIFORM_EVIDENCE,
    filtration_independence_check,
    mixed_family,
    non_gibbs_witness,
    oscillating_density_boundary,
    uniform_convergence_report,
)

BIN = binary_alphabet()


def report(number, name, started, limit=None):
    elapsed = time.monotonic() - started
    line = f"ACCEPTANCE {number} [PRIMARY] {name}: PASS ({elapsed:.1f}s)"
    print(line, flush=True)
    if limit is not None:
        assert elapsed <= limit, f"criterion {number} exceeded {limit}s: {elapsed:.1f}s"


def all_conditions(window, target, alphabet):
    """Every configuration on every sub-volume of window \\ target."""
    rest = (window - target).sites
    for mask in range(2 ** len(rest)):
        chosen = [s for i, s in enumerate(rest) if mask >> i & 1]
        lam = Volume.of(chosen) if chosen else Volume.empty()
        yield from enumerate_configurations(lam, alphabet)


def proper_nonempty_subsets(V):
    for size in range(1, len(V)):
        for sites in combinations(V.sites, size):
            yield Volume.of(sites)


def test_criterion_1_consistency_identities():
    """Pairwise and one-point consistency identities, exact, on 50 seeded tables."""
    started = time.monotonic()
    sizes = [3, 4, 5, 6]
    for seed in range(50):
        window = line_window(sizes[seed % len(sizes)])
        m = seeded_positive_table(window, BIN, seed)
        kernels = KernelCache(m)
        for v_size in range(2, len(window) + 1):
            for v_sites in combinations(window.sites, v_size):
                V = Volume.of(v_sites)
                subsets = list(proper_nonempty_subsets(V))
                for z in all_conditions(window, V, BIN):
                    for I in subsets:
                        assert check_pair_consistency(m, I, V, z, kernels)
        for t, s in combinations(window.sites, 2):
            pair = Volume.of([t, s])
            for z in all_conditions(window, pair, BIN):
                assert check_one_point_consistency(m, t, s, z, kernels)
    report(1, "consistency-identities", started, limit=60)


def reconstruction_fixture_tables():
    sizes = [3, 4, 5]
    return [(seed, seeded_positive_table(line_window(sizes[seed % 3]), BIN, 100 + seed))
            for seed in range(20)]


def test_criterion_2_reconstruction():
    """One-point reconstruction equals direct conditioning everywhere,
    invariant under reference and site order."""
    started = time.monotonic()
    for seed, m in reconstruction_fixture_tables():
        window = m.window
        one_point = one_point_from_model(m)
        for v_size in range(1, len(window) + 1):
            for v_sites in combinations(window.sites, v_size):
                V = Volume.of(v_sites)
                for z in all_conditions(window, V, BIN):
                    direct = finite_conditional(m, V, z)
                    rebuilt = reconstruct_from_one_point(one_point, V, z, BIN)
                    assert all(direct[c] == rebuilt[c] for c in direct.probs)
        # invariance, on a three-site target with a nonempty condition
        if len(window) >= 4:
            V = Volume.of(window.sites[:3])
            z = Configuration(Volume.of(window.sites[3:4]), (1,))
            base = reconstruct_from_one_point(one_point, V, z, BIN)
            for ref in enumerate_configurations(V, BIN):
                again = reconstruct_from_one_point(one_point, V, z, BIN, reference=ref)
                assert all(again[c] == base[c] for c in base.probs)
            for order in permutations(V.sites):
                again = reconstruct_from_one_point(one_point, V, z, BIN,
                                                   site_order=order)
                assert all(again[c] == base[c] for c in base.probs)
    report(2, "one-point-reconstruction", started, limit=60)


def test_criterion_3_gibbs_round_trips():
    """Kernel -> energy -> Gibbs form -> kernel and kernel -> Hamiltonian ->
    Gibbs form -> kernel are exact identities; energy laws hold exactly."""
    started = time.monotonic()
    for seed, m in reconstruction_fixture_tables():
        window = m.window
        kernels = KernelCache(m)
        for v_size in range(1, len(window) + 1):
            for v_sites in combinations(window.sites, v_size):
                V = Volume.of(v_sites)
                refs = enumerate_configurations(V, BIN)
                for z in all_conditions(window, V, BIN):
                    k = kernels(V, z)
                    e = transition_energy(k)
                    back = gibbs_form_from_energy(e, refs[0])
                    assert all(back[c] == k[c] for c in k.probs)
                    h = hamiltonian_from_energy(e, refs[-1])
                    back_h = h.gibbs_kernel()
                    assert all(back_h[c] == k[c] for c in k.probs)
                    if v_size <= 2:
                        assert check_antisymmetry(e)
                        assert check_cocycle(e)
        # energy laws across splits: exhaustive in volumes, conditions up to
        # two fixed sites
        sites = window.sites
        for a_size in (1, 2):
            for b_size in (1, 2):
                for a_sites in combinations(sites, a_size):
                    V = Volume.of(a_sites)
                    rest = [s for s in sites if s not in a_sites]
                    for b_sites in combinations(rest, b_size):
                        I = Volume.of(b_sites)
                        outside = (window - V) - I
                        lam = Volume.of(outside.sites[:2]) if outside else Volume.empty()
                        for z in enumerate_configurations(lam, BIN):
                            assert check_decomposition(m, V, I, z, kernels)
        for t, s in combinations(sites, 2):
            outside = window - Volume.of([t, s])
            lam = Volume.of(outside.sites[:2]) if outside else Volume.empty()
            for z in enumerate_configurations(lam, BIN):
                assert check_one_point_exchange(m, t, s, z, kernels)
    report(3, "gibbs-form-round-trips", started, limit=60)


def test_criterion_4_example1():
    """The chain pair: exact marginal consistency, identical one-point
    kernels under two-neighbor conditions, closed form incl. 9/10."""
    started = time.monotonic()
    plus, minus = example1_pair(8, Fraction(1, 2), Fraction(1, 2))
    window = plus.window
    sites = window.sites
    for model in (plus, minus):
        for s_size in range(2, len(sites) + 1):
            for s_sites in combinations(sites, s_size):
                S = Volume.of(s_sites)
                for v_size in range(1, s_size):
                    for v_sites in combinations(s_sites, v_size):
                        assert check_marginal_consistency(model, S, Volume.of(v_sites))

    for t in range(2, 8):
        neighbors = volume(t - 1, t + 1)
        extras = (window - volume(t)) - neighbors
        for mask in range(2 ** len(extras)):
            chosen = [s for i, s in enumerate(extras.sites) if mask >> i & 1]
            lam = neighbors | Volume.of(chosen) if chosen else neighbors
            for z in enumerate_configurations(lam, plus.alphabet):
                k_plus = finite_conditional(plus, volume(t), z)
                k_minus = finite_conditional(minus, volume(t), z)
                closed = plus.interior_conditional(t, z[(t - 1,)], z[(t + 1,)])
                for sym in plus.alphabet.symbols:
                    assert k_plus.value(sym) == k_minus.value(sym) == closed[sym]

    nine_tenths = finite_conditional(
        plus, volume(4), Configuration(volume(3, 5), (1, 1))).value(1)
    assert nine_tenths == Fraction(9, 10)
    report(4, "example1-reproduction", started, limit=30)


def test_criterion_5_example2():
    """Mixture conditionals exact for every condition up to size 12 and
    tau in {1,2,3}; oscillating witness with persistent gap >= 0.4; the
    degenerate limiting Hamiltonian."""
    started = time.monotonic()
    for tau in (1, 2, 3):
        model = example2_model(tau, line_window(27))
        for lam_size in range(1, 13):
            lam = Volume.of(range(1, lam_size + 1))
            for z in enumerate_configurations(lam, BIN):
                k = finite_conditional(model, volume(0), z)
                expect = Fraction(z.count(1) + tau, lam_size + tau + 1)
                assert k.value(1) == expect
                assert k.value(0) == 1 - expect

    for tau in (1, 2, 3):
        model = example2_model(tau, line_window(325))
        F = box_filtration(0, [6, 18, 54, 162], model.window)
        witness = non_gibbs_witness(model, 0, F, strategy="oscillating-density",
                                    gap_tol=1e-9)
        assert witness is not None
        tail = [Fraction(g) for g in witness["gap_trace"][-3:]]
        assert min(tail) >= Fraction(2, 5)

    assert example2_limiting_hamiltonian(Fraction(1, 2), 1) == math.log(2)
    assert example2_limiting_hamiltonian(0, 0) == 0.0
    assert example2_limiting_hamiltonian(0, 1) == math.inf
    assert example2_limiting_hamiltonian(1, 1) == 0.0
    assert example2_limiting_hamiltonian(1, 0) == math.inf
    for p in (Fraction(1, 4), Fraction(3, 4)):
        got = example2_limiting_hamiltonian(p, 1)
        assert math.isclose(got, -math.log(float(p)), rel_tol=1e-15)
    report(5, "example2-reproduction", started, limit=30)


def test_criterion_6_potential_pipeline():
    """Energy field from the pair potential, its 1-spec, the extended
    spec, and finite-volume conditionals all cohere within 1e-12 on an
    11-site window for three couplings."""
    started = time.monotonic()
    tol = 1e-12
    window = line_window(11)
    spin = ising_demo(0.1, window=11).alphabet
    for beta in (0.1, 0.4, 1.0):
        phi = ising_potential(beta)
        tef = tef_from_potential(phi, window, spin)
        q = onepoint_spec_from_tef(tef)
        Q = spec_from_onepoint(q)

        fixtures, meta = pair_site_fixtures(window, spin, max_tuples=10**6, seed=0)
        assert not meta.sampled
        tef_report = validate_tef(tef, fixtures, tol=tol, meta=meta)
        assert tef_report.ok and tef_report.max_residual <= tol
        spec1_report = validate_1spec(q, fixtures, tol=tol, meta=meta)
        assert spec1_report.ok and spec1_report.max_residual <= tol

        vol_fixtures, vol_meta = volume_split_fixtures(
            window, spin, max_volume=3, max_tuples=4000, seed=0)
        spec_report = validate_spec(Q, vol_fixtures, tol=tol, meta=vol_meta)
        assert spec_report.ok and spec_report.max_residual <= tol

        model = ising_demo(beta, window=11)
        import random

        rng = random.Random(7)
        for _ in range(40):
            v_size = rng.randint(1, 3)
            V = Volume.of(rng.sample(window.sites, v_size))
            rest = window - V
            z = Configuration(rest, tuple(rng.choice(spin.symbols) for _ in rest))
            direct = finite_conditional(model, V, z)
            spec_kernel = Q.kernel(V, z)
            for c in direct.probs:
                assert abs(float(direct[c]) - float(spec_kernel[c])) <= tol
    report(6, "potential-pipeline", started, limit=120)


def test_criterion_7_diagnostics_discrimination():
    """Uniform evidence with zero gap past the Markov radius for Ising and
    product fields; divergence witness for the mixture; filtration
    independence across three filtrations for the Markov cases."""
    started = time.monotonic()

    ising = ising_demo(0.4, window=9)
    F_ising = box_filtration(0, [1, 2, 3], ising.window)
    fam_spin = mixed_family(ising.alphabet)
    rep = uniform_convergence_report(ising, 0, F_ising, fam_spin, gap_tol=1e-12)
    assert rep.verdict == UNIFORM_EVIDENCE
    for stage in rep.stages[1:]:  # past the Markov radius
        assert float(stage.sup_gap) <= 1e-12

    product = bernoulli_product(Fraction(1, 3), line_window(9))
    fam_bin = mixed_family(product.alphabet)
    rep_p = uniform_convergence_report(product, 0, F_ising, fam_bin, gap_tol=1e-12)
    assert rep_p.verdict == UNIFORM_EVIDENCE
    assert all(stage.sup_gap == 0 for stage in rep_p.stages)

    mixture = example2_model(1, line_window(325))
    F_mix = box_filtration(0, [6, 18, 54, 162], mixture.window)
    adversarial = BoundaryFamily(
        (oscillating_density_boundary(start="high"),
         oscillating_density_boundary(start="low")), "oscillating-density")
    rep_m = uniform_convergence_report(mixture, 0, F_mix, adversarial, gap_tol=1e-9)
    assert rep_m.verdict == DIVERGENCE_WITNESS

    filtrations = [
        box_filtration(0, [1, 2, 3], ising.window),
        box_filtration(0, [2, 4], ising.window),
        interval_filtration(0, [(1, 2), (2, 4), (4, 4)]),
    ]
    for markov_model, fam in ((ising, fam_spin), (product, fam_bin)):
        for i, j in combinations(range(3), 2):
            ok, _ = filtration_independence_check(
                markov_model, 0, filtrations[i], filtrations[j], fam, tol=1e-12)
            assert ok
    report(7, "diagnostics-discrimination", started, limit=60)


def test_criterion_8_determinism():
    """Bit-reproducible reports across repeated runs and interpreter
    processes with different hash seeds (rational mode)."""
    started = time.monotonic()

    def run_report():
        mixture = example2_model(1, line_window(325))
        F = box_filtration(0, [6, 18, 54, 162], mixture.window)
        fam = mixed_family(mixture.alphabet, include_oscillating=True,
                           include_half=True)
        rep = uniform_convergence_report(mixture, 0, F, fam, gap_tol=1e-9)
        return json.dumps(rep.to_json_dict(), sort_keys=True)

    single = run_report()
    assert run_report() == single
    assert run_report() == single

    # child interpreters get only the location of the package under test
    package_root = str(Path(gibbsfields.__file__).resolve().parent.parent)
    outputs = []
    for hashseed in ("0", "31337"):
        code = (
            "import json\n"
            "from fractions import Fraction\n"
            "from gibbsfields.lattice import line_window, box_filtration\n"
            "from gibbsfields.models import example2_model\n"
            "from gibbsfields.diagnostics import mixed_family, uniform_convergence_report\n"
            "m = example2_model(1, line_window(325))\n"
            "F = box_filtration(0, [6, 18, 54, 162], m.window)\n"
            "fam = mixed_family(m.alphabet, include_oscillating=True, include_half=True)\n"
            "rep = uniform_convergence_report(m, 0, F, fam, gap_tol=1e-9)\n"
            "print(json.dumps(rep.to_json_dict(), sort_keys=True))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env={"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hashseed,
                 "PYTHONPATH": package_root, "PYTHONDONTWRITEBYTECODE": "1"})
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]

    # witness traces replay bit-for-bit
    mixture = example2_model(1, line_window(325))
    F = box_filtration(0, [6, 18, 54, 162], mixture.window)
    first = non_gibbs_witness(mixture, 0, F)
    second = non_gibbs_witness(example2_model(1, line_window(325)), 0, F)
    assert first == second
    report(8, "determinism", started, limit=60)
