import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from gibbsfields.conditionals import (
    ConditionalKernel,
    KernelCache,
    PositivityError,
    finite_conditional,
)
from gibbsfields.energy import (
    InconsistentEnergyError,
    TransitionEnergy,
    check_antisymmetry,
    check_cocycle,
    check_decomposition,
    check_hamiltonian_consistency,
    check_one_point_exchange,
    energy_quasilocality_modulus,
    gibbs_form_from_energy,
    hamiltonian_from_energy,
    transition_energy,
)
from gibbsfields.fields import seeded_positive_table
from gibbsfields.lattice import (
    Configuration,
    Volume,
    binary_alphabet,
    box_filtration,
    concat,
    enumerate_configurations,
    line_window,
    volume,
)
from gibbsfields.models import bernoulli_product, example2_model, ising_demo
from gibbsfields.specifications import (
    onepoint_spec_from_model,
    spec_from_model,
    tef_from_1spec,
    validate_spec,
    validate_tef,
)
from gibbsfields.diagnostics import (
    constant_density_boundary,
    density_switch_boundary,
    locality_probe_family,
)

BIN = binary_alphabet()


def sample_kernel(seed=3, v_size=2):
    win = line_window(5)
    m = seeded_positive_table(win, BIN, seed)
    V = Volume.of(win.sites[:v_size])
    z = Configuration(Volume.of(win.sites[v_size:v_size + 1]), (1,))
    return m, finite_conditional(m, V, z)


def test_energy_diagonal_and_uniform():
    _, k = sample_kernel()
    e = transition_energy(k)
    configs = e.configurations()
    for x in configs:
        assert e.ratio(x, x) == 1
        assert e.value(x, x) == 0.0

    vol = volume(0)
    uniform = {c: Fraction(1, 2) for c in enumerate_configurations(vol, BIN)}
    from gibbsfields.conditionals import ConditionalKernel

    ek = transition_energy(ConditionalKernel(vol, Configuration(Volume.empty(), ()), uniform))
    a, b = ek.configurations()
    assert ek.ratio(a, b) == 1 and ek.value(a, b) == 0.0


def test_energy_example2_symmetric_kernel_is_zero():
    """tau=1, |condition|=2 with one up: both outcomes 1/2, so energy 0."""
    m = example2_model(1, 9)
    k = finite_conditional(m, volume(0), Configuration(volume(1, 2), (1, 0)))
    e = transition_energy(k)
    up, down = e.configurations()[1], e.configurations()[0]
    assert e.ratio(up, down) == 1


def test_energy_requires_positive_kernel():
    from gibbsfields.conditionals import ConditionalKernel

    vol = volume(0)
    configs = enumerate_configurations(vol, BIN)
    degenerate = ConditionalKernel(vol, Configuration(Volume.empty(), ()),
                                   {configs[0]: Fraction(1), configs[1]: Fraction(0)})
    with pytest.raises(PositivityError):
        transition_energy(degenerate)


def test_antisymmetry_and_cocycle_exact():
    for seed in range(6):
        _, k = sample_kernel(seed, v_size=2)
        e = transition_energy(k)
        assert check_antisymmetry(e)
        assert check_cocycle(e)


def test_cocycle_negative_control():
    _, k = sample_kernel()
    configs = list(k.probs)
    ratios = {}
    for x in configs:
        for u in configs:
            ratios[(x, u)] = k.probs[x] / k.probs[u]
    ratios[(configs[0], configs[1])] *= 2  # break additivity, keep the rest
    e = TransitionEnergy.from_ratios(k.target, k.condition, ratios)
    assert not check_cocycle(e)
    with pytest.raises(InconsistentEnergyError):
        gibbs_form_from_energy(e, configs[0])


def corrupted_cache(m, *targets):
    """Kernel cache of m in which each (volume, condition) kernel of targets
    has half of its first entry's mass moved to its second entry."""
    kernels = KernelCache(m)
    for V, cond in targets:
        good = finite_conditional(m, V, cond)
        probs = dict(good.probs)
        first, second = list(probs)[:2]
        probs[first], probs[second] = probs[first] / 2, probs[second] + probs[first] / 2
        kernels._cache[(V, cond)] = ConditionalKernel(good.target, cond, probs)
    return kernels


def test_one_point_exchange_negative_control():
    """A kernel corrupted through the cache breaks the exchange law; the
    check must agree with the energy-field validator it runs on the same
    cache: False exactly when that validator reports an exchange violation."""
    m = seeded_positive_table(line_window(4), BIN, seed=5)
    t, s, z = (-1,), (0,), Configuration(Volume.empty(), ())

    def kinds(kernels):
        tef = tef_from_1spec(onepoint_spec_from_model(m, kernels))
        return {v["kind"] for v in validate_tef(tef, [(t, s, z)]).violations}

    clean = KernelCache(m)
    assert check_one_point_exchange(m, t, s, z, clean)
    assert kinds(clean) == set()

    kernels = corrupted_cache(m, (volume(-1), Configuration(volume(0), (1,))))
    assert not check_one_point_exchange(m, t, s, z, kernels)
    assert kinds(kernels) == {"exchange"}


def test_decomposition_and_hamiltonian_negative_controls():
    """Each split check fails exactly when validate_spec reports a
    consistency violation on its fixtures. A corrupted joint kernel or
    kernel on V breaks both laws; a corrupted kernel on I breaks only the
    decomposition, which is the one that reads it."""
    m = seeded_positive_table(line_window(4), BIN, seed=5)
    V, I, z = volume(-1), volume(0), Configuration(volume(1), (1,))
    joint = (V | I, z)
    on_V = (V, Configuration(volume(0, 1), (1, 1)))
    on_I = (I, Configuration(volume(-1, 1), (1, 1)))

    def violated(kernels, fixtures):
        report = validate_spec(spec_from_model(m, kernels), fixtures)
        assert {v["kind"] for v in report.violations} <= {"consistency"}
        return not report.ok

    for corrupted, decomposes, consistent in (((), True, True),
                                              ((joint,), False, False),
                                              ((on_V,), False, False),
                                              ((on_I,), False, True)):
        kernels = corrupted_cache(m, *corrupted)
        assert check_decomposition(m, V, I, z, kernels) is decomposes
        assert violated(kernels, [(V | I, V, z), (V | I, I, z)]) is not decomposes
        assert check_hamiltonian_consistency(m, V, I, z, kernels) is consistent
        assert violated(kernels, [(V | I, V, z)]) is not consistent


def decomposition_holds(kernels, V, I, z):
    """The energy additivity law read directly off kernel ratios."""
    big = kernels(V | I, z)
    xs, ys = enumerate_configurations(V, BIN), enumerate_configurations(I, BIN)
    for x, u, y, v in product(xs, xs, ys, ys):
        k_V, k_I = kernels(V, concat(z, y)), kernels(I, concat(z, u))
        if big[concat(x, y)] / big[concat(u, v)] != k_V[x] / k_V[u] * (k_I[y] / k_I[v]):
            return False
    return True


def hamiltonian_consistency_holds(kernels, V, I, z):
    """Gauge-free Hamiltonian consistency read directly off kernel entries."""
    big = kernels(V | I, z)
    xs, ys = enumerate_configurations(V, BIN), enumerate_configurations(I, BIN)
    for x, u, y in product(xs, xs, ys):
        k_V = kernels(V, concat(z, y))
        if big[concat(x, y)] * k_V[u] != big[concat(u, y)] * k_V[x]:
            return False
    return True


def test_split_checks_agree_with_the_laws_on_every_split_and_condition():
    """On a 4-site table with three corrupted kernels, both split checks
    equal the laws they state, over every ordered pair of disjoint
    nonempty volumes and every condition on every subset of the rest."""
    win = line_window(4)
    m = seeded_positive_table(win, BIN, seed=11)
    kernels = corrupted_cache(m, (volume(0, 1), Configuration(Volume.empty(), ())),
                              (volume(-1), Configuration(volume(0, 1), (1, 0))),
                              (volume(2), Configuration(volume(0), (1,))))
    outcomes = []
    for V_size in range(1, 4):
        for V_sites in combinations(win.sites, V_size):
            V = Volume.of(V_sites)
            for I_size in range(1, 5 - V_size):
                for I_sites in combinations((win - V).sites, I_size):
                    I = Volume.of(I_sites)
                    rest = (win - (V | I)).sites
                    for n in range(len(rest) + 1):
                        for lam in combinations(rest, n):
                            lam = Volume.of(lam) if lam else Volume.empty()
                            for z in enumerate_configurations(lam, BIN):
                                dec = check_decomposition(m, V, I, z, kernels)
                                ham = check_hamiltonian_consistency(m, V, I, z, kernels)
                                assert dec == decomposition_holds(kernels, V, I, z)
                                assert ham == hamiltonian_consistency_holds(kernels, V, I, z)
                                outcomes.append((dec, ham))
    # each site is in V, in I, off the condition, or at 0 or 1 on it; V, I nonempty
    assert len(outcomes) == 5 ** 4 - 2 * 4 ** 4 + 3 ** 4
    assert (False, False) in outcomes and (False, True) in outcomes, outcomes


def test_gibbs_round_trip_exact():
    win = line_window(4)
    m = seeded_positive_table(win, BIN, seed=13)
    kernels = KernelCache(m)
    for v_size in (1, 2, 3):
        for v_sites in combinations(win.sites, v_size):
            V = Volume.of(v_sites)
            rest = win - V
            lam = Volume.of(rest.sites[:1])
            for z in enumerate_configurations(lam, BIN):
                k = kernels(V, z)
                e = transition_energy(k)
                for ref in enumerate_configurations(V, BIN):
                    back = gibbs_form_from_energy(e, ref)
                    assert all(back[c] == k[c] for c in k.probs)


def test_zero_energy_gives_uniform():
    vol = volume(0, 1)
    configs = enumerate_configurations(vol, BIN)
    ratios = {(x, u): Fraction(1) for x in configs for u in configs}
    e = TransitionEnergy.from_ratios(vol, Configuration(Volume.empty(), ()), ratios)
    kernel = gibbs_form_from_energy(e, configs[0])
    assert all(p == Fraction(1, 4) for p in kernel.probs.values())


def test_hamiltonian_gauge_and_recovery():
    _, k = sample_kernel(seed=7)
    e = transition_energy(k)
    configs = e.configurations()
    h0 = hamiltonian_from_energy(e, configs[0])
    assert h0.weights[configs[0]] == 1 and h0.value(configs[0]) == 0.0
    # energies recovered from weight ratios
    for x in configs:
        for u in configs:
            assert h0.weights[x] / h0.weights[u] == e.ratio(x, u)
    # two gauges differ by a constant factor on weights
    h1 = hamiltonian_from_energy(e, configs[1])
    factors = {x: h1.weights[x] / h0.weights[x] for x in configs}
    assert len(set(factors.values())) == 1
    # both reproduce the kernel through the Gibbs form
    for h in (h0, h1):
        back = h.gibbs_kernel()
        assert all(back[c] == k[c] for c in k.probs)


def test_hamiltonian_rejects_infinite_values():
    vol = volume(0)
    configs = enumerate_configurations(vol, BIN)
    table = hamiltonian_from_energy(
        transition_energy(finite_conditional(
            seeded_positive_table(vol, BIN, 1), vol, Configuration(Volume.empty(), ()))),
        configs[0])
    table.weights[configs[1]] = Fraction(0)
    assert table.value(configs[1]) == math.inf
    with pytest.raises(PositivityError):
        table.gibbs_kernel()


def test_decomposition_and_exchange_exhaustive_small():
    win = line_window(5)
    m = seeded_positive_table(win, BIN, seed=19)
    kernels = KernelCache(m)
    sites = win.sites
    for a, b in combinations(range(len(sites)), 2):
        V, I = Volume.of([sites[a]]), Volume.of([sites[b]])
        rest = win - (V | I)
        lam = Volume.of(rest.sites[:2])
        for z in enumerate_configurations(lam, BIN):
            assert check_decomposition(m, V, I, z, kernels)
            assert check_one_point_exchange(m, sites[a], sites[b], z, kernels)
            assert check_hamiltonian_consistency(m, V, I, z, kernels)


def test_decomposition_bigger_volumes():
    win = line_window(5)
    m = seeded_positive_table(win, BIN, seed=20)
    kernels = KernelCache(m)
    V, I = volume(-2, 0), volume(-1, 2)
    z = Configuration(volume(1), (1,))
    assert check_decomposition(m, V, I, z, kernels)


def test_decomposition_separates_for_product_fields():
    m = bernoulli_product(Fraction(2, 5), line_window(5))
    V, I = volume(-1), volume(1)
    z = Configuration(volume(0), (1,))
    assert check_decomposition(m, V, I, z)


def test_ising_cocycle_within_float_tol():
    m = ising_demo(0.4, window=7)
    boundary = Configuration(m.window - volume(0, 1), tuple([1] * 5))
    k = finite_conditional(m, volume(0, 1), boundary)
    e = transition_energy(k)
    assert check_antisymmetry(e)
    assert check_cocycle(e)


def test_energy_quasilocality_markov_and_product():
    mi = ising_demo(0.4, window=9)
    F = box_filtration(0, [1, 2, 3], mi.window)
    fam = locality_probe_family(mi.alphabet, F)
    moduli = energy_quasilocality_modulus(mi, (0,), F, list(fam))
    assert all(m <= 1e-12 for m in moduli)

    mp = bernoulli_product(Fraction(1, 3), line_window(9))
    fam_p = locality_probe_family(mp.alphabet, F)
    moduli_p = energy_quasilocality_modulus(mp, (0,), F, list(fam_p))
    assert all(m == 0 for m in moduli_p)


def test_energy_quasilocality_example2_bounded_away():
    m = example2_model(1, line_window(325))
    F = box_filtration(0, [6, 18, 54, 162], m.window)
    gens = [constant_density_boundary(Fraction(1, 4))]
    gens += [density_switch_boundary(Fraction(1, 4), Fraction(3, 4), i) for i in range(3)]
    moduli = energy_quasilocality_modulus(m, (0,), F, gens)
    assert len(moduli) == 3
    assert all(mod >= 1.0 for mod in moduli)
