import math
from fractions import Fraction
from itertools import combinations, product

import pytest

from gibbsfields.conditionals import (
    ConditionalKernel,
    KernelCache,
    NullConditionError,
    PositivityError,
    finite_conditional,
)
from gibbsfields.energy import (
    HamiltonianTable,
    InconsistentEnergyError,
    TransitionEnergy,
    check_antisymmetry,
    check_cocycle,
    check_decomposition,
    check_hamiltonian_consistency,
    check_one_point_exchange,
    gibbs_form_from_energy,
    hamiltonian_from_energy,
    transition_energy,
)
from gibbsfields.fields import seeded_positive_table, table_field
from gibbsfields.lattice import (
    Alphabet,
    Configuration,
    Volume,
    binary_alphabet,
    box_filtration,
    concat,
    enumerate_configurations,
    line_window,
    volume,
)
from gibbsfields.models import bernoulli_product, example1_pair, example2_model, ising_demo
from gibbsfields.specifications import (
    onepoint_spec_from_model,
    spec_from_model,
    tef_from_1spec,
    validate_spec,
    validate_tef,
)
from gibbsfields.diagnostics import (
    BoundaryFamily,
    constant_density_boundary,
    density_switch_boundary,
    energy_criterion_report,
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


def test_antisymmetry_negative_control():
    """ratio(x, x) = 2 breaks antisymmetry, and the Gibbs form refuses it."""
    _, k = sample_kernel()
    configs = list(k.probs)
    ratios = {(x, u): k.probs[x] / k.probs[u] for x in configs for u in configs}
    ratios[(configs[0], configs[0])] = Fraction(2)
    e = TransitionEnergy.from_ratios(k.volume, k.condition, ratios)
    assert not check_antisymmetry(e)
    with pytest.raises(InconsistentEnergyError):
        gibbs_form_from_energy(e, configs[0])


def test_cocycle_negative_control():
    _, k = sample_kernel()
    configs = list(k.probs)
    ratios = {}
    for x in configs:
        for u in configs:
            ratios[(x, u)] = k.probs[x] / k.probs[u]
    ratios[(configs[0], configs[1])] *= 2  # break additivity, keep the rest
    e = TransitionEnergy.from_ratios(k.volume, k.condition, ratios)
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
        kernels._cache[(V, cond)] = ConditionalKernel(good.volume, cond, probs)
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
    assert h0.weights[configs[0]] == 1 and h0.energy(configs[0]) == 0.0
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


def test_hamiltonian_value_is_the_entry_and_energy_is_minus_its_log():
    """A Hamiltonian table is a table: value(symbol) reads the weight w of a
    one-site table, as on any kernel, and energy(x) is H(x) = -ln w(x)."""
    vol = volume(0)
    k = finite_conditional(seeded_positive_table(vol, BIN, 4), vol,
                           Configuration(Volume.empty(), ()))
    configs = enumerate_configurations(vol, BIN)
    h = hamiltonian_from_energy(transition_energy(k), configs[1])
    for x in configs:
        (symbol,) = x.symbols
        assert h.value(symbol) == h.weights[x] == k.value(symbol) / k.value(1)
        assert h.energy(x) == -math.log(h.weights[x])
    assert h.energy(configs[1]) == 0.0


def test_hamiltonian_rejects_infinite_values():
    vol = volume(0)
    configs = enumerate_configurations(vol, BIN)
    empty = Configuration(Volume.empty(), ())
    weights = {configs[0]: Fraction(1), configs[1]: Fraction(0)}
    table = HamiltonianTable(vol, empty, configs[0], weights)
    assert table.energy(configs[1]) == math.inf
    with pytest.raises(PositivityError):
        table.gibbs_kernel()


def test_editing_a_dict_read_from_a_hamiltonian_changes_nothing():
    """weights and probs are new dicts on every read: an edit to one, even to
    a zero weight, changes no later read, positivity verdict or Gibbs kernel."""
    vol = volume(0, 1)
    k = finite_conditional(seeded_positive_table(vol, BIN, 3), vol,
                           Configuration(Volume.empty(), ()))
    configs = enumerate_configurations(vol, BIN)
    h = hamiltonian_from_energy(transition_energy(k), configs[0])
    before = dict(h.weights)
    for read in (h.weights, h.probs):
        read[configs[2]] *= 3
        read[configs[1]] = Fraction(0)
        assert h.weights == h.probs == before and h.weights is not read
        assert h[configs[1]] == before[configs[1]] and h.is_positive()
        assert all(h.gibbs_kernel()[x] == k[x] for x in configs)


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
    moduli = energy_criterion_report(mi, (0,), F, fam)["moduli"]
    assert all(m <= 1e-12 for m in moduli)

    mp = bernoulli_product(Fraction(1, 3), line_window(9))
    fam_p = locality_probe_family(mp.alphabet, F)
    moduli_p = energy_criterion_report(mp, (0,), F, fam_p)["moduli"]
    assert all(m == 0 for m in moduli_p)


def test_energy_quasilocality_example2_bounded_away():
    m = example2_model(1, line_window(325))
    F = box_filtration(0, [6, 18, 54, 162], m.window)
    gens = [constant_density_boundary(Fraction(1, 4))]
    gens += [density_switch_boundary(Fraction(1, 4), Fraction(3, 4), i) for i in range(3)]
    moduli = energy_criterion_report(m, (0,), F, BoundaryFamily(tuple(gens)))["moduli"]
    assert len(moduli) == 3
    assert all(mod >= 1.0 for mod in moduli)


def energy_chain_models() -> dict:
    """Seeded rational tables on 3 to 5 sites, binary and ternary, and
    example1, whose model overrides ``marginal``."""
    ternary = Alphabet.of((0, 1, 2))
    models = {f"table{n}-{alphabet.size}": seeded_positive_table(line_window(n), alphabet, 60 + n)
              for n, alphabet in product((3, 4, 5), (BIN, ternary))}
    models["example1"] = example1_pair(5, Fraction(1, 3), Fraction(2, 5))[1]
    return models


ENERGY_CHAIN_MODELS = energy_chain_models()


def same_fractions(got, expected) -> bool:
    """Equal keys in the same order, and every value a Fraction with the same repr."""
    return (list(got) == list(expected) and all(type(v) is Fraction for v in got.values())
            and list(map(repr, got.values())) == list(map(repr, expected.values())))


def over_sum(weights: dict) -> dict:
    total = sum(weights.values(), Fraction(0))
    return {x: w / total for x, w in weights.items()}


@pytest.mark.parametrize("name", list(ENERGY_CHAIN_MODELS))
def test_rational_energy_chain_matches_the_per_entry_fractions(name):
    """Energies, Gibbs forms, Hamiltonian weights, their Gibbs kernels and
    the 1-spec's energy tables equal the same quantities built entry by
    entry with Fraction division, under conditions on the empty volume, on
    part of the complement and on all of it."""
    m = ENERGY_CHAIN_MODELS[name]
    sites = m.window.sites
    kernels = KernelCache(m)
    tef = tef_from_1spec(onepoint_spec_from_model(m, kernels))
    for V in (Volume.of(sites[1:2]), Volume.of([sites[0], sites[-1]])):
        configs = enumerate_configurations(V, m.alphabet)
        rest = m.window - V
        for lam in (Volume.empty(), Volume.of(rest.sites[::2]), rest):
            for z in enumerate_configurations(lam, m.alphabet)[:4]:
                k = kernels(V, z)
                p = {x: k[x] for x in configs}
                e = transition_energy(k)
                assert same_fractions({(x, u): e.ratio(x, u) for x in p for u in p},
                                      {(x, u): p[x] / p[u] for x in p for u in p})
                for ref in (configs[0], configs[-1]):
                    ratios = {x: p[x] / p[ref] for x in p}
                    assert same_fractions(gibbs_form_from_energy(e, ref).probs, over_sum(ratios))
                    h = hamiltonian_from_energy(e, ref)
                    assert same_fractions(h.gibbs_kernel().probs, over_sum(ratios))
                    assert same_fractions(h.weights, ratios)
                if len(V) == 1 and lam is rest:
                    q = {x.symbols[0]: p[x] for x in p}
                    assert same_fractions(tef.table(V.sites[0], z),
                                          {(a, b): q[a] / q[b] for a in q for b in q})


def test_rational_energy_chain_keeps_the_null_condition_message():
    window = line_window(3)
    probs = dict(seeded_positive_table(window, BIN, 5).table.probs)
    for c in probs:
        if c.symbols[0] == c.symbols[2] == 1:
            probs[c] = Fraction(0)
    total = sum(probs.values())
    m = table_field(window, BIN, {c: v / total for c, v in probs.items()})
    z = Configuration(Volume.of(window.sites[::2]), (1, 1))
    with pytest.raises(NullConditionError) as err:
        transition_energy(KernelCache(m)(Volume.of(window.sites[1:2]), z))
    assert str(err.value) == f"condition has probability {m.prob(z)}: {z}"
    assert str(err.value) == "condition has probability 0: (-1)=1;(1)=1"


def test_gibbs_form_of_a_signed_ratio_table_normalizes_as_fractions():
    """A ratio table with negative ratios passes antisymmetry and the cocycle
    law; over a negative sum its weights change sign, and over a zero sum
    the Gibbs form raises ZeroDivisionError, as Fraction division does."""
    vol = volume(0)
    a, b = enumerate_configurations(vol, BIN)
    empty = Configuration(Volume.empty(), ())
    for r_ab, expected in ((Fraction(-2), {a: Fraction(2), b: Fraction(-1)}), (Fraction(-1), None)):
        e = TransitionEnergy.from_ratios(vol, empty, {(a, a): Fraction(1), (b, b): Fraction(1),
                                                      (a, b): r_ab, (b, a): 1 / r_ab})
        assert check_antisymmetry(e) and check_cocycle(e)
        if expected is None:
            with pytest.raises(ZeroDivisionError, match=r"^Fraction\(-1, 0\)$"):
                gibbs_form_from_energy(e, b)
        else:
            assert same_fractions(gibbs_form_from_energy(e, b).probs, expected)
