from fractions import Fraction
from itertools import combinations, permutations

import pytest

from gibbsfields.conditionals import (
    ConditionalKernel,
    KernelCache,
    NullConditionError,
    PositivityError,
    check_one_point_consistency,
    check_pair_consistency,
    finite_conditional,
    limit_along_filtration,
    limit_estimate_csv,
    markov_radius,
    one_point_from_model,
    reconstruct_from_one_point,
)
from gibbsfields.fields import FLOAT, RATIONAL, scalar_sum, seeded_positive_table
from gibbsfields.lattice import (
    Configuration,
    GeometryError,
    Volume,
    binary_alphabet,
    box_filtration,
    concat,
    configuration,
    enumerate_configurations,
    line_window,
    restrict,
    spin_alphabet,
    volume,
)
from gibbsfields.models import (
    bernoulli_product,
    example1_pair,
    example2_model,
    ising_demo,
)
from gibbsfields.diagnostics import oscillating_density_boundary
from gibbsfields.specifications import (
    ising_potential,
    onepoint_spec_from_model,
    onepoint_spec_from_tef,
    spec_from_model,
    tef_from_potential,
    validate_1spec,
    validate_spec,
)

BIN = binary_alphabet()


def brute_conditional(table_model, V, z):
    """Oracle: conditional by literal summation over the raw window table."""
    raw = table_model.table
    num = {}
    den = Fraction(0)
    for cfg, p in raw.items():
        if z.volume and restrict(cfg, z.volume) != z:
            continue
        den += p
        key = restrict(cfg, V)
        num[key] = num.get(key, Fraction(0)) + p
    return {c: v / den for c, v in num.items()}


def test_finite_conditional_matches_brute_force():
    m = seeded_positive_table(line_window(5), BIN, seed=23)
    V = volume(0, 1)
    lam = volume(-2, 2)
    for z in enumerate_configurations(lam, BIN):
        kernel = finite_conditional(m, V, z)
        oracle = brute_conditional(m, V, z)
        assert all(kernel[c] == oracle[c] for c in oracle)


def test_product_field_independence():
    m = bernoulli_product(Fraction(1, 4), line_window(7))
    for z in enumerate_configurations(volume(-1, 2), BIN):
        k = finite_conditional(m, volume(0), z)
        assert k.value(1) == Fraction(1, 4)
        assert k.value(0) == Fraction(3, 4)


def test_example2_half_case():
    """tau=1, two conditioning sites, one of them up: P(up) = 1/2."""
    m = example2_model(1, 9)
    z = Configuration(volume(1, 2), (1, 0))
    k = finite_conditional(m, volume(0), z)
    assert k.value(1) == Fraction(1, 2)


def test_example1_unit_spin_case():
    """All couplings 1/2, both neighbors up: P(up) = 9/10, by formula and
    by brute-force marginalization of the closed-form tables."""
    plus, minus = example1_pair(8, Fraction(1, 2), Fraction(1, 2))
    z = Configuration(volume(3, 5), (1, 1))
    k_plus = finite_conditional(plus, volume(4), z)
    k_minus = finite_conditional(minus, volume(4), z)
    assert k_plus.value(1) == Fraction(9, 10)
    assert k_minus.value(1) == Fraction(9, 10)
    assert plus.interior_conditional(4, 1, 1)[1] == Fraction(9, 10)


def test_null_condition_raises():
    vol = volume(0, 1, 2)
    probs = {c: Fraction(0) for c in enumerate_configurations(vol, BIN)}
    probs[Configuration(vol, (0, 0, 0))] = Fraction(1, 2)
    probs[Configuration(vol, (1, 1, 1))] = Fraction(1, 2)
    from gibbsfields.fields import table_field

    m = table_field(vol, BIN, probs)
    with pytest.raises(NullConditionError):
        finite_conditional(m, volume(0), Configuration(volume(1, 2), (0, 1)))


def test_limit_markov_stabilizes_exactly():
    m = ising_demo(0.4, window=9)
    F = box_filtration(0, [1, 2, 3, 4], m.window)
    boundary = Configuration(m.window - volume(0), tuple([1] * 8))
    est = limit_along_filtration(m, volume(0), boundary, F, gap_tol=1e-12)
    assert est.converged
    assert est.final_gap <= 1e-15
    # values identical from the first stage on (nearest-neighbor dependence)
    for k in est.values[1:]:
        assert k.sup_distance(est.values[0]) <= 1e-15


def test_limit_example2_stage_values_match_formula():
    m = example2_model(1, line_window(325))
    F = box_filtration(0, [6, 18, 54, 162], m.window)
    gen = oscillating_density_boundary(start="high")
    stage_configs = gen.configs(volume(0), F)
    deep = stage_configs[-1]
    est = limit_along_filtration(m, volume(0), deep, F, gap_tol=1e-9)
    assert not est.converged
    assert est.final_gap >= Fraction(2, 5)
    for kernel, z in zip(est.values, stage_configs):
        expected = m.conditional_one(len(z), z.count(1))
        assert kernel.value(1) == expected


def test_limit_estimate_csv_shape():
    m = bernoulli_product(Fraction(1, 2), line_window(7))
    F = box_filtration(0, [1, 2], m.window)
    boundary = Configuration(m.window - volume(0), tuple([1] * 6))
    est = limit_along_filtration(m, volume(0), boundary, F)
    text = limit_estimate_csv(est, m.alphabet)
    lines = text.strip().splitlines()
    assert lines[0] == "stage,volume_size,g[0],g[1],sup_gap_to_previous"
    assert len(lines) == 3


def test_pair_consistency_random_tables_exhaustive():
    win = line_window(5)
    m = seeded_positive_table(win, BIN, seed=41)
    kernels = KernelCache(m)
    for v_size in (2, 3):
        for v_sites in combinations(win.sites, v_size):
            V = Volume.of(v_sites)
            for i_size in range(1, v_size):
                for i_sites in combinations(v_sites, i_size):
                    I = Volume.of(i_sites)
                    rest = win - V
                    for lam_sites in ([], [rest.sites[0]], list(rest.sites[:2])):
                        lam = Volume.of(lam_sites) if lam_sites else Volume.empty()
                        for z in enumerate_configurations(lam, BIN):
                            assert check_pair_consistency(m, I, V, z, kernels)


def test_one_point_consistency_random_tables():
    win = line_window(5)
    m = seeded_positive_table(win, BIN, seed=42)
    kernels = KernelCache(m)
    for t, s in combinations(win.sites, 2):
        rest = win - Volume.of([t, s])
        lam = Volume.of(rest.sites[:2])
        for z in enumerate_configurations(lam, BIN):
            assert check_one_point_consistency(m, t, s, z, kernels)


def perturb_kernel(kernel):
    """Corrupted fixture: shift mass between the first two kernel entries."""
    probs = dict(kernel.probs)
    keys = list(probs)
    shift = probs[keys[0]] / 2
    probs[keys[0]] -= shift
    probs[keys[1]] += shift
    return ConditionalKernel(kernel.target, kernel.condition, probs,
                             kernel.mode, kernel.tol)


def test_consistency_negative_controls():
    """The identities derive both sides from the same kernels, so they can
    only fail when a kernel itself is corrupted; inject one through the
    cache and the checks must notice. Each check must also agree with the
    specification validator it runs on the same cache: False exactly when
    that validator reports a violation of the law's kind."""
    m = seeded_positive_table(line_window(4), BIN, seed=5)
    V, I = volume(-1, 0, 1), volume(0)
    z = Configuration(Volume.empty(), ())

    def pair_kinds(kernels):
        report = validate_spec(spec_from_model(m, kernels), [(V, I, z)])
        return {v["kind"] for v in report.violations}

    def one_point_kinds(kernels):
        report = validate_1spec(onepoint_spec_from_model(m, kernels), [((-1,), (0,), z)])
        return {v["kind"] for v in report.violations}

    clean = KernelCache(m)
    assert check_pair_consistency(m, I, V, z, clean)
    assert pair_kinds(clean) == set()
    assert check_one_point_consistency(m, (-1,), (0,), z, clean)
    assert one_point_kinds(clean) == set()

    kernels = KernelCache(m)
    y = Configuration(V - I, (1, 0))
    bad = perturb_kernel(finite_conditional(m, I, y))
    kernels._cache[(I, y)] = bad
    assert not check_pair_consistency(m, I, V, z, kernels)
    assert pair_kinds(kernels) == {"consistency"}

    kernels2 = KernelCache(m)
    cond = Configuration(volume(0), (1,))
    bad2 = perturb_kernel(finite_conditional(m, volume(-1), cond))
    kernels2._cache[(volume(-1), cond)] = bad2
    assert not check_one_point_consistency(m, (-1,), (0,), z, kernels2)
    assert one_point_kinds(kernels2) == {"exchange"}

    # doubling one kernel leaves the exchange identity intact (each side
    # holds one of its entries) but breaks normalization
    kernels3 = KernelCache(m)
    good = finite_conditional(m, volume(-1), cond)
    kernels3._cache[(volume(-1), cond)] = ConditionalKernel(
        good.target, good.condition, {c: 2 * p for c, p in good.items()})
    assert not check_one_point_consistency(m, (-1,), (0,), z, kernels3)
    assert one_point_kinds(kernels3) == {"normalization"}


def test_reconstruction_equals_direct_everywhere():
    win = line_window(4)
    m = seeded_positive_table(win, BIN, seed=9)
    one_point = one_point_from_model(m)
    for v_size in (1, 2, 3):
        for v_sites in combinations(win.sites, v_size):
            V = Volume.of(v_sites)
            rest = win - V
            for n_lam in range(len(rest) + 1):
                for lam_sites in combinations(rest.sites, n_lam):
                    lam = Volume.of(lam_sites) if lam_sites else Volume.empty()
                    for z in enumerate_configurations(lam, BIN):
                        direct = finite_conditional(m, V, z)
                        rebuilt = reconstruct_from_one_point(one_point, V, z, BIN)
                        assert all(direct[c] == rebuilt[c] for c in direct.probs)


def test_reconstruction_single_site_is_identity():
    m = seeded_positive_table(line_window(3), BIN, seed=2)
    one_point = one_point_from_model(m)
    V = volume(0)
    z = Configuration(volume(1), (1,))
    rebuilt = reconstruct_from_one_point(one_point, V, z, BIN)
    direct = finite_conditional(m, V, z)
    assert all(rebuilt[c] == direct[c] for c in direct.probs)


def test_reconstruction_reference_and_order_invariance():
    m = seeded_positive_table(line_window(4), BIN, seed=31)
    one_point = one_point_from_model(m)
    V = volume(-1, 0, 1)
    z = Configuration(volume(2), (1,))
    baseline = reconstruct_from_one_point(one_point, V, z, BIN)
    for ref in enumerate_configurations(V, BIN):
        rebuilt = reconstruct_from_one_point(one_point, V, z, BIN, reference=ref)
        assert all(rebuilt[c] == baseline[c] for c in baseline.probs)
    import itertools

    for order in itertools.permutations(V.sites):
        rebuilt = reconstruct_from_one_point(one_point, V, z, BIN, site_order=order)
        assert all(rebuilt[c] == baseline[c] for c in baseline.probs)


def naive_reconstruction(one_point, V, z, alphabet, reference=None, site_order=None,
                         mode=RATIONAL):
    """Reference: every factor of every candidate's weight computed afresh."""
    order = V.sites if site_order is None else tuple(site_order)
    if reference is None:
        reference = Configuration(V, (alphabet.symbols[0],) * len(V))
    weights = {}
    for x in enumerate_configurations(V, alphabet):
        w = Fraction(1) if mode == RATIONAL else 1.0
        for j, t in enumerate(order):
            mixed = {s: x[s] for s in order[:j]}
            mixed.update({s: reference[s] for s in order[j + 1:]})
            interleaved = configuration(mixed)
            table = one_point(t, concat(z, interleaved))
            num, den = table[x[t]], table[reference[t]]
            if num <= 0 or den <= 0:
                raise PositivityError(
                    f"one-point kernel vanishes at factor {j} under {interleaved}")
            w = w * (num / den)
        weights[x] = w
    total = scalar_sum(weights.values(), mode)
    return {x: w / total for x, w in weights.items()}


def test_reconstruction_fetches_each_prefix_table_once():
    """Three binary sites: one table for the empty prefix, two for the
    prefixes of length 1 and four for those of length 2."""
    m = seeded_positive_table(line_window(4), BIN, seed=31)
    inner = one_point_from_model(m)
    calls = []

    def one_point(site, condition):
        calls.append((site, condition))
        return inner(site, condition)

    reconstruct_from_one_point(one_point, volume(-1, 0, 1), Configuration(volume(2), (1,)), BIN)
    assert len(calls) == 7
    assert len(set(calls)) == 7


def test_reconstruction_matches_naive_reference_exactly():
    m = seeded_positive_table(line_window(4), BIN, seed=31)
    one_point = one_point_from_model(m)
    V = volume(-1, 0, 1)
    z = Configuration(volume(2), (1,))
    ref = Configuration(V, (1, 0, 1))
    for order in (None, ((1,), (-1,), (0,))):
        for reference in (None, ref):
            rebuilt = reconstruct_from_one_point(one_point, V, z, BIN, reference=reference,
                                                 site_order=order)
            assert rebuilt.probs == naive_reconstruction(one_point, V, z, BIN, reference, order)


def test_reconstruction_matches_naive_reference_bitwise_on_floats():
    spin = spin_alphabet()
    window = line_window(5)
    q = onepoint_spec_from_tef(tef_from_potential(ising_potential(0.4, 0.3), window, spin))
    one_point = q.as_one_point()
    V = volume(-1, 0, 1)
    z = Configuration(window - V, (1, -1))
    ref = Configuration(V, (1, -1, 1))
    for order in (None, ((0,), (1,), (-1,))):
        for reference in (None, ref):
            rebuilt = reconstruct_from_one_point(one_point, V, z, spin, reference=reference,
                                                 site_order=order, mode=FLOAT)
            naive = naive_reconstruction(one_point, V, z, spin, reference, order, FLOAT)
            assert rebuilt.probs == naive


@pytest.mark.parametrize("order", list(permutations([(0,), (1,), (2,)])))
def test_reconstruction_raises_the_first_positivity_error(order):
    """The last site of the order rules out symbol 1 once the first site
    holds 1; the error names the same factor and condition as the
    per-candidate reference."""
    V = volume(0, 1, 2)
    empty = Configuration(Volume.empty(), ())

    def one_point(site, condition):
        if site == order[-1] and condition[order[0]] == 1:
            return {0: Fraction(1), 1: Fraction(0)}
        return {0: Fraction(1, 2), 1: Fraction(1, 2)}

    with pytest.raises(PositivityError) as expected:
        naive_reconstruction(one_point, V, empty, BIN, site_order=order)
    with pytest.raises(PositivityError) as got:
        reconstruct_from_one_point(one_point, V, empty, BIN, site_order=order)
    assert str(got.value) == str(expected.value)


def test_reconstruction_positivity_error():
    vol = volume(0, 1)
    configs = enumerate_configurations(vol, BIN)
    probs = {c: Fraction(0) for c in configs}
    probs[configs[0]] = Fraction(1, 2)
    probs[configs[3]] = Fraction(1, 2)
    from gibbsfields.fields import table_field

    m = table_field(vol, BIN, probs)

    def one_point(site, condition):
        k = finite_conditional(m, Volume.of([site]), condition)
        return {c.symbols[0]: p for c, p in k.items()}

    with pytest.raises((PositivityError, NullConditionError)):
        reconstruct_from_one_point(one_point, vol, Configuration(Volume.empty(), ()), BIN)


def test_markov_radius_product_ising_mixture():
    product = bernoulli_product(Fraction(1, 3), line_window(7))
    assert markov_radius(product, 0, 2) == 0

    ising = ising_demo(0.7, window=9)
    assert markov_radius(ising, 0, 3) == 1

    mixture = example2_model(1, 7)
    assert markov_radius(mixture, 0, 2) is None


def test_markov_radius_geometry_error():
    product = bernoulli_product(Fraction(1, 2), line_window(5))
    with pytest.raises(GeometryError):
        markov_radius(product, 0, 5)
