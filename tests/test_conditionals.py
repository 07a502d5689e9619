import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations, permutations, product

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
    markov_radius,
    one_point_from_model,
    reconstruct_from_one_point,
)
from gibbsfields import fields
from gibbsfields.fields import (
    FLOAT,
    RATIONAL,
    TableField,
    ValidationError,
    check_marginal_consistency,
    marginalize,
    scalar_sum,
    seeded_positive_table,
    table_field,
)
from gibbsfields.lattice import (
    EMPTY_CONFIGURATION,
    Alphabet,
    Configuration,
    DomainError,
    Filtration,
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
from gibbsfields.diagnostics import (
    BoundaryGenerator,
    mixed_family,
    oscillating_density_boundary,
    uniform_convergence_report,
)
from gibbsfields.energy import gibbs_form_from_energy, transition_energy
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
TERNARY = Alphabet.of((0, 1, 2))


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


def reference_conditional(m, V, z) -> dict:
    """The per-entry reference: P(x z) / P(z) for each x, in enumeration order."""
    pz = m.prob(z)
    return {x: m.prob(concat(x, z)) / pz for x in enumerate_configurations(V, m.alphabet)}


def float_table(window, seed):
    rational = seeded_positive_table(window, BIN, seed).table
    return table_field(window, BIN, {c: float(p) for c, p in rational.items()}, FLOAT)


DIFFERENTIAL_MODELS = {
    "table-rational": lambda: seeded_positive_table(line_window(6), BIN, seed=41),
    "table-float": lambda: float_table(line_window(6), 42),
    "ising": lambda: ising_demo(0.4, h=0.2, window=6),
    "example1": lambda: example1_pair(6, Fraction(1, 3), Fraction(1, 2))[1],
    "bernoulli": lambda: bernoulli_product(Fraction(1, 3), 6),
    "bernoulli-float": lambda: bernoulli_product(0.3, 6),
    "example2": lambda: example2_model(2, 6),
}


@pytest.mark.parametrize("name", list(DIFFERENTIAL_MODELS))
def test_finite_conditional_matches_the_per_entry_reference(name):
    """Every kernel equals P(x z) / P(z) read entry by entry, with equal
    reprs, so float kernels are bit-identical: on targets of one and two
    sites, one of them between condition sites, with z on the empty
    volume, on part of the complement and on all of it."""
    m = DIFFERENTIAL_MODELS[name]()
    sites = m.window.sites
    for V in (Volume.of(sites[2:3]), Volume.of([sites[1], sites[4]])):
        rest = m.window - V
        for lam in (Volume.empty(), Volume.of(rest.sites[::2]), rest):
            for z in enumerate_configurations(lam, m.alphabet):
                kernel = finite_conditional(m, V, z)
                reference = reference_conditional(m, V, z)
                assert kernel.probs == reference
                assert list(map(repr, kernel.probs.items())) == list(map(repr, reference.items()))


def two_point_table():
    """Three binary sites, (0) to (2), that hold 000 and 111 with probability 1/2 each."""
    vol = volume(0, 1, 2)
    probs = {c: Fraction(0) for c in enumerate_configurations(vol, BIN)}
    probs[Configuration(vol, (0, 0, 0))] = Fraction(1, 2)
    probs[Configuration(vol, (1, 1, 1))] = Fraction(1, 2)
    return table_field(vol, BIN, probs)


def test_finite_conditional_errors_keep_their_messages():
    m = two_point_table()
    z = Configuration(volume(1, 2), (0, 1))
    with pytest.raises(NullConditionError) as null:
        finite_conditional(m, volume(0), z)
    assert str(null.value) == "condition has probability 0: (1)=0;(2)=1"
    cases = [(volume(0, 3), EMPTY_CONFIGURATION, "(3) outside the model window"),
             (volume(0, 1), z, "condition volume intersects the target"),
             (volume(0), Configuration(volume(5), (1,)), "condition outside the model window")]
    for V, cond, message in cases:
        with pytest.raises(DomainError) as err:
            finite_conditional(m, V, cond)
        assert str(err.value) == message


class FixedStages(BoundaryGenerator):
    """A generator that hands out the given stage configurations as they are."""

    def __init__(self, stages: list, label: str):
        super().__init__()
        self.stages, self.label = stages, label

    def _build(self, t, F):
        return self.stages


def exact_kernel(sites: tuple) -> ConditionalKernel:
    return finite_conditional(seeded_positive_table(line_window(3), BIN, 5), volume(*sites),
                              EMPTY_CONFIGURATION)


# name -> (call, error type, message) of input checks no other test reaches
INPUT_ERRORS = {
    "limit-stage-cover": (
        lambda: limit_along_filtration(seeded_positive_table(line_window(3), BIN, 3), volume(0),
                                       configuration({(1,): 0}), box_filtration((0,), [1])),
        DomainError, "boundary does not cover stage 0"),
    "limit-null-stage": (
        lambda: limit_along_filtration(two_point_table(), volume(0), configuration(
            {(1,): 0, (2,): 1}), Filtration((volume(0, 1), volume(0, 1, 2)))),
        NullConditionError, "stage 1: condition has probability 0: (1)=0;(2)=1"),
    "reconstruct-site-order": (
        lambda: reconstruct_from_one_point(one_point_from_model(two_point_table()),
                                           volume(0, 1), EMPTY_CONFIGURATION, BIN,
                                           site_order=[0, 2]),
        DomainError, "site_order must enumerate exactly the target volume"),
    "reconstruct-reference": (
        lambda: reconstruct_from_one_point(one_point_from_model(two_point_table()),
                                           volume(0, 1), EMPTY_CONFIGURATION, BIN,
                                           reference=configuration({(0,): 1})),
        DomainError, "reference must live on the target volume"),
    "sup-distance-volumes": (
        lambda: exact_kernel((0,)).sup_distance(exact_kernel((1,))),
        DomainError, "tables on different volumes"),
    "generator-nesting": (
        lambda: FixedStages([configuration({(1,): 0}), configuration({(2,): 0})],
                            "apart").configs(volume(0), box_filtration((0,), [1, 2])),
        ValueError, "generator 'apart' stages do not nest"),
    "generator-rewrite": (
        lambda: FixedStages([configuration({(1,): 0}), configuration({(1,): 1, (2,): 0})],
                            "flip").configs(volume(0), box_filtration((0,), [1, 2])),
        ValueError, "generator 'flip' rewrites an earlier stage"),
    "marginal-consistency": (
        lambda: check_marginal_consistency(two_point_table(), volume(0), volume(0, 1)),
        DomainError, "need V inside S inside the window"),
    "gibbs-form-reference": (
        lambda: gibbs_form_from_energy(transition_energy(exact_kernel((0, 1))),
                                       configuration({(0,): 1})),
        DomainError, "reference must be a configuration on the energy's volume"),
}


@pytest.mark.parametrize("name", list(INPUT_ERRORS))
def test_input_checks_raise_their_messages(name):
    call, error, message = INPUT_ERRORS[name]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message


def test_value_of_a_multi_site_kernel_names_its_volume():
    k = exact_kernel((0, 1))
    with pytest.raises(DomainError, match=re.escape("one-site volume, not (0);(1)")):
        k.value(0)
    assert exact_kernel((0,)).value(1) == exact_kernel((0,))[configuration({(0,): 1})]


def marginal_quotients(m, V, z) -> dict:
    """P(x z) / P(z) per x on V, each read from ``marginalize(m.table, .)``."""
    joint = marginalize(m.table, V | z.volume)
    pz = marginalize(m.table, z.volume)[z] if z.volume else (Fraction(1) if m.mode == RATIONAL
                                                              else 1.0)
    return {x: joint[concat(x, z)] / pz for x in enumerate_configurations(V, m.alphabet)}


def assert_same_entries(kernel, reference):
    assert list(kernel.probs) == list(reference)
    assert [(repr(p), type(p)) for p in kernel.probs.values()] == [
        (repr(p), type(p)) for p in reference.values()]


def every_target_and_condition(window, alphabet):
    for r in range(len(window) + 1):
        for V in map(Volume.of, combinations(window.sites, r)):
            rest = (window - V).sites
            for s in range(len(rest) + 1):
                for lam in map(Volume.of, combinations(rest, s)):
                    for z in enumerate_configurations(lam, alphabet):
                        yield V, z


@pytest.mark.parametrize("case", ["rational-binary", "rational-ternary", "float-binary"])
def test_table_kernels_are_the_quotients_of_marginalized_tables(case):
    """On a table field every kernel is P(x z) / P(z), both read from the
    tables ``marginalize`` makes: equal in repr and type, so float kernels are
    bit-identical and rational ones Fractions. Every (V, z) on small tables,
    including the empty target and the empty condition."""
    window = line_window(4)
    m = {"rational-binary": lambda: seeded_positive_table(window, BIN, seed=61),
         "rational-ternary": lambda: seeded_positive_table(line_window(3), TERNARY, seed=62),
         "float-binary": lambda: float_table(window, 63)}[case]()
    for V, z in every_target_and_condition(m.window, m.alphabet):
        assert_same_entries(finite_conditional(m, V, z), marginal_quotients(m, V, z))


def test_ising_table_kernels_are_the_quotients_of_marginalized_tables():
    """The 13-site float Ising table, on a seeded sample of (V, z): targets
    of up to three sites, conditions of up to eight."""
    ising = ising_demo(0.4, window=13)
    m = table_field(ising.window, ising.alphabet, ising.table)
    rng = random.Random(64)
    for _ in range(150):
        sites = rng.sample(m.window.sites, rng.randint(0, 11))
        V, lam = Volume.of(sites[:rng.randint(0, 3)]), Volume.of(sites[3:])
        z = rng.choice(enumerate_configurations(lam, m.alphabet))
        assert_same_entries(finite_conditional(m, V, z), marginal_quotients(m, V, z))


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_the_null_condition_message_is_unchanged(mode):
    """P(z) = 0 is reported with the value P(z) has in the mode, whether it is
    read from the marginal on the target and the condition's volume (a table
    field) or asked of the model (a product field with P(1) = 0)."""
    vol = volume(0, 1, 2)
    zero, half = (Fraction(0), Fraction(1, 2)) if mode == RATIONAL else (0.0, 0.5)
    probs = {c: zero for c in enumerate_configurations(vol, BIN)}
    probs[Configuration(vol, (0, 0, 0))] = probs[Configuration(vol, (1, 1, 1))] = half
    shown = "0" if mode == RATIONAL else "0.0"
    for m in (table_field(vol, BIN, probs, mode), bernoulli_product(zero, vol)):
        for V, z in ((volume(0), Configuration(volume(1, 2), (0, 1))),
                     (Volume.empty(), Configuration(volume(0, 2), (1, 0)))):
            with pytest.raises(NullConditionError) as null:
                finite_conditional(m, V, z)
            assert str(null.value) == f"condition has probability {shown}: {z}"


class DisagreeingMarginals(TableField):
    """A table field whose marginal on one site is not the sum of its table."""

    def marginal(self, V):
        if V == volume(1):
            return table_field(V, BIN, {Configuration(V, (0,)): Fraction(3, 4),
                                        Configuration(V, (1,)): Fraction(1, 4)}).table
        return super().marginal(V)


class DisagreeingProb(TableField):
    def prob(self, c):
        return Fraction(1, 4) if c.volume == volume(1) else super().prob(c)


@pytest.mark.parametrize("model", [DisagreeingMarginals, DisagreeingProb])
def test_a_table_field_that_overrides_marginal_or_prob_is_asked_for_p_z(model):
    """P(z) comes from the model when it overrides ``marginal`` or ``prob``, so
    marginals that disagree give a kernel that does not sum to 1."""
    table = seeded_positive_table(line_window(3), BIN, seed=65).table
    m = model(table)
    for z in enumerate_configurations(volume(1), BIN):
        kernel = finite_conditional(m, volume(0), z)
        assert kernel.probs == {x: m.prob(concat(x, z)) / m.prob(z) for x in kernel}
        assert sum(kernel.probs.values()) != 1
    assert sum(finite_conditional(TableField(table), volume(0), z).probs.values()) == 1


def test_a_uniform_report_marginalizes_each_stage_and_the_target_once(monkeypatch):
    """On the 13-site Ising table a uniform report calls ``marginalize`` once
    for the target and once per stage, and never on a condition's volume."""
    ising = ising_demo(0.4, window=13)
    m = table_field(ising.window, ising.alphabet, ising.table)
    F = box_filtration(0, [1, 2, 3, 4, 5], m.window)
    calls = []
    real = fields.marginalize
    monkeypatch.setattr(fields, "marginalize", lambda p, V: calls.append(V) or real(p, V))
    uniform_convergence_report(m, 0, F, mixed_family(m.alphabet, seeds=(1, 2)))
    assert calls == [volume(0), *F]
    assert not {stage - volume(0) for stage in F} & set(calls)


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
    est = limit_along_filtration(m, volume(0), boundary, F)
    assert est.sup_gaps[-1] <= 1e-15
    # values identical from the first stage on (nearest-neighbor dependence)
    for k in est.values[1:]:
        assert k.sup_distance(est.values[0]) <= 1e-15


def test_limit_example2_stage_values_match_formula():
    m = example2_model(1, line_window(325))
    F = box_filtration(0, [6, 18, 54, 162], m.window)
    gen = oscillating_density_boundary(start="high")
    stage_configs = gen.configs(volume(0), F)
    deep = stage_configs[-1]
    est = limit_along_filtration(m, volume(0), deep, F)
    assert est.sup_gaps[-1] >= Fraction(2, 5)
    for kernel, z in zip(est.values, stage_configs):
        expected = m.conditional_one(len(z), z.count(1))
        assert kernel.value(1) == expected


def test_marginal_and_kernel_are_one_table_type():
    """A marginal is the kernel under the empty condition: the comparisons
    work across both views, in both directions."""
    m = seeded_positive_table(line_window(3), BIN, seed=3)
    V = volume(-1, 0)
    p = m.marginal(V)
    k = finite_conditional(m, V, EMPTY_CONFIGURATION)
    assert isinstance(p, ConditionalKernel)
    assert p.volume == k.volume == V and p.condition == k.condition
    for a, b in ((p, k), (k, p)):
        assert a.sup_distance(b) == 0
        assert a.table_equal(b)
        assert a.is_positive() and b.is_positive()
    conditioned = finite_conditional(m, V, Configuration(volume(1), (1,)))
    for a, b in ((p, conditioned), (conditioned, p)):
        assert a.sup_distance(b) == max(abs(p[c] - conditioned[c]) for c in p) > 0
        assert not a.table_equal(b)


def test_exact_sup_distance_is_the_per_entry_fraction_maximum():
    """Between exact kernels over different denominators, sup_distance
    is max |n_a d_b - n_b d_a| / (d_a d_b): the Fraction, in repr and
    type, that the per-entry differences give, whether a kernel was born
    as numerators or from a dict of Fractions, and also when one is over 1."""
    window, V = line_window(4), volume(0, 1)
    kernels = []
    for seed in (3, 8):
        m = seeded_positive_table(window, BIN, seed=seed)
        kernels.append(m.marginal(V))
        for z in enumerate_configurations(volume(-1, 2), BIN)[:2]:
            kernels.append(finite_conditional(m, V, z))
    kernels.append(ConditionalKernel(V, kernels[-1].condition, dict(kernels[0].items())))
    point_mass = [Fraction(1)] + [Fraction(0)] * 3  # over 1: read entry by entry
    kernels.append(ConditionalKernel(V, EMPTY_CONFIGURATION,
                                     dict(zip(enumerate_configurations(V, BIN), point_mass))))
    assert len({k.numerators()[1] for k in kernels}) > 2
    for a, b in permutations(kernels, 2):
        reference = max(abs(a.probs[c] - b.probs[c]) for c in a.probs)
        gap = a.sup_distance(b)
        assert type(gap) is Fraction and repr(gap) == repr(reference)


def test_a_kernel_born_as_numerators_reads_copies_and_pickles_like_a_dict_built_one():
    """finite_conditional's kernel holds ints until an entry is read; a copy
    or a pickled copy made before that reads the same entries, and it equals
    and prints as the kernel built from its entries. Born either way, a kernel
    rejects a condition on its target."""
    m = seeded_positive_table(line_window(3), BIN, seed=4)
    k = finite_conditional(m, volume(0), Configuration(volume(1), (1,)))
    assert "probs" not in vars(k) and not hasattr(k, "gauge")
    copies = [copy.copy(k), pickle.loads(pickle.dumps(k))]
    twin = ConditionalKernel(k.volume, k.condition, dict(k.items()))
    for other in copies:
        assert "probs" not in vars(other) and other == k == twin and repr(other) == repr(twin)
    assert list(k) == list(twin) and len(k) == len(twin) == 2
    on_target = Configuration(volume(0), (1,))
    for born in (lambda: ConditionalKernel(k.volume, on_target, dict(k.items())),
                 lambda: ConditionalKernel._of_numerators(k.volume, on_target, tuple(k),
                                                          *k.numerators())):
        with pytest.raises(DomainError, match="condition volume intersects the target"):
            born()


def test_limit_stage_zero_is_measured_against_the_marginal():
    m = seeded_positive_table(line_window(5), BIN, seed=11)
    t = volume(0)
    F = box_filtration(0, [1, 2], m.window)
    boundary = Configuration(m.window - t, (1, 0, 0, 1))
    est = limit_along_filtration(m, t, boundary, F)
    k = est.values[0]
    assert est.sup_gaps[0] == k.sup_distance(m.marginal(t)) > 0
    assert est.sup_gaps[1] == est.values[1].sup_distance(k)


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
    return ConditionalKernel(kernel.volume, kernel.condition, probs, kernel.mode)


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
        good.volume, good.condition, {c: 2 * p for c, p in good.items()})
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
    one_point = q.table_fn
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


def exact_and_float_families(one_point, float_site):
    """A rational-mode 1-spec and two variants of it that hand out floats:
    at every site, and at float_site only, so that exact and float weights
    meet in one reconstruction."""
    def floats(site, condition):
        return {a: float(p) for a, p in one_point(site, condition).items()}

    def mixed(site, condition):
        return (floats if site == float_site else one_point)(site, condition)

    return one_point, floats, mixed


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_reconstruction_matches_the_naive_reference_on_seeded_tables(n, mode):
    """Every order of a 3-site target, two references, z on the empty
    volume, on part of the complement and on all of it: equal Fractions of
    equal type on exact tables, equal reprs on floats, in enumeration
    order. In rational mode a 1-spec that hands out floats, at every site
    or at one, is refused by name."""
    window = line_window(n)
    V = Volume.of(window.sites[:3])
    if mode == RATIONAL:
        m = seeded_positive_table(window, BIN, seed=50 + n)
        exact, floats, mixed = exact_and_float_families(one_point_from_model(m), V.sites[1])
        families = [exact]
        for one_point in (floats, mixed):
            with pytest.raises(ValidationError, match="rational mode: 0\\."):
                reconstruct_from_one_point(one_point, V, EMPTY_CONFIGURATION, BIN)
    else:
        families = [one_point_from_model(float_table(window, 50 + n))]
    rest = window - V
    volumes = dict.fromkeys([Volume.empty(), Volume.of(rest.sites[:1]), rest])
    for z in (z for lam in volumes for z in enumerate_configurations(lam, BIN)):
        for one_point, order, reference in product(
                families, permutations(V.sites), (None, Configuration(V, (1, 0, 1)))):
            rebuilt = reconstruct_from_one_point(one_point, V, z, BIN, reference, order, mode)
            naive = naive_reconstruction(one_point, V, z, BIN, reference, order, mode)
            assert rebuilt.probs == naive
            assert list(map(repr, rebuilt.probs.items())) == list(map(repr, naive.items()))


# Two sources of failure per kind, as (factor, (k, symbol) held at order[k] or None, what the
# table does there): it vanishes at a symbol or at the reference symbol, or the fetch raises.
# In each kind one source fails later candidates at a shallower factor than the other.
FAILURES = {
    "first": [(0, None, 1), (2, (1, 1), 1)],
    "inner": [(1, (0, 1), 1), (2, (1, 0), 1)],
    "reference": [(2, (0, 1), "reference"), (1, (0, 0), 1)],
    "fetch": [(1, (0, 1), "raise"), (2, (1, 1), 1)],
}


def failing_one_point(kind, order, reference):
    """A rational 1-spec on volume(0, 1, 2) with the failures of FAILURES[kind]."""
    def one_point(site, condition):
        i = order.index(site)
        for factor, held, what in FAILURES[kind]:
            if factor == i and (held is None or condition[order[held[0]]] == held[1]):
                if what == "raise":
                    raise NullConditionError(f"no kernel under {condition}")
                symbol = reference[site] if what == "reference" else what
                return {symbol: Fraction(0), 1 - symbol: Fraction(1)}
        return {0: Fraction(1, 2), 1: Fraction(1, 2)}

    return one_point


@pytest.mark.parametrize("kind", list(FAILURES))
def test_reconstruction_raises_what_the_naive_reference_raises(kind):
    """For every order and two references, the error, its type and its
    message, is that of the first candidate in enumeration order to meet
    a vanishing factor or a failing fetch, as in the per-candidate
    reference."""
    V = volume(0, 1, 2)
    raised = set()
    for order, symbols in product(permutations(V.sites), [(0, 0, 0), (1, 0, 1)]):
        reference = Configuration(V, symbols)
        one_point = failing_one_point(kind, order, reference)
        with pytest.raises((PositivityError, NullConditionError)) as expected:
            naive_reconstruction(one_point, V, EMPTY_CONFIGURATION, BIN, reference, order)
        with pytest.raises((PositivityError, NullConditionError)) as got:
            reconstruct_from_one_point(one_point, V, EMPTY_CONFIGURATION, BIN, reference, order)
        assert (type(got.value), str(got.value)) == (type(expected.value), str(expected.value))
        raised.add(str(expected.value))
    assert len(raised) > 1


def test_reconstruction_from_a_degenerate_table_raises_what_the_naive_reference_raises():
    """A table field with zero entries, read through its own one-point
    kernels: some fetches raise NullConditionError, some factors vanish.
    For every order, reference and condition the exception type and
    message, or the kernel, equal the per-candidate reference's."""
    window = volume(0, 1, 2, 3)
    probs = dict(seeded_positive_table(window, BIN, seed=8).table.probs)
    for c in probs:
        if c.symbols[1:] == (1, 1, 1) or c.symbols[:2] == (0, 1) and c.symbols[3] == 0:
            probs[c] = Fraction(0)
    total = sum(probs.values())
    one_point = one_point_from_model(table_field(window, BIN, {c: p / total
                                                               for c, p in probs.items()}))
    V = volume(0, 1, 2)
    seen = set()
    for z, order, reference in product(enumerate_configurations(volume(3), BIN),
                                       permutations(V.sites), enumerate_configurations(V, BIN)):
        try:
            expected = naive_reconstruction(one_point, V, z, BIN, reference, order)
        except (NullConditionError, PositivityError) as err:
            expected = err
        try:
            got = reconstruct_from_one_point(one_point, V, z, BIN, reference, order).probs
        except (NullConditionError, PositivityError) as err:
            got = err
        assert type(got) is type(expected) and str(got) == str(expected)
        seen.add(type(expected))
    assert seen == {NullConditionError, PositivityError}


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


def test_float_kernel_positivity_has_no_floor():
    """A float kernel entry of 1e-14 is small, not vanishing; 0.0 vanishes."""
    t = volume(0)
    z = configuration({1: 1})
    tiny = ConditionalKernel(t, z, {Configuration(t, (-1,)): 1e-14,
                                    Configuration(t, (1,)): 1.0 - 1e-14}, FLOAT)
    assert tiny.is_positive()
    zero = ConditionalKernel(t, z, {Configuration(t, (-1,)): 0.0,
                                    Configuration(t, (1,)): 1.0}, FLOAT)
    assert not zero.is_positive()
