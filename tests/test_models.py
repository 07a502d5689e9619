import math
from fractions import Fraction
from itertools import combinations

import pytest

from gibbsfields.conditionals import finite_conditional, markov_radius
from gibbsfields.fields import (
    RATIONAL,
    FiniteDistribution,
    ValidationError,
    check_marginal_consistency,
    marginalize,
    seeded_positive_table,
)
from gibbsfields.lattice import (
    EMPTY_CONFIGURATION,
    Configuration,
    Volume,
    binary_alphabet,
    enumerate_configurations,
    line_window,
    volume,
)
from gibbsfields.models import (
    BernoulliMixtureModel,
    MarkovChainPairModel,
    bernoulli_product,
    example1_pair,
    example2_limiting_hamiltonian,
    example2_model,
    ising_demo,
)


MODEL_KINDS = {
    "table": lambda: seeded_positive_table(line_window(4), binary_alphabet(), 3),
    "product": lambda: bernoulli_product(Fraction(1, 3), 5),
    "example1+": lambda: example1_pair(5, Fraction(1, 2), Fraction(1, 2))[0],
    "example1-": lambda: example1_pair(5, Fraction(1, 2), Fraction(1, 2))[1],
    "example2": lambda: example2_model(1, 7),
    "example2-float": lambda: example2_model(0.5, 7),
    "ising-d1": lambda: ising_demo(0.4, 0.3, 1, 5),
    "ising-d2": lambda: ising_demo(0.4, 0.0, 2, 9),
}


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_the_empty_marginal_is_one_entry_of_one(kind):
    m = MODEL_KINDS[kind]()
    p = m.marginal(Volume.empty())
    assert list(p) == [EMPTY_CONFIGURATION]
    if m.mode == RATIONAL:
        assert p[EMPTY_CONFIGURATION] == 1
    else:
        assert p[EMPTY_CONFIGURATION] == pytest.approx(1.0, abs=1e-12)


def test_example1_parameter_validation():
    with pytest.raises(ValueError):
        example1_pair(4, Fraction(3, 2), Fraction(1, 2))
    with pytest.raises(ValueError):
        example1_pair(4, Fraction(1, 2), Fraction(1))
    with pytest.raises(ValueError):
        example1_pair(1, Fraction(1, 2), Fraction(1, 2))


def test_example1_tail_products_and_initial_law():
    plus, minus = example1_pair(4, Fraction(1, 2), Fraction(1, 2))
    assert plus.k == {4: Fraction(1, 2), 3: Fraction(1, 4),
                      2: Fraction(1, 8), 1: Fraction(1, 16)}
    one = volume(1)
    up = Configuration(one, (1,))
    assert plus.marginal(one)[up] == Fraction(17, 32)
    assert minus.marginal(one)[up] == Fraction(15, 32)


def test_example1_fields_differ_but_kernels_coincide():
    plus, minus = example1_pair(8, Fraction(1, 2), Fraction(1, 2))
    full = plus.window
    assert any(plus.marginal(full)[c] != minus.marginal(full)[c]
               for c in plus.marginal(full))
    # one-point kernels coincide for every interior site and every
    # condition containing both neighbors
    for t in range(2, 8):
        neighbors = volume(t - 1, t + 1)
        extras = (full - volume(t)) - neighbors
        for extra_count in (0, 2):
            lam = neighbors | Volume.of(extras.sites[:extra_count]) \
                if extra_count else neighbors
            for z in enumerate_configurations(lam, plus.alphabet):
                k_p = finite_conditional(plus, volume(t), z)
                k_m = finite_conditional(minus, volume(t), z)
                closed = plus.interior_conditional(t, z[(t - 1,)], z[(t + 1,)])
                for s in plus.alphabet.symbols:
                    assert k_p.value(s) == k_m.value(s) == closed[s]


def test_example1_kernels_differ_without_right_neighbor():
    """Conditions missing a neighbor leave the chains distinguishable."""
    plus, minus = example1_pair(6, Fraction(1, 2), Fraction(1, 2))
    lam = volume(3)  # left neighbor of 4 only
    z = Configuration(lam, (1,))
    k_p = finite_conditional(plus, volume(4), z)
    k_m = finite_conditional(minus, volume(4), z)
    assert k_p.value(1) != k_m.value(1)


def test_example1_marginal_consistency_full():
    plus, _ = example1_pair(6, Fraction(1, 2), Fraction(1, 2))
    sites = plus.window.sites
    for s_size in (2, 3, 4):
        S = Volume.of(sites[:s_size])
        for v_size in range(1, s_size):
            for v_sites in combinations(S.sites, v_size):
                assert check_marginal_consistency(plus, S, Volume.of(v_sites))


def test_example1_nonuniform_couplings():
    c = [Fraction(1, 3), Fraction(2, 5), Fraction(1, 2)]
    plus, minus = example1_pair(4, c, Fraction(3, 4))
    assert plus.k[1] == Fraction(1, 3) * Fraction(2, 5) * Fraction(1, 2) * Fraction(3, 4)
    z = Configuration(volume(1, 3), (1, -1))
    k_p = finite_conditional(plus, volume(2), z)
    closed = plus.interior_conditional(2, 1, -1)
    assert k_p.value(1) == closed[1]
    k_m = finite_conditional(minus, volume(2), z)
    assert k_m.value(1) == closed[1]


def product_of_fraction_factors(model, x):
    """Oracle: the prefix closed form as a product of Fraction factors."""
    n = len(x)
    p = Fraction(1)
    for j in range(1, n):
        p *= (1 + model.c[j - 1] * x[(j,)] * x[(j + 1,)]) / 2
    p *= (1 + model.sign * x[(n,)] * model.k[n]) / 2
    return p


def test_example1_prefix_probability_matches_the_fraction_product():
    c = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 7), Fraction(1, 5), Fraction(5, 9),
         Fraction(1, 2), Fraction(4, 5)]
    for model in example1_pair(8, c, Fraction(1, 3)):
        for n in range(1, 9):
            for x in enumerate_configurations(Volume.of(range(1, n + 1)), model.alphabet):
                got = model.prefix_probability(x)
                want = product_of_fraction_factors(model, x)
                assert type(got) is Fraction
                assert got == want and str(got) == str(want)
        for sites in ((2,), (1, 3), (2, 3, 4)):
            with pytest.raises(ValueError):
                model.prefix_probability(Configuration(volume(*sites), (1,) * len(sites)))


def test_example1_prefix_tables_are_the_per_entry_fraction_tables():
    """A prefix table born from int numerators over the shared denominator
    reads, entry by entry, the Fractions of ``prefix_probability``, equal in
    repr and type, for several N and both signs, with uniform and with
    non-uniform couplings; so do the marginals summed from it."""
    for N, c, kappa in ((2, Fraction(1, 3), Fraction(1, 2)), (5, Fraction(1, 2), Fraction(1, 2)),
                        (7, [Fraction(2, 3), Fraction(3, 7), Fraction(1, 5), Fraction(5, 9),
                             Fraction(1, 2), Fraction(4, 5)], Fraction(2, 9))):
        for model in example1_pair(N, c, kappa):
            for n in range(1, N + 1):
                vol = Volume.of(range(1, n + 1))
                want = FiniteDistribution(vol, model.alphabet, {
                    x: model.prefix_probability(x)
                    for x in enumerate_configurations(vol, model.alphabet)})
                got = model.marginal(vol)
                assert [(type(k), type(v)) for k, v in got.items()] == [
                    (Configuration, Fraction)] * 2 ** n
                assert repr(list(got.items())) == repr(list(want.items()))
                assert got.alphabet == model.alphabet and got.mode == RATIONAL
                inner = Volume.of(range(2, n + 1, 2))
                assert repr(marginalize(got, inner)) == repr(marginalize(want, inner))


def test_example1_prefix_tables_check_their_sum(monkeypatch):
    """The int numerators of a prefix table must sum to its denominator."""
    model = example1_pair(3, Fraction(1, 2), Fraction(1, 2))[0]
    honest = MarkovChainPairModel._prefix_ints
    monkeypatch.setattr(MarkovChainPairModel, "_prefix_ints",
                        lambda self, xs: (honest(self, xs)[0] + (xs == (1, 1)), honest(self, xs)[1]))
    with pytest.raises(ValidationError, match="prefix table 2 sums to 33/32, not 1"):
        model.marginal(volume(2))


def exact_mixture_prob(tau, size, ones):
    total = Fraction(0)
    a = ones + tau - 1
    m = size - ones
    for j in range(m + 1):
        total += Fraction(math.comb(m, j) * (-1) ** j, a + j + 1)
    return tau * total


def test_example2_values_and_formula():
    m = example2_model(1, 13)
    pair = volume(0, 1)
    assert m.prob(Configuration(pair, (1, 1))) == Fraction(1, 3)
    assert m.prob(Configuration(pair, (1, 0))) == Fraction(1, 6)
    for tau in (1, 2, 3):
        model = example2_model(tau, 13)
        for size in (1, 3, 5):
            vol = Volume.of(range(-(size // 2), size - size // 2))
            for cfg in enumerate_configurations(vol, model.alphabet):
                assert model.prob(cfg) == exact_mixture_prob(tau, size, cfg.count(1))


def test_example2_conditional_formula_exact():
    for tau in (1, 2, 3):
        model = example2_model(tau, line_window(27))
        for lam_size in (1, 4, 9, 12):
            lam = Volume.of(range(1, lam_size + 1))
            for ones in range(lam_size + 1):
                z = Configuration(lam, tuple(1 if i < ones else 0
                                             for i in range(lam_size)))
                k = finite_conditional(model, volume(0), z)
                assert k.value(1) == Fraction(ones + tau, lam_size + tau + 1)


def test_example2_float_conditional_formula():
    """A non-integer tau puts the mixture in float mode, where the closed
    form is a float quotient."""
    model = example2_model(1.5, 13)
    assert model.mode == "float"
    z = Configuration(volume(1, 2, 3, 4), (1, 0, 1, 1))
    k = finite_conditional(model, volume(0), z)
    assert model.conditional_one(4, 3) == (3 + 1.5) / (4 + 1.5 + 1)
    assert math.isclose(k.value(1), model.conditional_one(4, 3), rel_tol=1e-12)


def test_example2_conditional_depends_only_on_count():
    model = example2_model(2, 13)
    lam = volume(1, 2, 3, 4)
    configs = [c for c in enumerate_configurations(lam, model.alphabet)
               if c.count(1) == 2]
    values = {finite_conditional(model, volume(0), z).value(1) for z in configs}
    assert values == {Fraction(4, 7)}


def test_example2_float_tau():
    model = example2_model(1.5, 9)
    assert model.mode == "float"
    vol = volume(0, 1)
    table = model.marginal(vol)
    assert table.is_positive()
    total = math.fsum(table.probs.values())
    assert math.isclose(total, 1.0, abs_tol=1e-12)


def test_example2_limiting_hamiltonian_cases():
    assert example2_limiting_hamiltonian(Fraction(1, 2), 1) == math.log(2)
    assert example2_limiting_hamiltonian(Fraction(1, 2), 0) == math.log(2)
    assert example2_limiting_hamiltonian(0, 0) == 0.0
    assert example2_limiting_hamiltonian(0, 1) == math.inf
    assert example2_limiting_hamiltonian(1, 1) == 0.0
    assert example2_limiting_hamiltonian(1, 0) == math.inf
    assert math.isclose(example2_limiting_hamiltonian(Fraction(1, 4), 1),
                        math.log(4))
    assert math.isclose(example2_limiting_hamiltonian(Fraction(1, 4), 0),
                        -math.log(0.75))
    with pytest.raises(ValueError):
        example2_limiting_hamiltonian(Fraction(3, 2), 1)
    with pytest.raises(ValueError):
        example2_limiting_hamiltonian(Fraction(1, 2), 2)


def test_example2_rejects_bad_tau():
    with pytest.raises(ValueError):
        BernoulliMixtureModel(0, line_window(5))


def test_ising_demo_1d_positive_markov():
    m = ising_demo(0.4, window=9)
    assert m.marginal(m.window).is_positive()
    assert markov_radius(m, 0, 2) == 1


def test_ising_demo_2d():
    m = ising_demo(0.3, d=2, window=9)
    assert len(m.window) == 9
    assert m.marginal(m.window).is_positive()
    k = finite_conditional(
        m, Volume.of([(0, 0)]),
        Configuration(m.window - Volume.of([(0, 0)]), tuple([1] * 8)))
    s_sum = 4  # four neighbors, all up
    expected = math.exp(0.3 * s_sum) / (2 * math.cosh(0.3 * s_sum))
    assert math.isclose(k.value(1), expected, rel_tol=1e-12)


def test_ising_field_term_shifts_conditional():
    m = ising_demo(0.0, h=0.7, window=5)
    boundary = Configuration(m.window - volume(0), tuple([-1] * 4))
    k = finite_conditional(m, volume(0), boundary)
    expected = math.exp(0.7) / (2 * math.cosh(0.7))
    assert math.isclose(k.value(1), expected, rel_tol=1e-12)


def test_bernoulli_product_marginals():
    m = bernoulli_product(Fraction(1, 4), line_window(7))
    pair = volume(0, 1)
    table = m.marginal(pair)
    assert table[Configuration(pair, (1, 1))] == Fraction(1, 16)
    assert table[Configuration(pair, (0, 0))] == Fraction(9, 16)
    assert check_marginal_consistency(m, pair, volume(0))
