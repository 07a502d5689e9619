import math
import re
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gibbsfields.fields import (
    FLOAT,
    FiniteDistribution,
    ProductField,
    RandomFieldModel,
    ValidationError,
    check_marginal_consistency,
    marginalize,
    read_distribution_file,
    scalar_sum,
    seeded_positive_table,
    table_field,
    write_distribution_file,
)
from gibbsfields.lattice import (
    Alphabet,
    Configuration,
    DomainError,
    Volume,
    binary_alphabet,
    EMPTY_CONFIGURATION,
    enumerate_configurations,
    grid_window,
    line_window,
    spin_alphabet,
    volume,
)
from gibbsfields.models import example1_pair, example2_model, ising_demo
from gibbsfields.specifications import finite_volume_gibbs, ising_potential


BIN = binary_alphabet()


def uniform_table(vol):
    configs = enumerate_configurations(vol, BIN)
    p = Fraction(1, len(configs))
    return FiniteDistribution(vol, BIN, {c: p for c in configs})


def test_distribution_validates_sum():
    vol = volume(0)
    bad = {Configuration(vol, (0,)): Fraction(1, 2),
           Configuration(vol, (1,)): Fraction(1, 3)}
    with pytest.raises(ValidationError, match="sum"):
        FiniteDistribution(vol, BIN, bad)


def test_distribution_requires_full_enumeration():
    vol = volume(0, 1)
    partial = {Configuration(vol, (0, 0)): Fraction(1)}
    with pytest.raises(ValidationError):
        FiniteDistribution(vol, BIN, partial)


def test_distribution_keys_come_back_canonical_and_unaliased():
    vol = volume(0, 1)
    configs = enumerate_configurations(vol, BIN)
    probs = {c: Fraction(n + 1, 10) for n, c in enumerate(configs)}
    # out of order, and on keys equal to but distinct from the enumeration's
    shuffled = {Configuration(vol, c.symbols): probs[c] for c in reversed(configs)}
    p = FiniteDistribution(vol, BIN, shuffled)
    assert list(p.probs) == list(configs) and p.probs == probs
    # in order: a copy, so mutating the caller's dict leaves the table alone
    q = FiniteDistribution(vol, BIN, probs)
    assert list(q.probs) == list(configs) and q.probs is not probs
    probs[configs[0]] = Fraction(9)
    assert q[configs[0]] == Fraction(1, 10)
    # a missing key is still named
    del shuffled[Configuration(vol, (0, 1))]
    with pytest.raises(ValidationError, match="missing probability"):
        FiniteDistribution(vol, BIN, shuffled)


def test_distribution_rejects_negative():
    vol = volume(0)
    bad = {Configuration(vol, (0,)): Fraction(3, 2),
           Configuration(vol, (1,)): Fraction(-1, 2)}
    with pytest.raises(ValidationError, match="negative"):
        FiniteDistribution(vol, BIN, bad)


def test_marginalize_identity_and_uniform():
    p = uniform_table(volume(0, 1))
    assert marginalize(p, p.volume) is p
    m = marginalize(p, volume(0))
    assert all(v == Fraction(1, 2) for v in m.probs.values())
    with pytest.raises(DomainError):
        marginalize(p, volume(7))


def test_marginal_tower_on_seeded_table():
    m = seeded_positive_table(line_window(5), BIN, seed=11)
    S, T, V = volume(-2, -1, 0, 1), volume(-1, 0, 1), volume(0)
    via_T = marginalize(marginalize(m.marginal(S), T), V)
    direct = marginalize(m.marginal(S), V)
    assert all(via_T[c] == direct[c] for c in direct)
    # independent summation oracle over the raw window table
    from gibbsfields.lattice import restrict

    for target in (V, T):
        sums = {}
        for cfg, p in m.table.items():
            key = restrict(cfg, target)
            sums[key] = sums.get(key, Fraction(0)) + p
        table = m.marginal(target)
        assert all(table[c] == sums[c] for c in sums)


def brute_force_chain_table(model, n):
    """Independent oracle: multiply initial law and transition probabilities."""
    sign = model.sign
    k, c = model.k, model.c
    vol = Volume.of(range(1, n + 1))
    table = {}
    for symbols in product((-1, 1), repeat=n):
        p = Fraction(1 + sign * symbols[0] * k[1], 2)
        for j in range(2, n + 1):
            prev, cur = symbols[j - 2], symbols[j - 1]
            p *= (Fraction(1 + c[j - 2] * prev * cur, 2)
                  * (1 + sign * cur * k[j]) / (1 + sign * prev * k[j - 1]))
        table[Configuration(vol, symbols)] = p
    return FiniteDistribution(vol, spin_alphabet(), table)


@pytest.mark.parametrize("sign_index", [0, 1])
def test_example1_prefix_marginalization_oracle(sign_index):
    """Summing site m+1 out of the (m+1)-prefix table gives the m-prefix,
    and both match the transition-product oracle exactly."""
    model = example1_pair(6, Fraction(1, 2), Fraction(1, 2))[sign_index]
    for m in range(1, 6):
        prefix = Volume.of(range(1, m + 1))
        bigger = Volume.of(range(1, m + 2))
        direct = model.marginal(prefix)
        summed = marginalize(model.marginal(bigger), prefix)
        oracle = brute_force_chain_table(model, m)
        for cfg in direct:
            assert direct[cfg] == summed[cfg] == oracle[cfg]


def test_is_positive():
    p = uniform_table(volume(0, 1))
    assert p.is_positive()
    vol = volume(0)
    half = {Configuration(vol, (0,)): Fraction(1), Configuration(vol, (1,)): Fraction(0)}
    assert not FiniteDistribution(vol, BIN, half).is_positive()
    # float tables have no floor: 1e-14 is small, not vanishing
    tiny = {Configuration(vol, (0,)): 1.0 - 1e-14, Configuration(vol, (1,)): 1e-14}
    assert FiniteDistribution(vol, BIN, tiny, FLOAT).is_positive()
    zero = {Configuration(vol, (0,)): 1.0, Configuration(vol, (1,)): 0.0}
    assert not FiniteDistribution(vol, BIN, zero, FLOAT).is_positive()


def naive_marginalize(p, V):
    """The per-entry marginal: bucket entries by their restriction to V."""
    if V == p.volume:
        return p
    buckets = {}
    for c, prob in p.items():
        key = Configuration(V, tuple(c.symbols[c.volume.index(s)] for s in V))
        buckets.setdefault(key, []).append(prob)
    probs = {c: scalar_sum(vals, p.mode) for c, vals in buckets.items()}
    return FiniteDistribution(V, p.alphabet, probs, p.mode)


def sub_volumes(vol):
    for n in range(len(vol) + 1):
        for sites in combinations(vol.sites, n):
            yield Volume(sites)


def test_marginalize_matches_the_per_entry_reference():
    rational = seeded_positive_table(line_window(5), BIN, 7).table
    grid = grid_window(3, 3)
    ising = finite_volume_gibbs(ising_potential(0.7, 0.3, 2), grid, EMPTY_CONFIGURATION,
                                grid, spin_alphabet())
    ternary = seeded_positive_table(grid_window(2, 3), Alphabet.of((0, 1, 2)), 11).table
    chain = ising_demo(0.4, window=13).table
    chain_volumes = [Volume.empty(), volume(0), volume(-6, -1, 0, 5), volume(-6, 6),
                     Volume.of(range(-6, 6)), Volume.of(range(-3, 4))]
    cases = [(rational, str, sub_volumes(rational.volume)),
             (ising, float.hex, sub_volumes(ising.volume)),
             (ternary, str, sub_volumes(ternary.volume)),
             (chain, float.hex, chain_volumes)]
    for p, text, volumes in cases:
        for V in volumes:
            got, want = marginalize(p, V), naive_marginalize(p, V)
            assert got.volume == V
            assert list(got.probs) == list(enumerate_configurations(V, p.alphabet))
            assert [(c, text(v)) for c, v in got.items()] == \
                [(c, text(v)) for c, v in want.items()]


# Entries across many binades: subnormals, 1e-300, zeros of both signs and
# negatives within the tolerance a table admits. Each table has all of its
# sub-volumes marginalized; with at least two sites, the first site is summed
# out by runs and the last by strided slices, so both ways are reached.
SPECKS = (0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, 3e-200, 1e-17, 1e-15, -1e-14)


@st.composite
def float_tables(draw, alphabet, max_sites):
    window = line_window(draw(st.integers(2, max_sites)))
    configs = enumerate_configurations(window, alphabet)
    entries = draw(st.lists(st.one_of(st.sampled_from(SPECKS), st.floats(1e-6, 1.0)),
                            min_size=len(configs), max_size=len(configs)))
    entries[draw(st.integers(0, len(configs) - 1))] = draw(st.floats(1e-6, 1.0))
    big = math.fsum(e for e in entries if e >= 1e-6)
    entries = [e / big if e >= 1e-6 else e for e in entries]
    return FiniteDistribution(window, alphabet, dict(zip(configs, entries)), FLOAT)


@st.composite
def rational_tables(draw):
    """Entries 1/d, pairwise different d, and the remainder of 1 somewhere."""
    window = line_window(draw(st.integers(2, 4)))
    configs = enumerate_configurations(window, BIN)
    n = len(configs)
    dens = draw(st.lists(st.integers(n, 50 * n), min_size=n - 1, max_size=n - 1, unique=True))
    entries = [Fraction(1, d) for d in dens]
    rest = 1 - sum(entries)
    assume(rest.denominator not in dens)
    entries.insert(draw(st.integers(0, n - 1)), rest)
    return FiniteDistribution(window, BIN, dict(zip(configs, entries)))


def assert_marginals_match_the_reference(p, text):
    for V in sub_volumes(p.volume):
        got, want = marginalize(p, V), naive_marginalize(p, V)
        assert [text(v) for v in got.values()] == [text(v) for v in want.values()]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(float_tables(BIN, 6), float_tables(Alphabet.of((0, 1, 2)), 4)))
def test_float_marginals_are_the_bits_of_the_per_entry_fsum(p):
    assert_marginals_match_the_reference(p, float.hex)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(rational_tables())
def test_rational_marginals_are_the_per_entry_fractions(p):
    assert_marginals_match_the_reference(p, repr)


def assert_marginals_of_marginals_are_the_tables(p, text):
    for S in sub_volumes(p.volume):
        outer = marginalize(p, S)
        for W in sub_volumes(S):
            got, want = marginalize(outer, W), marginalize(p, W)
            assert [text(v) for v in got.values()] == [text(v) for v in want.values()]
            assert got._exact_view == want._exact_view


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.one_of(float_tables(BIN, 5), float_tables(Alphabet.of((0, 1, 2)), 3),
                 rational_tables()))
def test_a_marginal_of_a_marginal_is_the_tables_marginal_bit_for_bit(p):
    """A marginal keeps the exact sums it was made from, at its table's scale,
    so summing it down again gives the bits the table gives."""
    assert_marginals_of_marginals_are_the_tables(p, float.hex if p.mode == FLOAT else repr)


def test_the_ising_tables_marginals_of_marginals_are_its_marginals():
    chain = ising_demo(0.4, window=13).table
    outer = marginalize(chain, Volume.of(range(-5, 6)))
    for W in (Volume.empty(), volume(0), volume(-5, -1, 0, 5), Volume.of(range(-3, 4))):
        got, want = marginalize(outer, W), marginalize(chain, W)
        assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()]


def test_a_non_finite_entry_is_rejected_by_name():
    vol = volume(0, 1)
    configs = enumerate_configurations(vol, BIN)
    for bad in (math.nan, math.inf, -math.inf):
        probs = dict.fromkeys(configs, 0.25)
        probs[configs[2]] = bad
        with pytest.raises(ValidationError,
                           match=re.escape(f"non-finite probability {bad} at {configs[2]}")):
            FiniteDistribution(vol, BIN, probs, FLOAT)


def test_float_scalar_sum_is_fsum_of_floats():
    values = [0.1, 1e100, Fraction(1, 3), -1e100, 7, 0.2, Fraction(-5, 7), 2**60 + 1, 1e-300]
    for vals in (values, values[::-1], values[2:]):
        assert float.hex(scalar_sum(vals, FLOAT)) == \
            float.hex(math.fsum(float(v) for v in vals))


def exact_mixture_prob(tau, size, ones):
    """Oracle: expand (1-p)^m binomially and integrate term by term."""
    total = Fraction(0)
    from math import comb

    a = ones + tau - 1
    m = size - ones
    for j in range(m + 1):
        total += Fraction(comb(m, j) * (-1) ** j, a + j + 1)
    return tau * total


def test_example2_positivity_via_integral_oracle():
    model = example2_model(1, 13)
    for size in range(1, 7):
        vol = Volume.of(range(size))
        table = model.marginal(vol)
        assert table.is_positive()
        for cfg in table:
            assert table[cfg] == exact_mixture_prob(1, size, cfg.count(1))


def test_product_prob_is_the_left_to_right_product_of_the_law():
    """One Fraction of the law's numerators in rational mode, the same value
    and str as the per-site product; in float mode the same bits."""
    window = line_window(5)
    three = Alphabet.of((0, 1, 2))
    exact = ProductField(window, three, {0: Fraction(1, 6), 1: Fraction(1, 2), 2: Fraction(1, 3)})
    rough = ProductField(window, three, {0: 0.1, 1: 0.7, 2: 0.2}, FLOAT)
    configs = (EMPTY_CONFIGURATION, *enumerate_configurations(volume(0, 2), three),
               Configuration(window, (2, 0, 1, 1, 2)))
    for c in configs:
        expected = Fraction(1)
        for v in c.symbols:
            expected *= exact.law[v]
        got = exact.prob(c)
        assert type(got) is Fraction and got == expected and str(got) == str(expected)
        expected = 1.0
        for v in c.symbols:
            expected *= rough.law[v]
        assert rough.prob(c).hex() == expected.hex()


def test_table_field_one_site_and_product():
    vol = volume(0)
    law = {Configuration(vol, (0,)): Fraction(1, 3),
           Configuration(vol, (1,)): Fraction(2, 3)}
    m = table_field(vol, BIN, law)
    assert m.marginal(vol)[Configuration(vol, (0,))] == Fraction(1, 3)

    pair = volume(0, 1)
    prod = {}
    for c in enumerate_configurations(pair, BIN):
        p = Fraction(1)
        for s in c.symbols:
            p *= Fraction(1, 3) if s == 0 else Fraction(2, 3)
        prod[c] = p
    m2 = table_field(pair, BIN, prod)
    for site in pair:
        single = m2.marginal(Volume.of([site]))
        assert single[Configuration(Volume.of([site]), (0,))] == Fraction(1, 3)


@given(st.integers(0, 500))
@settings(max_examples=25, deadline=None)
def test_random_tables_marginal_consistent(seed):
    m = seeded_positive_table(line_window(4), BIN, seed)
    S = volume(-1, 0, 1)
    for site in S:
        assert check_marginal_consistency(m, S, Volume.of([site]))


def test_check_marginal_consistency_negative_control():
    class Corrupted:
        def __init__(self, inner):
            self.inner = inner
            self.window = inner.window
            self.alphabet = inner.alphabet
            self.mode = inner.mode

        def marginal(self, V):
            table = self.inner.marginal(V)
            if len(V) == 1:
                probs = dict(table.items())
                keys = list(probs)
                probs[keys[0]] += Fraction(1, 100)
                probs[keys[1]] -= Fraction(1, 100)
                return FiniteDistribution(V, self.alphabet, probs)
            return table

    m = Corrupted(seeded_positive_table(line_window(4), BIN, 3))
    assert not check_marginal_consistency(m, volume(-1, 0), volume(0))


def test_example2_marginal_consistency():
    model = example2_model(2, 9)
    assert check_marginal_consistency(model, volume(1, 2, 3), volume(1))


def test_distribution_file_roundtrip_bit_exact(tmp_path):
    m = seeded_positive_table(line_window(3), BIN, 17)
    path = tmp_path / "table.tbl"
    write_distribution_file(m.table, path)
    again = read_distribution_file(path)
    assert again.volume == m.table.volume
    assert all(again[c] == m.table[c] for c in m.table)
    # byte-for-byte stable across a second write
    second = tmp_path / "second.tbl"
    write_distribution_file(again, second)
    assert path.read_text() == second.read_text()


def test_a_table_file_with_named_symbols_reads_them_as_names(tmp_path):
    path = tmp_path / "named.tbl"
    path.write_text("volume\t(0);(1)\nalphabet\tdown;up\nmode\trational\n"
                    "down,down\t1/8\ndown,up\t3/8\nup,down\t1/4\nup,up\t1/4\n")
    p = read_distribution_file(path)
    assert p.alphabet.symbols == ("down", "up")
    assert p[Configuration(volume(0, 1), ("down", "up"))] == Fraction(3, 8)


def test_product_field_law_entries_take_the_mode():
    """Rational mode keeps ints, strings and Fractions exact and refuses a
    float; float mode reads every entry as a float."""
    exact = ProductField(line_window(2), BIN, {0: "1/4", 1: Fraction(3, 4)})
    assert exact.law == {0: Fraction(1, 4), 1: Fraction(3, 4)}
    assert ProductField(line_window(2), BIN, {0: 1, 1: 0}).law == {0: Fraction(1), 1: Fraction(0)}
    with pytest.raises(ValidationError, match="not exactly representable"):
        ProductField(line_window(2), BIN, {0: 0.25, 1: Fraction(3, 4)})
    floats = ProductField(line_window(2), BIN, {0: "0.25", 1: Fraction(3, 4)}, FLOAT)
    assert floats.law == {0: 0.25, 1: 0.75}
    assert all(type(v) is float for v in floats.law.values())


def test_a_model_is_described_by_its_class_unless_it_says_more():
    class Uniform(RandomFieldModel):
        window, alphabet = line_window(2), BIN

        def prob(self, c):
            return Fraction(1, 2 ** len(c))

    assert Uniform().describe() == "Uniform"
    assert Uniform().marginal(volume(0))[Configuration(volume(0), (1,))] == Fraction(1, 2)


def test_float_mode_tolerance():
    vol = volume(0)
    probs = {Configuration(vol, (0,)): 0.5 + 4e-13, Configuration(vol, (1,)): 0.5}
    dist = FiniteDistribution(vol, BIN, probs, FLOAT)
    assert dist.is_positive()
    bad = {Configuration(vol, (0,)): 0.51, Configuration(vol, (1,)): 0.5}
    with pytest.raises(ValidationError):
        FiniteDistribution(vol, BIN, bad, FLOAT)
