"""Rational identities decided on integer numerators report exactly what a
Fraction-only evaluation of the same identities reports.

The reference loops below build every product as a Fraction, join every
configuration with ``concat`` and compare through ``Comparison``, the way
the validators did before they compared integer products. Each case
corrupts one object, so that violations, their order and ``max_residual``
are all exercised. A case reads the seeded table either as Fractions or
as floats, so the one path is pinned on numerators over their common
denominator and on float tables, their own numerators over 1.
"""

import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsfields import conditionals, fields, specifications
from gibbsfields.conditionals import (
    ConditionalKernel,
    KernelCache,
    check_one_point_consistency,
    check_pair_consistency,
    finite_conditional,
    one_point_from_model,
    reconstruct_from_one_point,
)
from gibbsfields.energy import (
    TransitionEnergy,
    check_cocycle,
    check_decomposition,
    check_one_point_exchange,
    gibbs_form_from_energy,
    hamiltonian_from_energy,
    transition_energy,
)
from gibbsfields.fields import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    Comparison,
    RandomFieldModel,
    ValidationError,
    close,
    integer_numerators,
    marginalize,
    normalized,
    scalar_sum,
    seeded_positive_table,
    table_field,
)
from gibbsfields.lattice import (
    EMPTY_CONFIGURATION,
    Configuration,
    Volume,
    binary_alphabet,
    concat,
    enumerate_configurations,
    format_site,
    line_window,
)
from gibbsfields.specifications import (
    OnePointSpec,
    ValidationReport,
    onepoint_spec_from_model,
    pair_site_fixtures,
    spec_from_model,
    spec_from_onepoint,
    tef_from_1spec,
    validate_1spec,
    validate_spec,
    validate_tef,
    volume_split_fixtures,
)

BIN = binary_alphabet()


def reference_validate_spec(Q, fixtures, tol, meta):
    violations, holds, checked = [], Comparison(tol), 0
    for V, I, z in fixtures:
        kernel_V = Q.kernel(V, z)
        xs = enumerate_configurations(I, Q.alphabet)
        pairs = list(combinations(xs, 2))
        for y in enumerate_configurations(V - I, Q.alphabet):
            kernel_I = Q.kernel(I, concat(z, y))
            joint = {x: kernel_V[concat(x, y)] for x in xs}
            checked += len(pairs)
            for x, u in pairs:
                lhs, rhs = joint[x] * kernel_I[u], joint[u] * kernel_I[x]
                if not holds(lhs, rhs):
                    violations.append({"kind": "consistency", "V": str(V), "I": str(I),
                                       "z": str(z), "lhs": float(lhs), "rhs": float(rhs)})
    return ValidationReport("specification-consistency", checked, violations,
                            holds.worst, meta)


def reference_validate_1spec(q, fixtures, tol, meta):
    syms = q.alphabet.symbols
    violations, holds = [], Comparison(tol)
    for t, s, z in fixtures:
        t_vol, s_vol = Volume.of([t]), Volume.of([s])
        q_t = {b: q.table(t, concat(z, Configuration(s_vol, (b,)))) for b in syms}
        q_s = {a: q.table(s, concat(z, Configuration(t_vol, (a,)))) for a in syms}
        for tables, site in ((q_t, t), (q_s, s)):
            for table in tables.values():
                total = scalar_sum(table.values(), q.mode)
                if not close(total, 1, tol):
                    violations.append({"kind": "normalization", "site": format_site(site),
                                       "z": str(z), "sum": float(total)})
                if any(p <= 0 for p in table.values()):
                    violations.append({"kind": "positivity", "site": format_site(site),
                                       "z": str(z)})
        for x in syms:
            for u in syms:
                for y in syms:
                    for v in syms:
                        lhs = q_t[y][x] * q_s[x][v] * q_t[v][u] * q_s[u][y]
                        rhs = q_t[y][u] * q_s[u][v] * q_t[v][x] * q_s[x][y]
                        if not holds(lhs, rhs):
                            violations.append({
                                "kind": "exchange", "t": format_site(t),
                                "s": format_site(s), "z": str(z),
                                "symbols": [str(x), str(u), str(y), str(v)],
                                "lhs": float(lhs), "rhs": float(rhs)})
    return ValidationReport("one-point-exchange", len(fixtures) * len(syms) ** 4,
                            violations, holds.worst, meta)


def reference_cocycle(ratios, keys, holds):
    for x in keys:
        for y in keys:
            for u in keys:
                lhs, rhs = ratios[(x, u)], ratios[(x, y)] * ratios[(y, u)]
                if not holds(lhs, rhs):
                    yield lhs, rhs


def reference_validate_tef(d, fixtures, tol, meta):
    syms = d.alphabet.symbols
    violations, holds = [], Comparison(tol)
    for t, s, z in fixtures:
        t_vol, s_vol = Volume.of([t]), Volume.of([s])
        r_t = {b: {(x, u): d.ratio_fn(t, concat(z, Configuration(s_vol, (b,))), x, u)
                   for x in syms for u in syms} for b in syms}
        r_s = {a: {(y, v): d.ratio_fn(s, concat(z, Configuration(t_vol, (a,))), y, v)
                   for y in syms for v in syms} for a in syms}
        for site, table in ((t, r_t), (s, r_s)):
            for b in syms:
                for lhs, rhs in reference_cocycle(table[b], syms, holds):
                    violations.append({"kind": "cocycle", "t": format_site(site),
                                       "z": str(z), "lhs": float(lhs), "rhs": float(rhs)})
        for x in syms:
            for u in syms:
                for y in syms:
                    for v in syms:
                        lhs = r_t[y][(x, u)] * r_s[u][(y, v)]
                        rhs = r_s[x][(y, v)] * r_t[v][(x, u)]
                        if not holds(lhs, rhs):
                            violations.append({
                                "kind": "exchange", "t": format_site(t),
                                "s": format_site(s), "z": str(z),
                                "symbols": [str(x), str(u), str(y), str(v)],
                                "lhs": float(lhs), "rhs": float(rhs)})
    return ValidationReport("energy-field-axioms", len(fixtures) * len(syms) ** 4 * 3,
                            violations, holds.worst, meta)


def reference_check_cocycle(e):
    configs = e.configurations()
    ratios = {(x, u): e.ratio(x, u) for x in configs for u in configs}
    return next(reference_cocycle(ratios, configs, Comparison()), None) is None


def perturb_kernel(kernel):
    """Shift mass between the first two entries of a kernel."""
    probs = dict(kernel.probs)
    first, second = list(probs)[:2]
    shift = probs[first] / 2
    probs[first] -= shift
    probs[second] += shift
    return ConditionalKernel(kernel.volume, kernel.condition, probs, kernel.mode)


def rescaled(q, site, boundary, factor):
    """The 1-spec q with its table at (site, boundary) multiplied by factor."""
    def table(t, b):
        out = q.table(t, b)
        if (t if isinstance(t, tuple) else (t,)) == site and b == boundary:
            return {a: factor * p for a, p in out.items()}
        return out

    return OnePointSpec(q.window, q.alphabet, table, q.mode, q.label)


@st.composite
def corrupted_cases(draw):
    """The kind of corruption, a seeded rational table on 3 to 5 sites or
    its float form, a target of its sites (one for a rescaled 1-spec table,
    else one or two), a condition on the rest and a rescaling factor."""
    kind = draw(st.sampled_from(["kernel", "table", "ratio"]))
    window = line_window(draw(st.integers(3, 5)))
    model = seeded_positive_table(window, BIN, draw(st.integers(0, 10**6)))
    if draw(st.sampled_from([RATIONAL, FLOAT])) == FLOAT:
        model = table_field(window, BIN, {c: float(p) for c, p in model.table.items()},
                            FLOAT)
    target = Volume.of(draw(st.lists(st.sampled_from(window.sites), min_size=1,
                                     max_size=1 if kind == "table" else 2, unique=True)))
    rest = window - target
    condition = Configuration(rest, tuple(draw(st.sampled_from(BIN.symbols)) for _ in rest))
    return kind, model, target, condition, draw(st.fractions(Fraction(1, 3), 3))


@given(corrupted_cases())
@settings(max_examples=60, deadline=None)
def test_integer_identities_report_what_fractions_report(case):
    kind, model, target, condition, factor = case
    window = model.window
    kernels = KernelCache(model)
    if kind == "kernel":
        kernels._cache[(target, condition)] = perturb_kernel(kernels(target, condition))
    q = onepoint_spec_from_model(model, kernels)
    if kind == "table":
        q = rescaled(q, target.sites[0], condition, factor)
    Q = spec_from_model(model, kernels)

    split_fixtures, split_meta = volume_split_fixtures(window, BIN, 3)
    assert (validate_spec(Q, split_fixtures, meta=split_meta).to_json_dict()
            == reference_validate_spec(Q, split_fixtures, DEFAULT_TOL, split_meta).to_json_dict())
    pair_fixtures, pair_meta = pair_site_fixtures(window, BIN)
    assert (validate_1spec(q, pair_fixtures, meta=pair_meta).to_json_dict()
            == reference_validate_1spec(q, pair_fixtures, DEFAULT_TOL, pair_meta).to_json_dict())
    tef = tef_from_1spec(q)
    assert (validate_tef(tef, pair_fixtures, None, pair_meta).to_json_dict()
            == reference_validate_tef(tef, pair_fixtures, tef.tol, pair_meta).to_json_dict())

    k = kernels(target, condition)
    configs = list(k.probs)
    ratios = {(x, u): k[x] / k[u] for x in configs for u in configs}
    if kind == "ratio":
        ratios[(configs[0], configs[-1])] *= 2
    e = TransitionEnergy.from_ratios(target, condition, ratios, k.mode)
    assert check_cocycle(e) == reference_check_cocycle(e) == (kind != "ratio")


def test_inexact_rational_tables_fail_normalization():
    """Every table sums to 1 + 1e-13 exactly; the exchange identity cannot
    see the excess, so only an exact normalization check reports it."""
    window = line_window(3)
    table = {0: Fraction(1, 2) + Fraction(1, 10**13), 1: Fraction(1, 2)}
    q = OnePointSpec(window, BIN, lambda t, boundary: table)
    fixtures, meta = pair_site_fixtures(window, BIN)
    report = validate_1spec(q, fixtures, meta=meta)
    assert not report.ok
    assert {v["kind"] for v in report.violations} == {"normalization"}
    assert len(report.violations) == len(fixtures) * 2 * BIN.size
    assert close(Fraction(1), 1) and not close(table[0] + table[1], 1)
    # a rational table whose entries are floats gets no tolerant check: it is refused
    floats = OnePointSpec(window, BIN, lambda t, boundary: {0: 0.5 + 1e-13, 1: 0.5})
    with pytest.raises(ValidationError, match=re.escape(repr(0.5 + 1e-13))):
        validate_1spec(floats, fixtures, meta=meta)



def test_integer_numerators_read_exact_values_and_floats_over_1():
    """Exact values share their least common denominator; floats are their
    own numerators over 1, read as they are in float mode, and a float
    among rational-mode values is refused by name."""
    assert (integer_numerators([Fraction(1, 2), Fraction(1, 3), 2], RATIONAL)
            == ([3, 2, 12], 6))
    with pytest.raises(ValidationError, match="rational mode: 0.5$"):
        integer_numerators([Fraction(1, 2), 0.5], RATIONAL)
    assert integer_numerators([], RATIONAL) == ([], 1)
    floats = [0.25, 0.75]
    assert integer_numerators(floats, FLOAT) == (floats, 1)
    assert integer_numerators(floats, FLOAT)[0] is floats


def subsets(vol: Volume, sizes) -> list:
    return [Volume.of(sites) for n in sizes for sites in combinations(vol.sites, n)]


def all_conditions(window: Volume, target: Volume) -> list:
    """Every configuration on every sub-volume of the target's complement."""
    rest = window - target
    return [z for lam in subsets(rest, range(len(rest) + 1))
            for z in enumerate_configurations(lam, BIN)]


def test_cached_kernels_are_converted_to_numerators_once(monkeypatch):
    """Pair consistency and decomposition on every condition of a 4-site
    table, read through one KernelCache: each kernel is born once, with its
    numerators, at most one conversion to integers going into its birth, and
    the validators convert none of them again nor read a Fraction of them."""
    m = seeded_positive_table(line_window(4), BIN, seed=19)
    kernels = KernelCache(m)
    per_birth, outside, births = [], [], []
    convert, born = fields.integer_numerators, conditionals.finite_conditional

    def birth(model, V, z):
        per_birth.append(0)
        births.append(len(per_birth) - 1)
        try:
            return born(model, V, z)
        finally:
            births.pop()

    def counting(values, mode):
        if births:
            per_birth[births[-1]] += 1
        else:
            outside.append(mode)
        return convert(values, mode)

    monkeypatch.setattr(conditionals, "finite_conditional", birth)
    for module in (fields, conditionals, specifications):
        monkeypatch.setattr(module, "integer_numerators", counting)
    window = m.window
    for V in subsets(window, range(2, 5)):
        for z in all_conditions(window, V):
            for I in subsets(V, range(1, len(V))):
                assert check_pair_consistency(m, I, V, z, kernels)
    for V in subsets(window, (1, 2)):
        for I in subsets(window - V, (1, 2)):
            for z in all_conditions(window, V | I):
                assert check_decomposition(m, V, I, z, kernels)
    assert len(per_birth) == len(kernels._cache) > 0
    assert max(per_birth) <= 1 and outside == []
    for k in kernels._cache.values():  # every entry read, each way: no values are kept
        entries = dict(k.items())
        assert entries == k.probs == {c: k[c] for c in k} and k.probs is not k.probs
        if len(k.volume) == 1:
            assert [k.value(c.symbols[0]) for c in k] == list(entries.values())
        assert not any(isinstance(v, dict) for v in vars(k).values())
    assert all("_exact" in vars(k) and "probs" not in vars(k) for k in kernels._cache.values())


def float_twin(m):
    return table_field(m.window, BIN, {c: float(p) for c, p in m.table.items()}, FLOAT)


def energy_of(m, V, z):
    return transition_energy(finite_conditional(m, V, z))


KEYED_BUILDERS = {
    "finite_conditional": finite_conditional,
    "marginalize": lambda m, V, z: marginalize(m.table, V),
    "reconstruct_from_one_point": lambda m, V, z: reconstruct_from_one_point(
        one_point_from_model(m), V, z, BIN, mode=m.mode),
    "spec_from_onepoint": lambda m, V, z: spec_from_onepoint(
        onepoint_spec_from_model(m)).kernel(V, z),
    "gibbs_form_from_energy": lambda m, V, z: gibbs_form_from_energy(
        energy_of(m, V, z), enumerate_configurations(V, BIN)[-1]),
    "hamiltonian_from_energy": lambda m, V, z: hamiltonian_from_energy(
        energy_of(m, V, z), enumerate_configurations(V, BIN)[-1]),
    "HamiltonianTable.gibbs_kernel": lambda m, V, z: hamiltonian_from_energy(
        energy_of(m, V, z), enumerate_configurations(V, BIN)[0]).gibbs_kernel(),
}


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("builder", KEYED_BUILDERS)
def test_built_kernels_are_keyed_by_the_shared_enumeration(builder, size, mode):
    """Every kernel the library builds holds enumerate_configurations(V) itself
    as its keys, not a copy, in both modes and for one and two sites."""
    m = seeded_positive_table(line_window(4), BIN, seed=41)
    m = m if mode == RATIONAL else float_twin(m)
    V = Volume.of(m.window.sites[:size])
    z = Configuration(Volume.of(m.window.sites[3:]), (1,))
    k = KEYED_BUILDERS[builder](m, V, z)
    assert k.mode == mode and k._exact[0] is enumerate_configurations(V, BIN)


def test_the_exact_path_makes_no_fraction_division_or_order_comparison(monkeypatch):
    """Every identity of a 4-site rational table, read through one
    KernelCache: pair and one-point consistency, the exchange law,
    reconstruction, the energy round trips and decomposition. Each is
    decided on int numerators, so no Fraction is divided or ordered."""
    m = seeded_positive_table(line_window(4), BIN, seed=29)
    calls = []
    for name in ("__truediv__", "__rtruediv__", "__lt__", "__le__", "__gt__", "__ge__"):
        def counted(*args, _name=name, _method=getattr(Fraction, name)):
            calls.append(_name)
            return _method(*args)

        monkeypatch.setattr(Fraction, name, counted)
    kernels = KernelCache(m)
    one_point = onepoint_spec_from_model(m, kernels).table_fn
    window = m.window
    for V in subsets(window, range(1, 5)):
        configs = enumerate_configurations(V, BIN)
        for z in all_conditions(window, V):
            for I in subsets(V, range(1, len(V))):
                assert check_pair_consistency(m, I, V, z, kernels)
            k = kernels(V, z)
            rebuilt = reconstruct_from_one_point(one_point, V, z, BIN)
            e = transition_energy(k)
            back = gibbs_form_from_energy(e, configs[0])
            gibbs = hamiltonian_from_energy(e, configs[-1]).gibbs_kernel()
            assert all(rebuilt[c] == back[c] == gibbs[c] == k[c] for c in configs)
    for t, s in combinations(window.sites, 2):
        for z in all_conditions(window, Volume.of([t, s])):
            assert check_one_point_consistency(m, t, s, z, kernels)
            assert check_one_point_exchange(m, t, s, z, kernels)
    for V in subsets(window, (1, 2)):
        for I in subsets(window - V, (1, 2)):
            for z in all_conditions(window, V | I):
                assert check_decomposition(m, V, I, z, kernels)
    assert calls == []


def test_a_specification_of_plain_mappings_in_any_key_order_reports_the_same():
    """validate_spec reads a mapping that kernel_fn returns as a kernel, at
    the order of the enumeration whatever the mapping's own key order."""
    m = seeded_positive_table(line_window(4), BIN, seed=7)
    kernels = KernelCache(m)
    by_order = {}
    for name, order in (("canonical", list), ("reversed", lambda keys: list(keys)[::-1])):
        def kernel_fn(V, z, order=order):
            k = kernels(V, z)
            return {c: k[c] for c in order(k)}

        spec = specifications.Specification(m.window, BIN, kernel_fn, RATIONAL)
        fixtures, meta = volume_split_fixtures(m.window, BIN, 3)
        by_order[name] = validate_spec(spec, fixtures, meta=meta).to_json_dict()
    assert by_order["canonical"] == by_order["reversed"]
    assert by_order["canonical"] == validate_spec(spec_from_model(m, kernels), fixtures,
                                                  meta=meta).to_json_dict()


def test_normalized_exact_weights_are_canonical_fractions():
    """Exact weights give the Fractions that dividing each by their
    Fraction sum gives, in key order; a float among rational-mode weights
    is refused by name."""
    weights = {"a": Fraction(1, 6), "b": 2, "c": Fraction(3, 4)}
    total = sum(weights.values(), Fraction(0))
    got = normalized(weights, RATIONAL)
    assert list(got.items()) == [(k, w / total) for k, w in weights.items()]
    assert all(type(p) is Fraction and repr(p) == repr(weights[k] / total)
               for k, p in got.items())
    mixed = {"a": Fraction(1, 2), "b": 0.5}
    with pytest.raises(ValidationError, match="rational mode: 0.5$"):
        normalized(mixed, RATIONAL)
    assert normalized({}, RATIONAL) == {}


WINDOW = line_window(3)
SITE = Volume.of([(0,)])


def quarter(keys) -> dict:
    """A rational-mode table on two keys whose second entry is the float 0.25."""
    first, second = keys
    return {first: Fraction(3, 4), second: 0.25}


class FloatPrior(RandomFieldModel):
    """A model labelled rational whose probabilities are floats: P(z) = 2^-|z|."""

    window, alphabet, mode = WINDOW, BIN, RATIONAL

    def prob(self, c):
        return 0.5 ** len(c)


def spec_with_quarter_sites(as_kernel: bool) -> specifications.Specification:
    """A seeded table's specification whose one-site kernels are quarter tables,
    as plain mappings or as float kernels."""
    exact = spec_from_model(seeded_positive_table(WINDOW, BIN, seed=3))

    def kernel(V, boundary):
        if len(V) > 1:
            return exact.kernel(V, boundary)
        table = quarter(enumerate_configurations(V, BIN))
        return ConditionalKernel(V, boundary, table, FLOAT) if as_kernel else table

    return specifications.Specification(WINDOW, BIN, kernel, RATIONAL)


def quarter_ratios(keys) -> dict:
    a, b = keys
    return {(a, a): 1, (a, b): 0.25, (b, a): 4, (b, b): 1}


def quarter_onepoint() -> OnePointSpec:
    return OnePointSpec(WINDOW, BIN, lambda t, boundary: quarter(BIN.symbols))


GATE_READERS = {
    "ConditionalKernel": lambda: ConditionalKernel(
        SITE, EMPTY_CONFIGURATION, quarter(enumerate_configurations(SITE, BIN))),
    "FiniteDistribution": lambda: fields.FiniteDistribution(
        SITE, BIN, quarter(enumerate_configurations(SITE, BIN))),
    "validate_1spec": lambda: validate_1spec(
        quarter_onepoint(), pair_site_fixtures(WINDOW, BIN)[0]),
    "validate_spec-mapping": lambda: validate_spec(
        spec_with_quarter_sites(False), volume_split_fixtures(WINDOW, BIN)[0]),
    "validate_spec-float-kernel": lambda: validate_spec(
        spec_with_quarter_sites(True), volume_split_fixtures(WINDOW, BIN)[0]),
    "validate_tef": lambda: validate_tef(
        specifications.OnePointTEF(WINDOW, BIN, None, RATIONAL, DEFAULT_TOL, "quarter",
                                   lambda t, boundary: quarter_ratios(BIN.symbols)),
        pair_site_fixtures(WINDOW, BIN)[0]),
    "check_cocycle": lambda: check_cocycle(TransitionEnergy.from_ratios(
        SITE, EMPTY_CONFIGURATION, quarter_ratios(enumerate_configurations(SITE, BIN)))),
    "reconstruct_from_one_point": lambda: reconstruct_from_one_point(
        quarter_onepoint().table_fn, Volume.of([(0,), (1,)]), EMPTY_CONFIGURATION, BIN),
    "spec_from_onepoint": lambda: spec_from_onepoint(quarter_onepoint()).kernel(
        SITE, Configuration(WINDOW - SITE, (0, 1))),
    "finite_conditional": lambda: finite_conditional(
        FloatPrior(), SITE, Configuration(WINDOW - SITE, (0, 1))),
}


@pytest.mark.parametrize("reader", list(GATE_READERS))
def test_every_reader_of_a_rational_family_names_the_float_it_refuses(reader):
    """A float in a family labelled rational gets no tolerant check: each
    reader raises ValidationError naming it, from a plain mapping, a kernel
    of the other mode or a model's P(z) (not an AttributeError)."""
    with pytest.raises(ValidationError, match="not exactly representable in rational mode: 0.25$"):
        GATE_READERS[reader]()


def test_a_specification_refuses_a_kernel_of_the_other_mode():
    """A seeded 3-site rational table whose spec hands out float kernels on
    one-site volumes: validate_spec raises, naming a float entry, where a
    per-kernel conversion used to check it within the tolerance. A float
    spec refuses a rational kernel."""
    m = seeded_positive_table(WINDOW, BIN, seed=13)
    exact = spec_from_model(m)

    def floats_on_sites(V, boundary):
        k = exact.kernel(V, boundary)
        if len(V) > 1:
            return k
        return ConditionalKernel(V, boundary, {c: float(p) for c, p in k.items()}, FLOAT)

    fixtures, meta = volume_split_fixtures(m.window, BIN)
    with pytest.raises(ValidationError, match=r"rational mode: 0\.\d+$"):
        validate_spec(specifications.Specification(m.window, BIN, floats_on_sites, RATIONAL),
                      fixtures, meta=meta)
    assert validate_spec(exact, fixtures, meta=meta).ok
    as_float = specifications.Specification(m.window, BIN, exact.kernel, FLOAT)
    with pytest.raises(ValidationError, match=r"^a rational kernel on \(0\) in a float "):
        as_float.kernel(SITE, Configuration(WINDOW - SITE, (0, 1)))
