import math
import random
from fractions import Fraction
from itertools import product

import pytest

from gibbsfields import specifications
from gibbsfields.conditionals import finite_conditional
from gibbsfields.energy import TransitionEnergy, check_cocycle
from gibbsfields.fields import FLOAT, seeded_positive_table
from gibbsfields.lattice import (
    Configuration,
    GeometryError,
    Volume,
    binary_alphabet,
    box_filtration,
    enumerate_configurations,
    grid_window,
    line_window,
    nearest_neighbor_system,
    restrict,
    spin_alphabet,
    volume,
)
from gibbsfields.models import bernoulli_product, example2_model, ising_demo
from gibbsfields.specifications import (
    MeasureSystem,
    OnePointTEF,
    finite_volume_gibbs,
    format_potential,
    hamiltonian_from_potential,
    ising_potential,
    measure_system_from_model,
    measure_system_from_potential,
    onepoint_spec_from_model,
    onepoint_spec_from_tef,
    pair_site_fixtures,
    parse_potential,
    spec_from_model,
    spec_from_onepoint,
    tef_from_1spec,
    tef_from_measure_system,
    tef_from_potential,
    validate_1spec,
    validate_spec,
    validate_tef,
    volume_split_fixtures,
    zero_potential,
)
from gibbsfields.diagnostics import oscillating_density_boundary

SPIN = spin_alphabet()
BIN = binary_alphabet()


def ising_conditional_oracle(beta, window, V, boundary):
    """Literal free-boundary Gibbs conditional, computed from scratch."""
    sites = window.sites

    def energy(full):
        total = 0.0
        for a, b in zip(sites, sites[1:]):
            if b[0] - a[0] == 1:
                total += -beta * full[a] * full[b]
        return total

    weights = {}
    base = {s: boundary[s] for s in boundary.volume}
    for symbols in product((-1, 1), repeat=len(V)):
        full = dict(base)
        for s, val in zip(V.sites, symbols):
            full[s] = val
        weights[symbols] = math.exp(-energy(full))
    Z = math.fsum(weights.values())
    return {k: w / Z for k, w in weights.items()}


def test_potential_parse_format_roundtrip():
    phi = ising_potential(0.5, h=0.25)
    text = format_potential(phi, SPIN)
    again = parse_potential(text, SPIN)
    assert again == phi
    pair = Volume.of([(0,), (1,)])
    assert phi.value(pair, Configuration(pair, (1, 1))) == -0.5
    assert phi.value(pair, Configuration(pair, (1, -1))) == 0.5
    shifted = Volume.of([(4,), (5,)])
    assert phi.value(shifted, Configuration(shifted, (1, 1))) == -0.5
    assert phi.reach() == 1


def test_potential_parse_example_line():
    phi = parse_potential("(0),(1) | +1,+1 | -0.5\n", SPIN)
    pair = Volume.of([(0,), (1,)])
    assert phi.value(pair, Configuration(pair, (1, 1))) == -0.5
    assert phi.value(pair, Configuration(pair, (-1, -1))) == 0.0


def test_one_point_hamiltonian_and_tef_hand_expansion():
    """For the pair coupling -beta*x*y the energy difference between spins
    +1 and -1 at t is 2*beta*(z_left + z_right)."""
    beta = 0.3
    window = line_window(9)
    phi = ising_potential(beta)
    tef = tef_from_potential(phi, window, SPIN)
    for zl in (-1, 1):
        for zr in (-1, 1):
            boundary = Configuration(window - volume(0), tuple(
                zl if s == (-1,) else zr if s == (1,) else 1
                for s in (window - volume(0))))
            h = hamiltonian_from_potential(phi, (0,), boundary, window, SPIN)
            assert math.isclose(h[-1] - h[1], 2 * beta * (zl + zr), abs_tol=1e-15)
            got = tef.ratio((0,), boundary, 1, -1)
            assert math.isclose(got, math.exp(2 * beta * (zl + zr)), rel_tol=1e-14)


def test_hamiltonian_geometry_error():
    phi = ising_potential(0.3)
    window = line_window(9)
    too_small = Configuration(volume(2), (1,))
    with pytest.raises(GeometryError):
        hamiltonian_from_potential(phi, (0,), too_small, window, SPIN)


GRID = grid_window(3, 3)
GRID_PHI = ising_potential(0.4, 0.3, 2)


def test_tef_ratio_depends_only_on_the_interaction_neighbourhood():
    rng = random.Random(7)
    tef = tef_from_potential(GRID_PHI, GRID, SPIN)
    near = nearest_neighbor_system(GRID)
    for t in GRID:
        rest = GRID - Volume.of([t])
        nbhd = near.volume_at(t)
        for local in enumerate_configurations(nbhd, SPIN):
            boundaries = []
            for _ in range(3):
                full = {s: rng.choice(SPIN.symbols) for s in rest}
                full.update(local.items())
                boundaries.append(Configuration(rest, tuple(full[s] for s in rest)))
            for b in boundaries:
                assert restrict(b, nbhd) == local
                for x in SPIN.symbols:
                    for u in SPIN.symbols:
                        assert tef.ratio(t, b, x, u) == tef.ratio(t, boundaries[0], x, u)


def test_tef_hamiltonian_runs_once_per_local_context(monkeypatch):
    calls = {}
    real = specifications.hamiltonian_from_potential

    def counting(phi, t, boundary, window, alphabet):
        calls[t] = calls.get(t, 0) + 1
        return real(phi, t, boundary, window, alphabet)

    monkeypatch.setattr(specifications, "hamiltonian_from_potential", counting)
    tef = tef_from_potential(GRID_PHI, GRID, SPIN)
    near = nearest_neighbor_system(GRID)
    for t in GRID:
        for b in enumerate_configurations(GRID - Volume.of([t]), SPIN):
            tef.ratio(t, b, 1, -1)
            tef.ratio(t, b, -1, 1)
        assert 0 < calls[t] <= SPIN.size ** len(near.volume_at(t))


def test_tef_missing_neighbour_raises_geometry_error():
    tef = tef_from_potential(GRID_PHI, GRID, SPIN)
    t = (0, 0)
    rest = GRID - Volume.of([t, (0, 1)])
    boundary = Configuration(rest, (1,) * len(rest))
    with pytest.raises(GeometryError, match=r"boundary misses interacting sites \(0,1\)$"):
        tef.ratio(t, boundary, 1, -1)
    # once a full boundary of the site is cached, the miss still raises
    tef.ratio(t, Configuration(GRID - Volume.of([t]), (1,) * 8), 1, -1)
    with pytest.raises(GeometryError):
        tef.ratio(t, boundary, 1, -1)


def test_zero_potential_gives_zero_tef_and_uniform_gibbs():
    window = line_window(5)
    phi = zero_potential()
    tef = tef_from_potential(phi, window, SPIN)
    boundary = Configuration(window - volume(0), tuple([1] * 4))
    assert tef.ratio((0,), boundary, 1, -1) == 1.0
    q = onepoint_spec_from_tef(tef)
    table = q.table((0,), boundary)
    assert table[1] == table[-1] == 0.5
    dist = finite_volume_gibbs(phi, window, Configuration(Volume.empty(), ()), window, SPIN)
    assert all(abs(p - 1 / 32) < 1e-15 for p in dist.probs.values())


def test_tef_validation_and_negative_control():
    window = line_window(7)
    tef = tef_from_potential(ising_potential(0.4), window, SPIN)
    fixtures, meta = pair_site_fixtures(window, SPIN, max_tuples=10**6)
    at_origin = [f for f in fixtures if (0,) in (f[0], f[1])][:60]
    report = validate_tef(tef, at_origin, tol=1e-12, meta=meta)
    assert report.ok
    assert report.max_residual < 1e-12

    def broken_ratio(t, boundary, x, u):
        value = tef.ratio(t, boundary, x, u)
        if t == (0,) and x == 1 and u == -1:
            return value * 1.01
        return value

    broken = OnePointTEF(window, SPIN, broken_ratio, FLOAT)
    bad = validate_tef(broken, at_origin, tol=1e-12)
    assert not bad.ok
    assert any(v["kind"] == "cocycle" and v["t"] == "(0)" for v in bad.violations)

    # the energy-table cocycle check runs the same loop on one boundary
    boundary = Configuration(window - volume(0), (1,) * (len(window) - 1))
    configs = enumerate_configurations(volume(0), SPIN)

    def energy(ratio):
        ratios = {(x, u): ratio((0,), boundary, x.symbols[0], u.symbols[0])
                  for x in configs for u in configs}
        return TransitionEnergy.from_ratios(volume(0), boundary, ratios, FLOAT)

    assert check_cocycle(energy(tef.ratio))
    assert not check_cocycle(energy(broken_ratio))


def test_1spec_from_table_field_exact():
    m = seeded_positive_table(line_window(5), BIN, seed=4)
    q = onepoint_spec_from_model(m)
    fixtures, meta = pair_site_fixtures(m.window, BIN, max_tuples=10**6)
    report = validate_1spec(q, fixtures[:50], tol=0.0, meta=meta)
    assert report.ok
    assert report.max_residual == 0.0


def test_1spec_ising_and_perturbed():
    window = line_window(7)
    tef = tef_from_potential(ising_potential(0.4), window, SPIN)
    q = onepoint_spec_from_tef(tef)
    fixtures, _ = pair_site_fixtures(window, SPIN, max_tuples=10**6)
    # adjacent pairs: the exchange identity only sees a broken kernel at s
    # through boundaries that actually influence it
    at_origin = [f for f in fixtures
                 if (0,) in (f[0], f[1]) and abs(f[0][0] - f[1][0]) == 1][:40]
    assert validate_1spec(q, at_origin, tol=1e-12).ok

    def perturbed(t, boundary):
        table = dict(q.table(t, boundary))
        if t == (0,):
            table[1] = table[1] * 1.01
            table[-1] = 1 - table[1]
        return table

    from gibbsfields.specifications import OnePointSpec

    bad = OnePointSpec(window, SPIN, perturbed, FLOAT)
    report = validate_1spec(bad, at_origin, tol=1e-12)
    assert not report.ok


def test_onepoint_spec_from_tef_matches_cosh_form():
    beta = 0.4
    window = line_window(9)
    tef = tef_from_potential(ising_potential(beta), window, SPIN)
    q = onepoint_spec_from_tef(tef)
    rest = window - volume(0)
    for zl in (-1, 1):
        for zr in (-1, 1):
            boundary = Configuration(rest, tuple(
                zl if s == (-1,) else zr if s == (1,) else -1 for s in rest))
            s_sum = zl + zr
            expected = math.exp(beta * s_sum) / (2 * math.cosh(beta * s_sum))
            assert math.isclose(q.table((0,), boundary)[1], expected, rel_tol=1e-13)


def test_tef_1spec_round_trip():
    m = seeded_positive_table(line_window(4), BIN, seed=8)
    q = onepoint_spec_from_model(m)
    tef = tef_from_1spec(q)
    q_back = onepoint_spec_from_tef(tef)
    rest = m.window - volume(0)
    for z in enumerate_configurations(rest, BIN):
        a, b = q.table((0,), z), q_back.table((0,), z)
        assert a[0] == b[0] and a[1] == b[1]


def test_spec_from_onepoint_single_site_identity():
    m = seeded_positive_table(line_window(4), BIN, seed=14)
    q = onepoint_spec_from_model(m)
    Q = spec_from_onepoint(q)
    rest = m.window - volume(0)
    for z in enumerate_configurations(rest, BIN):
        kernel = Q.kernel(volume(0), z)
        table = q.table((0,), z)
        for cfg, p in kernel.items():
            assert p == table[cfg.symbols[0]]


def test_spec_pair_kernels_match_partition_oracle():
    beta = 0.4
    model = ising_demo(beta, window=9)
    window = model.window
    tef = tef_from_potential(ising_potential(beta), window, SPIN)
    Q = spec_from_onepoint(onepoint_spec_from_tef(tef))
    V = volume(0, 1)
    rest = window - V
    for fill in ((1,) * len(rest), (-1,) * len(rest), tuple(
            1 if i % 2 else -1 for i in range(len(rest)))):
        boundary = Configuration(rest, fill)
        kernel = Q.kernel(V, boundary)
        oracle = ising_conditional_oracle(beta, window, V, boundary)
        direct = finite_conditional(model, V, boundary)
        for cfg, p in kernel.items():
            assert math.isclose(p, oracle[cfg.symbols], rel_tol=1e-12)
            assert math.isclose(float(direct[cfg]), oracle[cfg.symbols], rel_tol=1e-12)


def test_validate_spec_pass_and_corrupted():
    m = seeded_positive_table(line_window(5), BIN, seed=25)
    Q = spec_from_model(m)
    fixtures, meta = volume_split_fixtures(m.window, BIN, max_volume=2,
                                           max_tuples=3000, seed=1)
    assert validate_spec(Q, fixtures[:40], tol=0.0, meta=meta).ok

    q = onepoint_spec_from_model(m)
    Q2 = spec_from_onepoint(q)
    assert validate_spec(Q2, fixtures[:40], tol=0.0).ok

    from gibbsfields.specifications import Specification

    def corrupted(V, boundary):
        kernel = dict(Q.kernel(V, boundary))
        keys = list(kernel)
        if len(V) == 2:
            shift = kernel[keys[0]] / 3
            kernel[keys[0]] -= shift
            kernel[keys[1]] += shift
        return kernel

    bad = Specification(m.window, BIN, corrupted, m.mode, 0.0)
    report = validate_spec(bad, fixtures[:40], tol=0.0)
    assert not report.ok


def test_fixture_budget_sampling_deterministic():
    window = line_window(9)
    exhaustive, meta = pair_site_fixtures(window, BIN, max_tuples=10**6)
    assert not meta.sampled
    assert meta.space == len(exhaustive) * 2 ** 4

    sampled_a, meta_a = pair_site_fixtures(window, BIN, max_tuples=512, seed=5)
    sampled_b, meta_b = pair_site_fixtures(window, BIN, max_tuples=512, seed=5)
    assert meta_a.sampled and sampled_a == sampled_b
    assert len(sampled_a) < len(exhaustive)


def test_finite_volume_gibbs_single_site_matches_spec():
    beta = 1.0
    window = line_window(7)
    phi = ising_potential(beta)
    tef = tef_from_potential(phi, window, SPIN)
    q = onepoint_spec_from_tef(tef)
    rest = window - volume(0)
    boundary = Configuration(rest, tuple(1 if s[0] > 0 else -1 for s in rest))
    dist = finite_volume_gibbs(phi, volume(0), boundary, window, SPIN)
    table = q.table((0,), boundary)
    for cfg, p in dist.items():
        assert math.isclose(p, table[cfg.symbols[0]], rel_tol=1e-13)


def test_finite_volume_gibbs_boundary_collar_error():
    phi = ising_potential(0.4)
    window = line_window(7)
    with pytest.raises(GeometryError):
        finite_volume_gibbs(phi, volume(0), Configuration(Volume.empty(), ()),
                            window, SPIN)


def test_measure_system_product_stabilizes_immediately():
    m = bernoulli_product(Fraction(1, 4), line_window(9))
    mu = measure_system_from_model(m)
    F = box_filtration(0, [1, 2, 3], m.window)
    rest = m.window - volume(0)
    boundary = Configuration(rest, tuple(1 for _ in rest))
    report = tef_from_measure_system(mu, (0,), F, boundary)
    assert report.stabilized
    assert all(r[(1, 0)] == Fraction(1, 3) for r in report.stage_ratios)
    assert report.evaluator()((0,), boundary, 1, 0) == Fraction(1, 3)


def test_measure_system_ising_markov_cancellation():
    window = line_window(9)
    mu = measure_system_from_potential(ising_potential(0.4), window, SPIN)
    F = box_filtration(0, [1, 2, 3, 4], window)
    rest = window - volume(0)
    boundary = Configuration(rest, tuple(1 for _ in rest))
    report = tef_from_measure_system(mu, (0,), F, boundary)
    assert report.stabilized
    first = report.stage_ratios[0][(1, -1)]
    assert all(math.isclose(r[(1, -1)], first, rel_tol=1e-13)
               for r in report.stage_ratios)


def test_measure_system_example2_oscillating_diverges():
    model = example2_model(1, line_window(325))
    mu = measure_system_from_model(model)
    F = box_filtration(0, [6, 18, 54, 162], model.window)
    gen = oscillating_density_boundary(start="high")
    report = tef_from_measure_system(mu, (0,), F, gen)
    assert not report.stabilized
    from gibbsfields.specifications import InconsistentTEFError

    with pytest.raises(InconsistentTEFError):
        report.evaluator()


def test_measure_system_rejects_nonpositive():
    mu = MeasureSystem(line_window(3), BIN, lambda c: 0, "rational")
    with pytest.raises(ValueError):
        mu.value(Configuration(volume(0), (1,)))
