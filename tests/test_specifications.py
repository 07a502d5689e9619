import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from gibbsfields import specifications
from gibbsfields.conditionals import KernelCache, finite_conditional
from gibbsfields.energy import TransitionEnergy, check_cocycle
from gibbsfields.fields import FLOAT, RATIONAL, seeded_positive_table
from gibbsfields.lattice import (
    Alphabet,
    Configuration,
    GeometryError,
    Volume,
    binary_alphabet,
    box_filtration,
    concat,
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
    GibbsVolumeField,
    MeasureSystem,
    OnePointSpec,
    OnePointTEF,
    Potential,
    finite_volume_gibbs,
    hamiltonian_from_potential,
    ising_potential,
    measure_system_from_model,
    measure_system_from_potential,
    onepoint_spec_from_model,
    onepoint_spec_from_tef,
    pair_site_fixtures,
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


def test_potential_anchors_templates_and_reads_values():
    phi = ising_potential(0.5, h=0.25)
    pair = Volume.of([(0,), (1,)])
    assert phi.value(pair, Configuration(pair, (1, 1))) == -0.5
    assert phi.value(pair, Configuration(pair, (1, -1))) == 0.5
    shifted = Volume.of([(4,), (5,)])
    assert phi.value(shifted, Configuration(shifted, (1, 1))) == -0.5
    assert phi.reach() == 1
    # a term given on any translate is anchored at the origin; a missing term is 0
    one = Potential.of({(shifted, Configuration(shifted, (1, 1))): -0.5})
    assert one.templates() == [pair]
    assert one.value(pair, Configuration(pair, (1, 1))) == -0.5
    assert one.value(pair, Configuration(pair, (-1, -1))) == 0.0


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
            got = tef.ratio_fn((0,), boundary, 1, -1)
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
                        assert tef.ratio_fn(t, b, x, u) == tef.ratio_fn(t, boundaries[0], x, u)


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
            tef.ratio_fn(t, b, 1, -1)
            tef.ratio_fn(t, b, -1, 1)
        assert 0 < calls[t] <= SPIN.size ** len(near.volume_at(t))


def test_tef_missing_neighbour_raises_geometry_error():
    tef = tef_from_potential(GRID_PHI, GRID, SPIN)
    t = (0, 0)
    rest = GRID - Volume.of([t, (0, 1)])
    boundary = Configuration(rest, (1,) * len(rest))
    with pytest.raises(GeometryError, match=r"boundary misses interacting sites \(0,1\)$"):
        tef.ratio_fn(t, boundary, 1, -1)
    # once a full boundary of the site is cached, the miss still raises
    tef.ratio_fn(t, Configuration(GRID - Volume.of([t]), (1,) * 8), 1, -1)
    with pytest.raises(GeometryError):
        tef.ratio_fn(t, boundary, 1, -1)


def test_zero_potential_gives_zero_tef_and_uniform_gibbs():
    window = line_window(5)
    phi = zero_potential()
    tef = tef_from_potential(phi, window, SPIN)
    boundary = Configuration(window - volume(0), tuple([1] * 4))
    assert tef.ratio_fn((0,), boundary, 1, -1) == 1.0
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
        value = tef.ratio_fn(t, boundary, x, u)
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

    assert check_cocycle(energy(tef.ratio_fn))
    assert not check_cocycle(energy(broken_ratio))


def test_1spec_from_table_field_exact():
    m = seeded_positive_table(line_window(5), BIN, seed=4)
    q = onepoint_spec_from_model(m)
    fixtures, meta = pair_site_fixtures(m.window, BIN, max_tuples=10**6)
    report = validate_1spec(q, fixtures[:50], tol=0.0, meta=meta)
    assert report.ok
    assert report.max_residual == 0.0


def test_one_point_reads_hand_the_kernel_cache_one_volume_per_site():
    """Reads at t = 0 and at t = (0,) reach the KernelCache with one
    Volume object, so its lookups compare target volumes by identity."""
    m = seeded_positive_table(line_window(3), BIN, seed=5)
    targets = []

    class RecordingCache(KernelCache):
        def __call__(self, V, z):
            targets.append(V)
            return super().__call__(V, z)

    q = onepoint_spec_from_model(m, RecordingCache(m))
    z = Configuration(volume(-1, 1), (0, 1))
    direct = finite_conditional(m, volume(0), z)
    assert q.table(0, z) == q.table((0,), z) == {c.symbols[0]: p for c, p in direct.items()}
    assert targets[0] == volume(0) and targets[0] is targets[1]


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

    bad = OnePointSpec(window, SPIN, perturbed, FLOAT)
    report = validate_1spec(bad, at_origin, tol=1e-12)
    assert not report.ok


@pytest.mark.parametrize("mode, table", [
    (RATIONAL, {0: 1, 1: 0}),
    (RATIONAL, {0: Fraction(1), 1: Fraction(0)}),
    (FLOAT, {0: 1.0, 1: 0.0}),
])
def test_1spec_with_a_vanishing_entry_fails_positivity_only(mode, table):
    """Each of the 6 fixtures of 3 sites reads 2 tables at t and 2 at s,
    each with a zero entry; the tables sum to 1 and, being one table, keep
    every exchange identity."""
    window = line_window(3)
    q = OnePointSpec(window, BIN, lambda t, boundary: table, mode)
    fixtures, meta = pair_site_fixtures(window, BIN)
    report = validate_1spec(q, fixtures, meta=meta)
    assert len(fixtures) == 6
    assert [v["kind"] for v in report.violations] == ["positivity"] * 24
    assert report.max_residual == 0.0


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


@pytest.mark.parametrize("max_tuples", [10**6, 3000])
def test_split_fixtures_of_one_volume_share_one_boundary_volume(max_tuples):
    """Every split of one V draws its boundaries on the same window - V
    object, in the exhaustive and in the sampled branch."""
    window = grid_window(3, 3)
    fixtures, meta = volume_split_fixtures(window, SPIN, 3, max_tuples, seed=2)
    assert meta.sampled == (max_tuples == 3000)
    rests = {}
    for V, I, z in fixtures:
        assert z.volume == window - V
        assert rests.setdefault(V, z.volume) is z.volume
    assert len(rests) == 36 + 84


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

    bad = Specification(m.window, BIN, corrupted, m.mode)
    report = validate_spec(bad, fixtures[:40], tol=0.0)
    assert not report.ok


@pytest.mark.parametrize("as_kernel", [False, True], ids=["mapping", "kernel"])
def test_a_spec_kernel_missing_a_configuration_is_named(as_kernel):
    """A rational 3-site spec whose two-site kernels drop their first
    configuration, as a plain mapping or as a kernel built from one:
    validate_spec names the missing configuration as FiniteDistribution
    does, not with a KeyError."""
    m = seeded_positive_table(line_window(3), BIN, seed=13)
    exact = spec_from_model(m)

    def dropping(V, boundary):
        k = exact.kernel(V, boundary)
        if len(V) == 1:
            return k
        probs = dict(list(k.items())[1:])
        return specifications.ConditionalKernel(V, boundary, probs) if as_kernel else probs

    fixtures, meta = volume_split_fixtures(m.window, BIN)
    first = enumerate_configurations(fixtures[0][0], BIN)[0]
    with pytest.raises(specifications.ValidationError) as raised:
        validate_spec(specifications.Specification(m.window, BIN, dropping), fixtures, meta=meta)
    assert str(raised.value) == f"missing probability for {first}"


def test_validate_reads_one_table_per_distinct_key(monkeypatch):
    """The Gibbs path of gfl validate reconstructs each multi-site
    (V, boundary) once, reads each one-point (site, boundary) once,
    whichever validator or loop asks first, normalizes each distinct
    energy-field table object once, and evaluates each one-point
    Hamiltonian once per (site, local boundary); the validators read whole
    energy-field tables."""
    from gibbsfields import cli

    model = cli.build_model("ising:beta=0.4,d=1,window=5")
    kernel_keys, table_keys, reconstructions, hamiltonians = [], [], [], []
    normalizations = [0]
    tef_table_reads = []
    tef_tables = {}  # id -> each distinct table object the field hands out

    real_reconstruct = specifications.reconstruct_from_one_point
    real_normalized = specifications.normalized
    real_hamiltonian = specifications.hamiltonian_from_potential
    real_table = OnePointTEF.table
    real_1spec = cli.onepoint_spec_from_tef
    real_spec = cli.spec_from_onepoint

    def reconstruct(one_point, V, z, *args, **kwargs):
        reconstructions.append((V, z))
        return real_reconstruct(one_point, V, z, *args, **kwargs)

    def normalized(weights, mode):
        normalizations[0] += 1
        return real_normalized(weights, mode)

    def hamiltonian(phi, t, boundary, *args):
        hamiltonians.append((t, boundary))
        return real_hamiltonian(phi, t, boundary, *args)

    def table(self, t, boundary):
        tef_table_reads.append((t, boundary))
        r = real_table(self, t, boundary)
        tef_tables[id(r)] = r
        return r

    def recording_1spec(tef):
        q = real_1spec(tef)
        inner = q.table_fn

        def table(t, boundary):
            table_keys.append((t if isinstance(t, tuple) else (t,), boundary))
            return inner(t, boundary)

        q.table_fn = table  # reconstruction reads table_fn too
        return q

    def recording_spec(q):
        Q = real_spec(q)
        inner = Q.kernel_fn

        def kernel(V, boundary):
            if len(V) > 1:
                kernel_keys.append((V, boundary))
            return inner(V, boundary)

        Q.kernel_fn = kernel
        return Q

    monkeypatch.setattr(specifications, "reconstruct_from_one_point", reconstruct)
    monkeypatch.setattr(specifications, "normalized", normalized)
    monkeypatch.setattr(specifications, "hamiltonian_from_potential", hamiltonian)
    monkeypatch.setattr(OnePointTEF, "table", table)
    monkeypatch.setattr(cli, "onepoint_spec_from_tef", recording_1spec)
    monkeypatch.setattr(cli, "spec_from_onepoint", recording_spec)
    reports = cli._potential_reports(model, 1e-12, 0, 10**6)

    assert [r["axiom"] for r in reports] == [
        "energy-field-axioms", "one-point-exchange", "specification-consistency",
        "gibbs-spec-coherence"]
    assert all(not r["violations"] for r in reports)
    assert len(kernel_keys) > len(set(kernel_keys))  # the cache is exercised
    assert len(reconstructions) == len(set(reconstructions)) == len(set(kernel_keys))
    assert set(reconstructions) == set(kernel_keys)
    assert len(table_keys) > len(set(table_keys))
    # one normalization per distinct table object, one per (site, local
    # boundary), though the 1-spec reads 5 sites under 2^4 boundaries each
    assert normalizations[0] == len(tef_tables) == 16
    assert len(set(table_keys)) == 5 * 2 ** 4
    # one Hamiltonian per site and local boundary: two end sites with one
    # neighbour, three inner sites with two
    assert len(hamiltonians) == len(set(hamiltonians)) == 2 * 2 + 3 * 2 ** 2
    # validate_tef reads each (site, boundary) once, 5 sites under 2^4
    # boundaries each, not once per fixture that needs it; the 1-spec reads
    # each of its keys once more
    distinct = set(tef_table_reads)
    assert len(distinct) == 5 * 2 ** 4
    assert len(tef_table_reads) == len(distinct) + len(set(table_keys)) == 160


def test_a_single_site_spec_kernel_is_built_once_per_key():
    """A single-site kernel of spec_from_onepoint is kept like a multi-site
    one: a second read of (I, b) returns the same object, born from the
    1-spec table's entries."""
    window = line_window(5)
    q = onepoint_spec_from_tef(tef_from_potential(ising_potential(0.4), window, SPIN))
    Q = spec_from_onepoint(q)
    I = volume(0)
    for b in enumerate_configurations(window - I, SPIN)[::5]:
        k = Q.kernel(I, b)
        assert Q.kernel(I, b) is k
        assert dict(k.items()) == {Configuration(I, (a,)): p for a, p in q.table(0, b).items()}


def test_a_field_of_fresh_tables_is_normalized_once_per_key(monkeypatch):
    """A field whose table_fn builds a new dict on every call hands out no
    table twice: its 1-spec normalizes once per (site, boundary) it reads,
    never twice for one key, and reports what the field sharing its tables
    reports."""
    model = ising_demo(0.4, window=5)
    shared = tef_from_potential(model.potential, model.window, SPIN)
    reads = []

    def fresh_table(t, boundary):
        reads.append((t, boundary))
        return dict(shared.table(t, boundary))

    fresh = OnePointTEF(model.window, SPIN, shared.ratio_fn, FLOAT, label="fresh",
                        table_fn=fresh_table)
    normalizations = [0]
    real_normalized = specifications.normalized

    def normalized(weights, mode):
        normalizations[0] += 1
        return real_normalized(weights, mode)

    monkeypatch.setattr(specifications, "normalized", normalized)
    fixtures, meta = pair_site_fixtures(model.window, SPIN)
    vol_fixtures, vol_meta = volume_split_fixtures(model.window, SPIN, 3)
    reports = []
    for tef in (shared, fresh):
        q = onepoint_spec_from_tef(tef)
        reports.append([validate_1spec(q, fixtures, 1e-12, meta).to_json_dict(),
                        validate_spec(spec_from_onepoint(q), vol_fixtures, 1e-12,
                                      vol_meta).to_json_dict()])
        if tef is shared:
            shared_normalizations, normalizations[0] = normalizations[0], 0
    assert reports[0] == reports[1]
    assert normalizations[0] == len(reads) == len(set(reads)) == 5 * 2 ** 4
    assert shared_normalizations == 2 * 2 + 3 * 2 ** 2


def test_validate_tef_reads_one_boundary_volume_per_site():
    """Every boundary validate_tef reads at one site lives on one Volume
    object, whichever partner site's fixture builds it, so its lookups
    compare volumes by identity. The fixtures are sampled, two boundaries
    per site pair, so each site is read under several partners."""
    from gibbsfields import cli

    model = cli.build_model("ising:beta=0.4,d=1,window=5")
    tef = tef_from_potential(model.potential, model.window, model.alphabet)
    volumes: dict = {}

    def table(t, boundary):
        volumes.setdefault(t, []).append(boundary.volume)
        return tef.table(t, boundary)

    recording = OnePointTEF(model.window, model.alphabet, tef.ratio_fn, FLOAT,
                            label="recording", table_fn=table)
    fixtures, meta = pair_site_fixtures(model.window, model.alphabet, max_tuples=320)
    assert meta.sampled and len(fixtures) == 10 * 2
    assert validate_tef(recording, fixtures, meta=meta).ok
    assert sorted(volumes) == list(model.window.sites)
    for t, read in volumes.items():
        assert len(read) > 2 * 2  # more than one partner's two boundaries
        assert read[0] == model.window - Volume.of([t])
        assert {id(v) for v in read} == {id(read[0])}


def _pair_fixture_keys(window, alphabet):
    """Every (site, boundary) key that validate_tef reads on the pair-site
    fixtures of the window."""
    fixtures, _ = pair_site_fixtures(window, alphabet)
    for t, s, z in fixtures:
        for site, other in ((t, s), (s, t)):
            for b in alphabet.symbols:
                yield site, concat(z, Configuration(Volume.of([other]), (b,)))


@pytest.mark.parametrize("kind", ["potential", "1spec-float", "1spec-rational", "ratio_fn"])
def test_tef_tables_hold_the_ratios_bit_for_bit(kind):
    """Every entry of a table is its ratio, bit for bit, and the potential's
    tables hold exp(H_t(u) - H_t(x)) of the Hamiltonian under the whole
    boundary, the per-entry expression the tables replaced."""
    phi, window = ising_potential(0.4), line_window(6)

    def per_entry(t, boundary, x, u):
        h = hamiltonian_from_potential(phi, t, boundary, window, SPIN)
        return math.exp(h[u] - h[x])

    make = {
        "potential": lambda: tef_from_potential(phi, window, SPIN),
        "1spec-float": lambda: tef_from_1spec(onepoint_spec_from_model(ising_demo(0.4, window=6))),
        "1spec-rational": lambda: tef_from_1spec(
            onepoint_spec_from_model(seeded_positive_table(window, SPIN, seed=6))),
        "ratio_fn": lambda: OnePointTEF(window, SPIN, per_entry, FLOAT),
    }
    d = make[kind]()
    pairs = [(x, u) for x in SPIN.symbols for u in SPIN.symbols]
    for site, boundary in _pair_fixture_keys(window, SPIN):
        table = d.table(site, boundary)
        assert list(table) == pairs
        for (x, u), r in table.items():
            one = d.ratio_fn(site, boundary, x, u)
            assert type(r) is type(one)
            assert r == one if isinstance(r, Fraction) else r.hex() == one.hex()
            if kind == "potential":
                assert r.hex() == per_entry(site, boundary, x, u).hex()


def reference_1spec(d):
    """The one-point Gibbs form of an energy field, normalized on every call."""
    ref = d.alphabet.symbols[0]

    def table(t, boundary):
        return specifications.normalized(
            {a: d.ratio_fn(t, boundary, a, ref) for a in d.alphabet.symbols}, d.mode)

    return specifications.OnePointSpec(d.window, d.alphabet, table, d.mode)


def reference_spec(q):
    """Reconstruction of a one-point family, recomputed on every call."""

    def kernel(V, boundary):
        if len(V) == 1:
            table = q.table(V.sites[0], boundary)
            return {Configuration(V, (a,)): p for a, p in table.items()}
        k = specifications.reconstruct_from_one_point(
            q.table_fn, V, boundary, q.alphabet, mode=q.mode)
        return dict(k.items())

    return specifications.Specification(q.window, q.alphabet, kernel, q.mode)


def far_dependence_tef() -> OnePointTEF:
    """The Ising field at beta 0.4 on 6 sites with its ratios at (0)
    rescaled by 1.5 ** ((u - x) * z(3)): a kernel that reads a far site."""
    window = line_window(6)
    tef = tef_from_potential(ising_potential(0.4), window, SPIN)

    def far_ratio(t, boundary, x, u):
        value = tef.ratio_fn(t, boundary, x, u)
        if t == (0,):
            value *= 1.5 ** ((u - x) * boundary[(3,)])
        return value

    return OnePointTEF(window, SPIN, far_ratio, FLOAT)


def test_cached_specs_still_catch_a_far_dependence():
    """The caches key on the whole boundary: a one-point kernel at (0) that
    reads the far site (3) is reported exactly as by the uncached reference."""
    far = far_dependence_tef()
    window = far.window
    q, q_ref = onepoint_spec_from_tef(far), reference_1spec(far)
    Q, Q_ref = spec_from_onepoint(q), reference_spec(q_ref)

    fixtures, meta = pair_site_fixtures(window, SPIN)
    cached = validate_1spec(q, fixtures, 1e-12, meta)
    assert not cached.ok
    assert {(v["t"], v["s"]) for v in cached.violations} == {("(0)", "(3)")}
    assert cached.to_json_dict() == validate_1spec(q_ref, fixtures, 1e-12, meta).to_json_dict()

    vol_fixtures, vol_meta = volume_split_fixtures(window, SPIN, 3)
    cached = validate_spec(Q, vol_fixtures, 1e-12, vol_meta)
    assert not cached.ok
    assert cached.to_json_dict() == validate_spec(Q_ref, vol_fixtures, 1e-12,
                                                  vol_meta).to_json_dict()
    # a second pass reads the caches and reports the same
    assert validate_spec(Q, vol_fixtures, 1e-12, vol_meta).to_json_dict() == \
        cached.to_json_dict()


def keys_reversed_where(table_fn, flip):
    """table_fn with each table's keys reversed, its values left in place,
    wherever flip(site, boundary): the same values, in the same order, then
    mean something else."""

    def table(t, boundary):
        out = table_fn(t, boundary)
        return dict(zip(reversed(list(out)), out.values())) if flip(t, boundary) else out

    return table


def dyadic_tables(window: Volume, floats: bool = False):
    """A rational 1-spec and energy field on binary symbols whose tables at
    (0) are off by 2^-40 when (1) holds 1: an exact check rejects them,
    and one within 1e-9 would accept them. With floats, where the
    boundary's first symbol is 1 the same values come as floats, which a
    rational family refuses."""
    e = Fraction(1, 2 ** 40)

    def typed(t, boundary, exact):
        out = dict(exact)
        if t == (0,) and boundary[(1,)] == 1:
            out[next(iter(out))] += e
            out[list(out)[-1]] -= e
        return {k: float(v) for k, v in out.items()} if floats and boundary.symbols[0] == 1 else out

    def one_point(t, boundary):
        return typed(t, boundary, {0: Fraction(1, 2), 1: Fraction(1, 2)})

    def ratios(t, boundary):
        return typed(t, boundary, {(x, u): Fraction(1) for x in (0, 1) for u in (0, 1)})

    tef = OnePointTEF(window, BIN, lambda t, b, x, u: ratios(t, b)[(x, u)], RATIONAL, 1e-9,
                      "dyadic", ratios)
    return tef, OnePointSpec(window, BIN, one_point, RATIONAL, "dyadic")


def memo_case(name: str) -> tuple:
    """(energy field, 1-spec, tol) of one differential memo case."""
    from test_negative_controls import TOL, corrupted_tef, ising_tef

    if name == "clean":
        tef = ising_tef(0.4)
    elif name == "corrupted":
        tef = corrupted_tef(ising_tef(0.4))
    elif name == "far":
        tef = far_dependence_tef()
    elif name == "exact":
        q = onepoint_spec_from_model(seeded_positive_table(line_window(4), BIN, 17))
        return tef_from_1spec(q), q, TOL
    elif name == "reversed-keys":
        clean = ising_tef(0.4)
        q = onepoint_spec_from_tef(clean)

        def flip(t, boundary):
            return t == (0,) and boundary[(1,)] == 1

        tef = OnePointTEF(clean.window, SPIN, clean.ratio_fn, FLOAT, TOL, "reversed",
                          keys_reversed_where(clean.table, flip))
        return tef, OnePointSpec(q.window, SPIN, keys_reversed_where(q.table, flip),
                                 FLOAT), TOL
    else:
        return (*dyadic_tables(line_window(4)), 1e-9)
    return tef, onepoint_spec_from_tef(tef), TOL


@pytest.mark.parametrize("name", ["clean", "corrupted", "exact", "far", "reversed-keys",
                                  "typed-entries"])
def test_a_memoized_report_is_the_merge_of_one_fixture_reports(name):
    """A validator call decides each tuple of tables once and replays the
    verdict: its report must be that of each fixture checked alone, merged.
    The last two cases break keys built from values alone (the same values
    under reversed keys) or blind to exactness (Fractions 2^-40 apart,
    within the tolerance); the same tables with floats among the Fractions
    are refused by name."""
    tef, q, tol = memo_case(name)
    fixtures, meta = pair_site_fixtures(q.window, q.alphabet)
    if name == "typed-entries":
        for validate, field, named in zip((validate_tef, validate_1spec),
                                          dyadic_tables(q.window, floats=True), ("1.0", "0.5")):
            with pytest.raises(specifications.ValidationError, match=f"rational mode: {named}$"):
                validate(field, fixtures, tol, meta)
    for validate, field in ((validate_tef, tef), (validate_1spec, q)):
        report = validate(field, fixtures, tol, meta)
        alone = [validate(field, [fixture], tol) for fixture in fixtures]
        assert report.violations == [v for r in alone for v in r.violations]
        assert report.max_residual == max(r.max_residual for r in alone)
        assert report.fixtures_checked == sum(r.fixtures_checked for r in alone)
        assert report.ok == (name in ("clean", "exact"))
        if name == "corrupted":
            assert len(report.violations) == 340


def test_cached_specs_raise_again_and_share_int_sites():
    window = line_window(4)

    def vanishing(t, boundary):
        if t == (0,) and boundary[(1,)] == -1:
            return {-1: 0.0, 1: 1.0}
        return {-1: 0.5, 1: 0.5}

    # symbol -1 vanishes at (0) when (1) holds -1; -1 is the reference
    # symbol of both the Gibbs form and the reconstruction
    q0 = specifications.OnePointSpec(window, SPIN, vanishing, FLOAT)
    rest = window - volume(0)
    boundary = Configuration(rest, (-1,) * len(rest))
    q = onepoint_spec_from_tef(tef_from_1spec(q0))
    for _ in range(2):
        with pytest.raises(specifications.PositivityError):
            q.table((0,), boundary)
    Q = spec_from_onepoint(q0)
    V = volume(0, 1)
    z = Configuration(window - V, (1, 1))
    for _ in range(2):
        with pytest.raises(specifications.PositivityError):
            Q.kernel(V, z)

    # an int site and its one-coordinate tuple share one key; equal tables
    # under boundaries that differ only beyond the neighbours share one object
    ising = onepoint_spec_from_tef(tef_from_potential(ising_potential(0.4), window, SPIN))
    assert ising.table(0, boundary) is ising.table((0,), boundary)
    far_flip = Configuration(rest, (-1, -1, 1))
    assert ising.table((0,), far_flip) is ising.table((0,), boundary)
    near_flip = Configuration(rest, (1, -1, -1))
    assert ising.table((0,), near_flip) != ising.table((0,), boundary)


def test_fixture_budget_sampling_deterministic():
    window = line_window(9)
    exhaustive, meta = pair_site_fixtures(window, BIN, max_tuples=10**6)
    assert not meta.sampled
    assert meta.space == len(exhaustive) * 2 ** 4

    sampled_a, meta_a = pair_site_fixtures(window, BIN, max_tuples=512, seed=5)
    sampled_b, meta_b = pair_site_fixtures(window, BIN, max_tuples=512, seed=5)
    assert meta_a.sampled and sampled_a == sampled_b
    assert len(sampled_a) < len(exhaustive)


def reference_pair_site_fixtures(window, alphabet, max_tuples, seed):
    """pair_site_fixtures as two separate loops, before the shared sampler."""
    sites = window.sites
    pairs = list(combinations(sites, 2))
    inner = alphabet.size ** 4
    space = len(pairs) * (alphabet.size ** (len(sites) - 2)) * inner
    fixtures = []
    if space <= max_tuples:
        for t, s in pairs:
            for z in enumerate_configurations(window - Volume.of([t, s]), alphabet):
                fixtures.append((t, s, z))
        return fixtures, specifications.FixtureMeta(space, len(fixtures) * inner, False)
    rng = random.Random(seed)
    per_pair = max(1, max_tuples // (len(pairs) * inner))
    for t, s in pairs:
        rest = window - Volume.of([t, s])
        for _ in range(per_pair):
            symbols = tuple(rng.choice(alphabet.symbols) for _ in rest)
            fixtures.append((t, s, Configuration(rest, symbols)))
    return fixtures, specifications.FixtureMeta(space, len(fixtures) * inner, True, seed)


def reference_volume_split_fixtures(window, alphabet, max_volume, max_tuples, seed):
    """volume_split_fixtures before the shared sampler."""
    k, sites, splits = alphabet.size, window.sites, []
    for v_size in range(2, max_volume + 1):
        for v_sites in combinations(sites, v_size):
            for i_size in range(1, v_size):
                for i_sites in combinations(v_sites, i_size):
                    splits.append((Volume.of(v_sites), Volume.of(i_sites),
                                   window - Volume.of(v_sites)))
    space = sum(k ** (len(sites) - len(V)) * k ** (len(V) + len(I)) for V, I, _ in splits)
    fixtures = []
    if space <= max_tuples:
        for V, I, rest in splits:
            for z in enumerate_configurations(rest, alphabet):
                fixtures.append((V, I, z))
        return fixtures, specifications.FixtureMeta(space, space, False)
    rng = random.Random(seed)
    per_split = max(1, max_tuples // max(1, len(splits) * k ** (2 * max_volume)))
    checked = 0
    for V, I, rest in splits:
        for _ in range(per_split):
            symbols = tuple(rng.choice(alphabet.symbols) for _ in rest)
            fixtures.append((V, I, Configuration(rest, symbols)))
            checked += k ** (len(V) + len(I))
    return fixtures, specifications.FixtureMeta(space, checked, True, seed)


def test_shared_fixture_sampler_matches_the_two_reference_loops():
    """Pairs and splits, exhaustive and sampled, on line and grid windows
    and three alphabets: the same fixtures in the same order, and metadata
    with the same repr."""
    ternary = Alphabet.of((0, 1, 2))
    windows = [line_window(n) for n in (2, 3, 5, 7)] + [grid_window(3, 3), grid_window(2, 3)]
    for window, alphabet in product(windows, (BIN, SPIN, ternary)):
        for budget, seed in product((0, 1, 7, 64, 500, 2000, 10**4, 10**6), (0, 5)):
            cases = [(pair_site_fixtures(window, alphabet, budget, seed),
                      reference_pair_site_fixtures(window, alphabet, budget, seed))]
            cases += [(volume_split_fixtures(window, alphabet, v, budget, seed),
                       reference_volume_split_fixtures(window, alphabet, v, budget, seed))
                      for v in (2, 3)]
            for (fixtures, meta), (want, want_meta) in cases:
                assert fixtures == want and repr(meta) == repr(want_meta)


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
    # the first translate in site order that leaves the boundary is named
    with pytest.raises(GeometryError, match=r"^boundary misses interacting sites \(-1\)$"):
        finite_volume_gibbs(phi, volume(0), Configuration(Volume.empty(), ()),
                            window, SPIN)


def reference_value(terms, A, local):
    """Term value of a translate, looked up in the potential's term list."""
    anchor = A.sites[0]
    template = Volume(tuple(tuple(a - b for a, b in zip(s, anchor)) for s in A))
    return terms.get((template, Configuration(template, local.symbols)), 0.0)


def reference_gibbs(phi, V, boundary, window, alphabet):
    """The per-configuration Gibbs weights: restrict and concat per translate."""
    translates = sorted(specifications._translates(phi, V, window), key=lambda a: a.sites)
    terms = dict(phi.terms)
    weights = {}
    for x in enumerate_configurations(V, alphabet):
        total = 0.0
        for A in translates:
            local = restrict(x, A & V)
            if A - V:
                local = concat(local, restrict(boundary, A - V))
            total += reference_value(terms, A, local)
        weights[x] = math.exp(-total)
    z = math.fsum(weights.values())
    return {x: w / z for x, w in weights.items()}


def reference_hamiltonian(phi, site, boundary, window, alphabet):
    t_vol = Volume((site,))
    translates = specifications._translates(phi, t_vol, window)
    terms = dict(phi.terms)
    values = {}
    for a in alphabet.symbols:
        total = 0.0
        for A in translates:
            local = concat(Configuration(t_vol, (a,)), restrict(boundary, A - t_vol))
            total += reference_value(terms, A, local)
        values[a] = total
    return values


def potential_of(templates, base=Potential(())):
    """base plus, per template, a distinct term on every configuration but
    the first, which is left out so that its term reads 0.0."""
    terms = dict(base.terms)
    for k, sites in enumerate(templates):
        template = Volume.of(sites)
        for j, symbols in enumerate(product(SPIN.symbols, repeat=len(template))):
            if j:
                terms[(template, Configuration(template, symbols))] = 0.3 * (k + 1) - 0.17 * j
    return Potential.of(terms)


PLAN_MODELS = [
    (line_window(13), ising_potential(0.4)),
    (grid_window(3, 3), ising_potential(0.7, 0.3, 2)),
    (grid_window(4, 3), ising_potential(2.5, -0.2, 2)),
    (line_window(5), ising_potential(0.1)),
    # a gapped pair and a triple whose sites are not one run of the line
    (line_window(11), potential_of([[(0,), (2,)], [(0,), (1,), (3,)]], ising_potential(0.2, 0.1))),
    # a diagonal and an anti-diagonal pair next to the nearest-neighbour ones
    (grid_window(4, 3), potential_of([[(0, 0), (1, 1)], [(0, 1), (1, 0)]],
                                     ising_potential(0.6, 0.2, 2))),
]


def alternating(vol):
    return Configuration(vol, tuple((-1) ** i for i in range(len(vol))))


@pytest.mark.parametrize("window, phi", PLAN_MODELS,
                         ids=["line13", "grid3x3", "grid4x3", "line5", "line11-gapped",
                              "grid4x3-diagonal"])
def test_gibbs_plans_match_the_per_configuration_reference(window, phi):
    def hexed(table):
        return [(c, p.hex()) for c, p in table.items()]

    empty = Configuration(Volume.empty(), ())
    inner = Volume(window.sites[1:-1])
    for V, boundary in ((window, empty), (inner, alternating(window - inner))):
        got = finite_volume_gibbs(phi, V, boundary, window, SPIN)
        assert hexed(got) == hexed(reference_gibbs(phi, V, boundary, window, SPIN))
    with pytest.raises(GeometryError, match="^boundary misses interacting sites"):
        finite_volume_gibbs(phi, inner, empty, window, SPIN)
    for site in (window.sites[0], window.sites[len(window) // 2]):
        boundary = alternating(window - Volume((site,)))
        got = hamiltonian_from_potential(phi, site, boundary, window, SPIN)
        want = reference_hamiltonian(phi, site, boundary, window, SPIN)
        assert hexed(got) == hexed(want)
        with pytest.raises(GeometryError, match="^boundary misses interacting sites"):
            hamiltonian_from_potential(phi, site, empty, window, SPIN)


def test_finite_volume_gibbs_sums_energies_by_columns(monkeypatch):
    calls = []
    real = specifications._energies

    def counting(phi, translates, V, boundary, alphabet):
        calls.append(V)
        return real(phi, translates, V, boundary, alphabet)

    monkeypatch.setattr(specifications, "_energies", counting)
    window = line_window(13)
    dist = finite_volume_gibbs(ising_potential(0.4), window, Configuration(Volume.empty(), ()),
                               window, SPIN)
    assert len(dist) == 2 ** 13 and calls == [window]  # one call builds every energy
    for site in ((0,), (6,)):
        hamiltonian_from_potential(ising_potential(0.4), site,
                                   alternating(window - Volume((site,))), window, SPIN)
    assert calls[1:] == [volume(0), volume(6)]  # one call per one-point Hamiltonian


def reference_weight(phi, c):
    """exp(-H(c)), H summed per translate inside c's volume in discovery order."""
    terms = dict(phi.terms)
    total = 0.0
    for A in specifications._translates(phi, c.volume, c.volume):
        total += reference_value(terms, A, restrict(c, A))
    return math.exp(-total)


def test_measure_weights_match_the_per_translate_reference():
    rng = random.Random(5)
    for window, phi in PLAN_MODELS:
        mu = measure_system_from_potential(phi, window, SPIN)
        for vol in (window, Volume(window.sites[1:-1]), Volume(window.sites[::2])):
            configs = [alternating(vol)] + [
                Configuration(vol, tuple(rng.choice(SPIN.symbols) for _ in vol))
                for _ in range(12)]
            for c in configs:
                assert mu.value(c).hex() == reference_weight(phi, c).hex(), (window, c)


def test_a_measure_table_finds_the_translates_of_its_volume_once(monkeypatch):
    calls = []
    real = specifications._translates
    monkeypatch.setattr(specifications, "_translates",
                        lambda phi, V, container: calls.append(V) or real(phi, V, container))
    window = line_window(9)
    phi = ising_potential(0.4)
    table = measure_system_from_potential(phi, window, SPIN).table(window)
    assert len(table) == 2 ** 9 and calls == [window]
    assert [w.hex() for w in table.values()] == [reference_weight(phi, c).hex() for c in table]


def test_a_measure_value_enumerates_no_volume(monkeypatch):
    monkeypatch.setenv("GFL_ENUM_CAP", "4")
    window = line_window(40)
    phi = ising_potential(0.4, 0.1)
    c = alternating(Volume(window.sites[:25]))
    assert measure_system_from_potential(phi, window, SPIN).value(c).hex() == \
        reference_weight(phi, c).hex()


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


def test_measure_system_table_holds_every_value_on_a_volume():
    m = bernoulli_product(Fraction(1, 4), line_window(3))
    mu = measure_system_from_model(m)
    table = mu.table(volume(0, 1))
    assert list(table) == list(enumerate_configurations(volume(0, 1), m.alphabet))
    assert all(table[c] == m.prob(c) for c in table)
    assert sum(table.values()) == 1


def test_a_gibbs_volume_field_is_described_by_its_size():
    field = GibbsVolumeField(ising_potential(0.4), line_window(3), SPIN)
    assert field.describe() == "gibbs[3 sites]"


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
