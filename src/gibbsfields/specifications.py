"""A-priori specifications, transition energy fields and potentials.

These are the autonomously given counterparts of the objects derived from
a random field: one-point and multi-point kernel families with their
consistency axioms, energy fields with cocycle and exchange laws, and the
two standard constructions, from a finite-range potential and from a
system of positive measures. Validators check the axioms on explicit
fixture families: exhaustively when the quantified space is small enough,
otherwise on a seeded sample of reported size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Callable, Sequence

from .lattice import (
    Alphabet,
    Configuration,
    Filtration,
    GeometryError,
    Volume,
    concat,
    enumerate_configurations,
    format_site,
    parse_site,
    restrict,
)
from .fields import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    Comparison,
    FiniteDistribution,
    RandomFieldModel,
    close,
    normalized,
    scalar_sum,
)
from .conditionals import KernelCache, PositivityError, reconstruct_from_one_point

EXHAUSTIVE_TUPLE_BUDGET = 10**6


# ---------------------------------------------------------------------------
# potentials

@dataclass(frozen=True)
class Potential:
    """Finite-range translation-invariant interaction.

    Terms are keyed by a template volume anchored so its first site is the
    origin, together with a configuration on it. A term contributes at
    every translate of its template that fits inside the working window.
    """

    terms: tuple  # sorted tuple of ((template, configuration), value)

    @staticmethod
    def of(mapping) -> "Potential":
        normalized = {}
        for (template, cfg), value in mapping.items():
            anchor = template.sites[0]
            shifted_sites = tuple(_shift(s, _neg(anchor)) for s in template)
            shifted = Volume(shifted_sites)
            normalized[(shifted, Configuration(shifted, cfg.symbols))] = float(value)
        return Potential(tuple(sorted(normalized.items(), key=lambda kv: (kv[0][0].sites, kv[0][1].symbols))))

    def templates(self) -> list:
        seen = []
        for (template, _), _ in self.terms:
            if template not in seen:
                seen.append(template)
        return seen

    @cached_property
    def _table(self) -> dict:
        return dict(self.terms)

    def value(self, A: Volume, cfg: Configuration) -> float:
        anchor = A.sites[0]
        template = Volume(tuple(_shift(s, _neg(anchor)) for s in A))
        return self._table.get((template, Configuration(template, cfg.symbols)), 0.0)

    def reach(self) -> int:
        """Largest L-infinity distance between two sites of one template."""
        best = 0
        for template in self.templates():
            for a in template:
                for b in template:
                    d = max(abs(x - y) for x, y in zip(a, b))
                    best = max(best, d)
        return best


def _shift(site, delta):
    return tuple(a + b for a, b in zip(site, delta))


def _neg(site):
    return tuple(-a for a in site)


def ising_potential(beta: float, h: float = 0.0, d: int = 1) -> Potential:
    """Nearest-neighbor pair coupling -beta*x*y plus field term -h*x."""
    terms = {}
    origin = (0,) * d
    for axis in range(d):
        step = tuple(1 if i == axis else 0 for i in range(d))
        pair = Volume.of([origin, step])
        for a in (-1, 1):
            for b in (-1, 1):
                terms[(pair, Configuration(pair, (a, b)))] = -beta * a * b
    if h != 0.0:
        single = Volume.of([origin])
        for a in (-1, 1):
            terms[(single, Configuration(single, (a,)))] = -h * a
    return Potential.of(terms)


def zero_potential(d: int = 1) -> Potential:
    return Potential(())


def format_potential(phi: Potential, alphabet: Alphabet) -> str:
    """Lines `template_offsets | configuration | value`."""
    lines = []
    for (template, cfg), value in phi.terms:
        offs = ",".join(format_site(s) for s in template)
        sym = ",".join(alphabet.name_of(v) for v in cfg.symbols)
        lines.append(f"{offs} | {sym} | {value!r}")
    return "\n".join(lines) + "\n"


def parse_potential(text: str, alphabet: Alphabet) -> Potential:
    terms = {}
    for raw in text.splitlines():
        raw = raw.strip()
        if not raw or raw.startswith("#"):
            continue
        offs_part, sym_part, value_part = (p.strip() for p in raw.split("|"))
        sites = [parse_site("(" + p.strip().strip("()") + ")") for p in offs_part.split("),")]
        vol = Volume.of(sites)
        symbols = tuple(alphabet.symbol_of(n.strip()) for n in sym_part.split(","))
        terms[(vol, Configuration(vol, symbols))] = float(value_part)
    return Potential.of(terms)


def _translates(phi: Potential, V: Volume, container: Volume) -> list:
    """Template translates that touch V and fit in the container.

    Discovery order: template, then site of V, then template site; a
    template's translate by a shift already seen is skipped.
    """
    out = []
    for template in phi.templates():
        seen = set()
        for v in V:
            for o in template:
                s = tuple(a - b for a, b in zip(v, o))
                if s in seen:
                    continue
                seen.add(s)
                translate = Volume(tuple(sorted(_shift(site, s) for site in template)))
                if translate.issubset(container):
                    out.append(translate)
    return out


def _interaction_neighbourhood(phi: Potential, site, window: Volume) -> Volume:
    """Sites other than site that share a template translate in the window with it."""
    t_vol = Volume((site,))
    return Volume.of(s for A in _translates(phi, t_vol, window) for s in A) - t_vol


def hamiltonian_from_potential(phi: Potential, t, boundary: Configuration,
                               window: Volume, alphabet: Alphabet) -> dict:
    """One-point Hamiltonian H_t(x) = sum of all terms touching t.

    The boundary must cover every interacting site inside the window.
    Returns a symbol -> float table.
    """
    site = t if isinstance(t, tuple) else (t,)
    t_vol = Volume.of([site])
    translates = _translates(phi, t_vol, window)
    values = {}
    for a in alphabet.symbols:
        total = 0.0
        for A in translates:
            missing = (A - t_vol) - boundary.volume
            if missing:
                raise GeometryError(f"boundary misses interacting sites {missing}")
            local = concat(Configuration(t_vol, (a,)), restrict(boundary, A - t_vol))
            total += phi.value(A, local)
        values[a] = total
    return values


@dataclass
class OnePointTEF:
    """One-point transition energy field given as a ratio evaluator.

    ratio(t, boundary, x, u) is exp of the energy difference between
    symbols x and u at site t under the boundary configuration.
    """

    window: Volume
    alphabet: Alphabet
    ratio_fn: Callable
    mode: str = FLOAT
    tol: float = DEFAULT_TOL
    label: str = "tef"

    def ratio(self, t, boundary: Configuration, x, u):
        return self.ratio_fn(t, boundary, x, u)

    def value(self, t, boundary: Configuration, x, u) -> float:
        return math.log(float(self.ratio(t, boundary, x, u)))


def tef_from_potential(phi: Potential, window: Volume, alphabet: Alphabet) -> OnePointTEF:
    """Energy field delta_t(x,u) = H_t(u) - H_t(x) from a finite-range potential.

    H_t reads the boundary only on the interaction neighbourhood of t, so
    a boundary seen for the first time is looked up by its restriction to
    that neighbourhood; the table is then stored under both keys.
    """
    cache: dict = {}
    neighbourhoods: dict = {}

    def ratio(t, boundary, x, u):
        site = t if isinstance(t, tuple) else (t,)
        key = (site, boundary)
        h = cache.get(key)
        if h is None:
            near = neighbourhoods.get(site)
            if near is None:
                near = neighbourhoods[site] = _interaction_neighbourhood(phi, site, window)
            local = restrict(boundary, near & boundary.volume)
            h = cache.get((site, local))
            if h is None:
                h = cache[(site, local)] = hamiltonian_from_potential(
                    phi, site, local, window, alphabet)
            cache[key] = h
        return math.exp(h[u] - h[x])

    return OnePointTEF(window, alphabet, ratio, FLOAT, DEFAULT_TOL, "tef-from-potential")


def tef_from_1spec(q: "OnePointSpec") -> OnePointTEF:
    def ratio(t, boundary, x, u):
        table = q.table(t, boundary)
        try:
            return table[x] / table[u]
        except ZeroDivisionError:
            raise PositivityError(f"one-point kernel vanishes under {boundary}") from None

    return OnePointTEF(q.window, q.alphabet, ratio, q.mode, q.tol, "tef-from-1spec")


# ---------------------------------------------------------------------------
# specifications

class InconsistentTEFError(ValueError):
    """A transition energy field failed its cocycle axiom."""


@dataclass
class OnePointSpec:
    """Family of one-point kernels indexed by full boundary conditions."""

    window: Volume
    alphabet: Alphabet
    table_fn: Callable  # (site, boundary Configuration) -> {symbol: scalar}
    mode: str = RATIONAL
    tol: float = DEFAULT_TOL
    label: str = "1spec"

    def table(self, t, boundary: Configuration) -> dict:
        return self.table_fn(t, boundary)

    def as_one_point(self) -> Callable:
        return self.table_fn


@dataclass
class Specification:
    """Family of kernels on arbitrary finite volumes under full boundaries."""

    window: Volume
    alphabet: Alphabet
    kernel_fn: Callable  # (Volume, boundary Configuration) -> {Configuration: scalar}
    mode: str = RATIONAL
    tol: float = DEFAULT_TOL
    label: str = "spec"

    def kernel(self, V: Volume, boundary: Configuration) -> dict:
        return self.kernel_fn(V, boundary)


def onepoint_spec_from_model(m: RandomFieldModel,
                             kernels: KernelCache | None = None) -> OnePointSpec:
    """One-point conditionals of a model, read through a kernel cache."""
    kernels = kernels or KernelCache(m)

    def table(t, boundary):
        site = t if isinstance(t, tuple) else (t,)
        k = kernels(Volume.of([site]), boundary)
        return {c.symbols[0]: p for c, p in k.items()}

    return OnePointSpec(m.window, m.alphabet, table, m.mode, m.tol,
                        label=f"1spec({m.describe()})")


def spec_from_model(m: RandomFieldModel, kernels: KernelCache | None = None) -> Specification:
    """Finite conditionals of a model, read through a kernel cache. The
    returned tables are the cache's own and must not be mutated."""
    kernels = kernels or KernelCache(m)

    def kernel(V, boundary):
        return kernels(V, boundary).probs

    return Specification(m.window, m.alphabet, kernel, m.mode, m.tol,
                         label=f"spec({m.describe()})")


def onepoint_spec_from_tef(d: OnePointTEF) -> OnePointSpec:
    """Gibbs form of an energy field: q(x) proportional to ratio(x, reference)."""
    ref = d.alphabet.symbols[0]

    def table(t, boundary):
        return normalized({a: d.ratio(t, boundary, a, ref) for a in d.alphabet.symbols},
                          d.mode)

    return OnePointSpec(d.window, d.alphabet, table, d.mode, d.tol,
                        label=f"1spec({d.label})")


def spec_from_onepoint(q: OnePointSpec) -> Specification:
    """Extend a one-point family to all finite volumes by reconstruction."""

    def kernel(V, boundary):
        if len(V) == 1:
            table = q.table(V.sites[0], boundary)
            return {Configuration(V, (a,)): p for a, p in table.items()}
        k = reconstruct_from_one_point(q.as_one_point(), V, boundary,
                                       q.alphabet, mode=q.mode, tol=q.tol)
        return dict(k.items())

    return Specification(q.window, q.alphabet, kernel, q.mode, q.tol,
                         label=f"spec({q.label})")


# ---------------------------------------------------------------------------
# finite-volume Gibbs distributions

def finite_volume_gibbs(phi: Potential, V: Volume, boundary: Configuration,
                        window: Volume, alphabet: Alphabet,
                        tol: float = DEFAULT_TOL) -> FiniteDistribution:
    """Distribution proportional to exp(-H) on V with fixed outside values.

    H sums every translate of a potential template that fits in the window
    and touches V; sites of a translate outside V read from the boundary.
    """
    translates = sorted(_translates(phi, V, window), key=lambda a: a.sites)
    for A in translates:
        missing = (A - V) - boundary.volume
        if missing:
            raise GeometryError(f"boundary misses interaction collar sites {missing}")

    def hamiltonian(x: Configuration) -> float:
        total = 0.0
        for A in translates:
            inner = A & V
            local = restrict(x, inner)
            outer = A - V
            if outer:
                local = concat(local, restrict(boundary, outer))
            total += phi.value(A, local)
        return total

    weights = {x: math.exp(-hamiltonian(x)) for x in enumerate_configurations(V, alphabet)}
    return FiniteDistribution(V, alphabet, normalized(weights, FLOAT), FLOAT, tol)


class GibbsVolumeField(RandomFieldModel):
    """Random field realized by one finite-volume Gibbs distribution."""

    def __init__(self, phi: Potential, window: Volume, alphabet: Alphabet,
                 boundary: Configuration | None = None, tol: float = DEFAULT_TOL):
        from .lattice import EMPTY_CONFIGURATION
        self.potential = phi
        self.window = window
        self.alphabet = alphabet
        self.mode = FLOAT
        self.tol = tol
        self.boundary = boundary or EMPTY_CONFIGURATION
        self._table = finite_volume_gibbs(phi, window, self.boundary, window, alphabet, tol)
        self._marginals = {window: self._table}

    def marginal(self, V: Volume) -> FiniteDistribution:
        self._check_volume(V)
        if V not in self._marginals:
            from .fields import marginalize
            self._marginals[V] = marginalize(self._table, V)
        return self._marginals[V]

    def describe(self) -> str:
        return f"gibbs[{len(self.window)} sites]"


# ---------------------------------------------------------------------------
# measure systems

@dataclass
class MeasureSystem:
    """Positive un-normalized measures on every finite sub-volume."""

    window: Volume
    alphabet: Alphabet
    value_fn: Callable  # Configuration -> positive scalar
    mode: str = RATIONAL
    tol: float = DEFAULT_TOL
    label: str = "mu"

    def value(self, c: Configuration):
        v = self.value_fn(c)
        if v <= 0:
            raise ValueError(f"measure must be strictly positive, got {v} at {c}")
        return v

    def table(self, V: Volume) -> dict:
        return {c: self.value(c) for c in enumerate_configurations(V, self.alphabet)}


def measure_system_from_model(m: RandomFieldModel) -> MeasureSystem:
    return MeasureSystem(m.window, m.alphabet, m.prob, m.mode, m.tol,
                         label=f"mu({m.describe()})")


def measure_system_from_potential(phi: Potential, window: Volume,
                                  alphabet: Alphabet) -> MeasureSystem:
    """Free-boundary Gibbs weights exp(-H) as an un-normalized measure system."""

    def value(c: Configuration) -> float:
        total = 0.0
        for translate in _translates(phi, c.volume, c.volume):
            total += phi.value(translate, restrict(c, translate))
        return math.exp(-total)

    return MeasureSystem(window, alphabet, value, FLOAT, DEFAULT_TOL, "mu(gibbs-weights)")


@dataclass
class StagedTEFReport:
    """Per-stage energy ratios of one site along a filtration."""

    site: tuple
    filtration: Filtration
    stage_ratios: list  # per stage: {(x, u): scalar}
    stabilized: bool
    final_ratios: dict
    label: str = ""

    def evaluator(self) -> Callable:
        if not self.stabilized:
            raise InconsistentTEFError("stage ratios did not stabilize")
        final = self.final_ratios

        def ratio(t, boundary, x, u):
            return final[(x, u)]

        return ratio


def tef_from_measure_system(mu: MeasureSystem, t, F: Filtration, boundary,
                            tol: float | None = None) -> StagedTEFReport:
    """Stage-wise energy ratios mu(x z_n) / mu(u z_n) and their stability.

    The boundary is a full configuration on (at least) the deepest stage
    minus t, or a boundary generator with a ``configs`` method; each stage
    uses its restriction. Stabilized means the last two stages agree.
    """
    site = t if isinstance(t, tuple) else (t,)
    t_vol = Volume.of([site])
    tol = mu.tol if tol is None else tol
    if hasattr(boundary, "configs"):
        stage_configs = boundary.configs(t_vol, F)
    else:
        stage_configs = [restrict(boundary, (stage - t_vol) & boundary.volume)
                         for stage in F]
    syms = mu.alphabet.symbols
    pairs = [(x, u) for x in syms for u in syms if x != u]
    stage_ratios = []
    for z in stage_configs:
        ratios = {}
        cache = {a: mu.value(concat(Configuration(t_vol, (a,)), z)) for a in syms}
        for x, u in pairs:
            ratios[(x, u)] = cache[x] / cache[u]
        stage_ratios.append(ratios)
    stabilized = len(stage_ratios) >= 2 and all(
        close(stage_ratios[-1][p], stage_ratios[-2][p], tol) for p in pairs)
    return StagedTEFReport(site, F, stage_ratios, stabilized, stage_ratios[-1],
                           label=mu.label)


# ---------------------------------------------------------------------------
# axiom validators

@dataclass
class FixtureMeta:
    space: int
    checked: int
    sampled: bool
    seed: int | None = None


@dataclass
class ValidationReport:
    axiom: str
    fixtures_checked: int
    violations: list
    max_residual: float
    meta: FixtureMeta | None = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        out = {
            "axiom": self.axiom,
            "fixtures_checked": self.fixtures_checked,
            "violations": self.violations,
            "max_residual": self.max_residual,
        }
        if self.meta:
            out["fixture_space"] = self.meta.space
            out["sampled"] = self.meta.sampled
            if self.meta.sampled:
                out["seed"] = self.meta.seed
        return out


def pair_site_fixtures(window: Volume, alphabet: Alphabet,
                       max_tuples: int = EXHAUSTIVE_TUPLE_BUDGET,
                       seed: int = 0) -> tuple:
    """(t, s, boundary) fixtures over all site pairs and full boundaries.

    Exhaustive when (pairs * boundaries * |X|^4) fits the budget, else a
    seeded sample of boundaries per pair.
    """
    sites = window.sites
    pairs = list(combinations(sites, 2))
    n_boundary_sites = len(sites) - 2
    inner = alphabet.size ** 4
    space = len(pairs) * (alphabet.size ** n_boundary_sites) * inner
    fixtures = []
    if space <= max_tuples:
        for t, s in pairs:
            rest = window - Volume.of([t, s])
            for z in enumerate_configurations(rest, alphabet):
                fixtures.append((t, s, z))
        return fixtures, FixtureMeta(space, len(fixtures) * inner, False)
    rng = random.Random(seed)
    per_pair = max(1, max_tuples // (len(pairs) * inner))
    for t, s in pairs:
        rest = window - Volume.of([t, s])
        for _ in range(per_pair):
            symbols = tuple(rng.choice(alphabet.symbols) for _ in rest)
            fixtures.append((t, s, Configuration(rest, symbols)))
    return fixtures, FixtureMeta(space, len(fixtures) * inner, True, seed)


def volume_split_fixtures(window: Volume, alphabet: Alphabet, max_volume: int = 3,
                          max_tuples: int = EXHAUSTIVE_TUPLE_BUDGET,
                          seed: int = 0) -> tuple:
    """(V, I, boundary) fixtures for the multi-point consistency axiom."""
    sites = window.sites
    splits = []
    for v_size in range(2, max_volume + 1):
        for v_sites in combinations(sites, v_size):
            V = Volume.of(v_sites)
            for i_size in range(1, v_size):
                for i_sites in combinations(v_sites, i_size):
                    splits.append((V, Volume.of(i_sites)))
    space = 0
    for V, I in splits:
        inner = (alphabet.size ** (2 * len(I))) * (alphabet.size ** (len(V) - len(I)))
        space += (alphabet.size ** (len(sites) - len(V))) * inner
    fixtures = []
    if space <= max_tuples:
        for V, I in splits:
            for z in enumerate_configurations(window - V, alphabet):
                fixtures.append((V, I, z))
        return fixtures, FixtureMeta(space, space, False)
    rng = random.Random(seed)
    per_split = max(1, max_tuples // max(1, len(splits) * alphabet.size ** (2 * max_volume)))
    checked = 0
    for V, I in splits:
        rest = window - V
        inner = (alphabet.size ** (2 * len(I))) * (alphabet.size ** (len(V) - len(I)))
        for _ in range(per_split):
            symbols = tuple(rng.choice(alphabet.symbols) for _ in rest)
            fixtures.append((V, I, Configuration(rest, symbols)))
            checked += inner
    return fixtures, FixtureMeta(space, checked, True, seed)


def validate_1spec(q: OnePointSpec, fixtures: Sequence, tol: float | None = None,
                   meta: FixtureMeta | None = None) -> ValidationReport:
    """Check normalization, positivity and the two-site exchange identity."""
    tol = q.tol if tol is None else tol
    syms = q.alphabet.symbols
    violations = []
    holds = Comparison(tol)
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
                                "kind": "exchange",
                                "t": format_site(t), "s": format_site(s), "z": str(z),
                                "symbols": [str(x), str(u), str(y), str(v)],
                                "lhs": float(lhs), "rhs": float(rhs),
                            })
    return ValidationReport("one-point-exchange", len(fixtures) * len(syms) ** 4,
                            violations, holds.worst, meta)


def validate_spec(Q: Specification, fixtures: Sequence, tol: float | None = None,
                  meta: FixtureMeta | None = None) -> ValidationReport:
    """Check the subset-consistency identity of a specification."""
    tol = Q.tol if tol is None else tol
    violations = []
    holds = Comparison(tol)
    checked = 0
    for V, I, z in fixtures:
        kernel_V = Q.kernel(V, z)
        xs = enumerate_configurations(I, Q.alphabet)
        pairs = list(combinations(xs, 2))
        for y in enumerate_configurations(V - I, Q.alphabet):
            kernel_I = Q.kernel(I, concat(z, y))
            joint = {x: kernel_V[concat(x, y)] for x in xs}
            checked += len(pairs)
            for x, u in pairs:
                lhs = joint[x] * kernel_I[u]
                rhs = joint[u] * kernel_I[x]
                if not holds(lhs, rhs):
                    violations.append({
                        "kind": "consistency",
                        "V": str(V), "I": str(I), "z": str(z),
                        "lhs": float(lhs), "rhs": float(rhs),
                    })
    return ValidationReport("specification-consistency", checked, violations,
                            holds.worst, meta)


def cocycle_sides(ratios: dict, keys: Sequence):
    """(r(x, u), r(x, y) * r(y, u)) over every triple x, y, u of keys, with
    r(x, u) = ratios[(x, u)]."""
    for x in keys:
        for y in keys:
            r_xy = ratios[(x, y)]
            for u in keys:
                yield ratios[(x, u)], r_xy * ratios[(y, u)]


def validate_tef(d: OnePointTEF, fixtures: Sequence, tol: float | None = None,
                 meta: FixtureMeta | None = None) -> ValidationReport:
    """Check per-site cocycle and the two-site exchange law of an energy field."""
    tol = d.tol if tol is None else tol
    syms = d.alphabet.symbols
    violations = []
    holds = Comparison(tol)
    for t, s, z in fixtures:
        t_vol, s_vol = Volume.of([t]), Volume.of([s])
        # hoist boundary construction and ratio tables out of the symbol loops
        r_t = {}
        r_s = {}
        for b in syms:
            boundary = concat(z, Configuration(s_vol, (b,)))
            r_t[b] = {(x, u): d.ratio(t, boundary, x, u)
                      for x in syms for u in syms}
        for a in syms:
            boundary = concat(z, Configuration(t_vol, (a,)))
            r_s[a] = {(y, v): d.ratio(s, boundary, y, v)
                      for y in syms for v in syms}

        for site, table in ((t, r_t), (s, r_s)):
            for b in syms:
                for lhs, rhs in cocycle_sides(table[b], syms):
                    if not holds(lhs, rhs):
                        violations.append({"kind": "cocycle", "t": format_site(site),
                                           "z": str(z),
                                           "lhs": float(lhs), "rhs": float(rhs)})
        for x in syms:
            for u in syms:
                for y in syms:
                    for v in syms:
                        lhs = r_t[y][(x, u)] * r_s[u][(y, v)]
                        rhs = r_s[x][(y, v)] * r_t[v][(x, u)]
                        if not holds(lhs, rhs):
                            violations.append({
                                "kind": "exchange",
                                "t": format_site(t), "s": format_site(s), "z": str(z),
                                "symbols": [str(x), str(u), str(y), str(v)],
                                "lhs": float(lhs), "rhs": float(rhs),
                            })
    return ValidationReport("energy-field-axioms", len(fixtures) * len(syms) ** 4 * 3,
                            violations, holds.worst, meta)
