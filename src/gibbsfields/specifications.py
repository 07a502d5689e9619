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
from functools import cached_property, lru_cache
from itertools import combinations, product
from typing import Callable, Sequence

from .lattice import (
    EMPTY_CONFIGURATION,
    Alphabet,
    Configuration,
    Filtration,
    GeometryError,
    Volume,
    _concat_map,
    as_site,
    concat,
    enumerate_configurations,
    format_site,
    restrict,
    split_positions,
)
from .fields import (
    DEFAULT_TOL,
    FLOAT,
    RATIONAL,
    Comparison,
    ConditionalKernel,
    FiniteDistribution,
    RandomFieldModel,
    TableField,
    ValidationError,
    _over_sum,
    _quotient,
    close,
    integer_numerators,
    normalized,
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
            shifted = _anchored(template)
            normalized[(shifted, Configuration(shifted, cfg.symbols))] = float(value)
        return Potential(tuple(sorted(normalized.items(), key=lambda kv: (kv[0][0].sites, kv[0][1].symbols))))

    def templates(self) -> list:
        """The term templates in first-seen order."""
        return list(self._term_tables)

    @cached_property
    def _term_tables(self) -> dict:
        """Term values per template, keyed by the configuration's symbols."""
        tables: dict = {}
        for (template, cfg), value in self.terms:
            tables.setdefault(template, {})[cfg.symbols] = value
        return tables

    def _terms_at(self, A: Volume) -> dict:
        """Term table of the template of which A is a translate."""
        return self._term_tables.get(_anchored(A), {})

    def value(self, A: Volume, cfg: Configuration) -> float:
        return self._terms_at(A).get(cfg.symbols, 0.0)

    def reach(self) -> int:
        """Largest L-infinity distance between two sites of one template."""
        return max((max(abs(x - y) for x, y in zip(a, b))
                    for template in self.templates() for a in template for b in template),
                   default=0)


def _anchored(A: Volume) -> Volume:
    """The translate of A whose first site is the origin."""
    anchor = A.sites[0]
    return Volume(tuple(tuple(a - b for a, b in zip(s, anchor)) for s in A))


def ising_potential(beta: float, h: float = 0.0, d: int = 1) -> Potential:
    """Nearest-neighbor pair coupling -beta*x*y plus field term -h*x."""
    terms = {}
    origin = (0,) * d
    for axis in range(d):
        step = tuple(1 if i == axis else 0 for i in range(d))
        pair = Volume.of([origin, step])
        for a, b in product((-1, 1), repeat=2):
            terms[(pair, Configuration(pair, (a, b)))] = -beta * a * b
    if h != 0.0:
        single = Volume.of([origin])
        for a in (-1, 1):
            terms[(single, Configuration(single, (a,)))] = -h * a
    return Potential.of(terms)


def zero_potential() -> Potential:
    return Potential(())


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
                translate = Volume(tuple(sorted(tuple(a + b for a, b in zip(site, s))
                                                for site in template)))
                if translate.issubset(container):
                    out.append(translate)
    return out


def _interaction_neighbourhood(phi: Potential, site, window: Volume) -> Volume:
    """Sites other than site that share a template translate in the window with it."""
    t_vol = Volume((site,))
    return Volume.of(s for A in _translates(phi, t_vol, window) for s in A) - t_vol


def _energies(phi: Potential, translates: list, V: Volume, boundary: Configuration,
              alphabet: Alphabet) -> list:
    """Energies of the configurations on V in code order (first site most
    significant), the one routine behind every potential energy; sites of a
    translate outside V read the boundary. Each translate, in the order
    given, adds its column: its term read once per code of its span lo..hi of
    V-positions, each value repeated r^(n-1-hi) times, the block tiled r^lo
    times. So each energy is ((0.0 + t_1) + t_2) + ..., bit for bit. With V
    empty there is one energy, the boundary's: each translate adds one value.
    The first translate that reaches past the boundary raises GeometryError.
    """
    where = {s: i for i, s in enumerate(V.sites)}
    collar: list = []  # the boundary's symbols on the translates' sites outside V
    n, r = len(V), alphabet.size
    energies = [0.0] * r ** n
    for A in translates:
        missing = (A - V) - boundary.volume
        if missing:
            raise GeometryError(f"boundary misses interacting sites {missing}")
        for s in A.sites:
            if s not in where:
                where[s] = len(where)
                collar.append(boundary[s])
        take = [where[s] for s in A.sites]
        lo, hi = min(*take, n), max([i for i in take if i < n], default=n - 1)
        terms = phi._terms_at(A)
        values = [terms.get(tuple(span[i - lo] if i < n else collar[i - n] for i in take), 0.0)
                  for span in product(alphabet.symbols, repeat=hi - lo + 1)]
        column = [v for v in values for _ in range(r ** (n - 1 - hi))] * r ** lo
        energies = [e + v for e, v in zip(energies, column)]
    return energies


def hamiltonian_from_potential(phi: Potential, t, boundary: Configuration,
                               window: Volume, alphabet: Alphabet) -> dict:
    """One-point Hamiltonian H_t(x) = sum of all terms touching t, as a
    symbol -> float table: ``_energies`` on the one-site volume over the
    translates in discovery order. The boundary must cover every
    interacting site inside the window."""
    t_vol = Volume.of([t])
    translates = _translates(phi, t_vol, window)
    return dict(zip(alphabet.symbols, _energies(phi, translates, t_vol, boundary, alphabet)))


@dataclass
class OnePointTEF:
    """One-point transition energy field given as ratio tables.

    table(t, boundary) is the dict {(x, u): ratio} over all symbol pairs,
    the ratio being exp of the energy difference between symbols x and u
    at site t under the boundary configuration. A field given only a
    ratio_fn builds each table from it.
    """

    window: Volume
    alphabet: Alphabet
    ratio_fn: Callable
    mode: str = FLOAT
    tol: float = DEFAULT_TOL
    label: str = "tef"
    table_fn: Callable | None = None  # (site, boundary Configuration) -> {(x, u): scalar}

    def table(self, t, boundary: Configuration) -> dict:
        if self.table_fn is not None:
            return self.table_fn(t, boundary)
        syms = self.alphabet.symbols
        return {(x, u): self.ratio_fn(t, boundary, x, u) for x in syms for u in syms}


def _tef_of_tables(table: Callable, window: Volume, alphabet: Alphabet, mode: str,
                   label: str) -> OnePointTEF:
    """The field read from whole tables; its ratio_fn reads one entry."""
    return OnePointTEF(window, alphabet, lambda t, b, x, u: table(t, b)[(x, u)], mode,
                       DEFAULT_TOL, label, table)


def tef_from_potential(phi: Potential, window: Volume, alphabet: Alphabet) -> OnePointTEF:
    """Energy field delta_t(x,u) = H_t(u) - H_t(x) from a finite-range potential.

    H_t reads the boundary only on the interaction neighbourhood of t, so
    every read is looked up by the boundary's restriction to that
    neighbourhood, whose sites in the boundary's volume are kept per (site,
    boundary volume); the ratio table is built once per (site, local
    boundary). The field's readers keep their own per-(site, boundary)
    memos. Returned tables are cache-owned and must not be mutated.
    """
    syms = alphabet.symbols
    cache: dict = {}  # (site, local boundary) -> ratio table
    kept: dict = {}  # (site, boundary volume) -> the neighbourhood's sites in it

    def table(t, boundary):
        site = t if isinstance(t, tuple) else (t,)
        local_volume = kept.get((site, boundary.volume))
        if local_volume is None:
            near = _interaction_neighbourhood(phi, site, window)
            local_volume = kept[(site, boundary.volume)] = near & boundary.volume
        local = restrict(boundary, local_volume)
        r = cache.get((site, local))
        if r is None:
            h = hamiltonian_from_potential(phi, site, local, window, alphabet)
            r = cache[(site, local)] = {(x, u): math.exp(h[u] - h[x]) for x in syms for u in syms}
        return r

    return _tef_of_tables(table, window, alphabet, FLOAT, "tef-from-potential")


def tef_from_1spec(q: "OnePointSpec") -> OnePointTEF:
    """Energy field of a one-point family: ratio(x, u) = q(x) / q(u) = n(x) / n(u)
    over the numerators of one read of the one-point table."""
    syms = q.alphabet.symbols

    def table(t, boundary):
        p = q.table(t, boundary)
        n = dict(zip(p, integer_numerators(p.values(), q.mode)[0]))
        try:
            return {(x, u): _quotient(n[x], n[u], q.mode) for x in syms for u in syms}
        except ZeroDivisionError:
            raise PositivityError(f"one-point kernel vanishes under {boundary}") from None

    return _tef_of_tables(table, q.window, q.alphabet, q.mode, "tef-from-1spec")


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
    label: str = "1spec"

    def table(self, t, boundary: Configuration) -> dict:
        return self.table_fn(t, boundary)


@dataclass
class Specification:
    """Family of kernels on arbitrary finite volumes under full boundaries."""

    window: Volume
    alphabet: Alphabet
    kernel_fn: Callable  # (Volume, boundary Configuration) -> {Configuration: scalar}
    mode: str = RATIONAL
    label: str = "spec"

    def kernel(self, V: Volume, boundary: Configuration) -> ConditionalKernel:
        """The kernel on V; a plain mapping is read as one, a kernel of the other mode refused."""
        k = self.kernel_fn(V, boundary)
        if isinstance(k, ConditionalKernel) and k.mode != self.mode:
            integer_numerators(k._values(), self.mode)  # names a float entry, if it has one
            raise ValidationError(f"a {k.mode} kernel on {V} in a {self.mode} specification")
        return k if isinstance(k, ConditionalKernel) else ConditionalKernel(V, boundary, k, self.mode)


def onepoint_spec_from_model(m: RandomFieldModel,
                             kernels: KernelCache | None = None) -> OnePointSpec:
    """One-point conditionals of a model, read through a kernel cache."""
    kernels = kernels or KernelCache(m)

    def table(t, boundary):  # a one-site kernel's keys are the symbols in alphabet order
        return dict(zip(m.alphabet.symbols, kernels(Volume((as_site(t),)), boundary)._values()))

    return OnePointSpec(m.window, m.alphabet, table, m.mode, f"1spec({m.describe()})")


def spec_from_model(m: RandomFieldModel, kernels: KernelCache | None = None) -> Specification:
    """Finite conditionals of a model, read through a kernel cache. The
    returned kernels are the cache's own and must not be mutated."""
    return Specification(m.window, m.alphabet, kernels or KernelCache(m), m.mode,
                         f"spec({m.describe()})")


def onepoint_spec_from_tef(d: OnePointTEF) -> OnePointSpec:
    """Gibbs form of an energy field: q(x) proportional to ratio(x, reference).

    Each table is read once per exact (site, boundary) key, an int site
    sharing the key of its one-coordinate tuple, and kept for the life of
    the 1-spec. No locality is assumed: boundaries that differ anywhere are
    different keys. A table object the field hands out is normalized once,
    however many keys it comes back under, and kept with its Gibbs form, so
    its id is not reused while the 1-spec lives: a field that hands out one
    table object per local boundary gets one Gibbs form per local boundary.
    Returned tables are cache-owned and must not be mutated; a call that
    raises caches nothing.
    """
    ref = d.alphabet.symbols[0]
    cache: dict = {}
    forms: dict = {}  # id of a field table -> (that table, its Gibbs form)

    def table(t, boundary):
        site = t if isinstance(t, tuple) else (t,)
        key = (site, boundary)
        q = cache.get(key)
        if q is None:
            r = d.table(site, boundary)
            seen, q = forms.get(id(r), (None, None))
            if seen is not r:
                q = normalized({a: r[(a, ref)] for a in d.alphabet.symbols}, d.mode)
                forms[id(r)] = r, q
            cache[key] = q
        return q

    return OnePointSpec(d.window, d.alphabet, table, d.mode, f"1spec({d.label})")


def spec_from_onepoint(q: OnePointSpec) -> Specification:
    """Extend a one-point family to all finite volumes by reconstruction.

    Each kernel is built once per exact (V, boundary) key and kept, a
    ConditionalKernel with its numerators, for the life of the spec: a
    multi-site one by reconstruction, a single-site one from the 1-spec
    table's numerators, keyed by the shared enumerated configurations.
    Returned kernels are cache-owned and must not be mutated; a call that
    raises caches nothing.
    """
    cache: dict = {}

    def kernel(V, boundary):
        key = (V, boundary)
        k = cache.get(key)
        if k is None:
            if len(V) == 1:
                table = q.table(V.sites[0], boundary)
                configs = enumerate_configurations(V, q.alphabet)
                try:
                    nums, d = integer_numerators([table[c.symbols[0]] for c in configs], q.mode)
                except KeyError as missing:
                    raise ValidationError(f"missing probability for {missing} at {V} under "
                                          f"{boundary}") from None
                k = ConditionalKernel._of_numerators(V, boundary, configs, tuple(nums), d, q.mode)
            else:
                k = reconstruct_from_one_point(q.table_fn, V, boundary, q.alphabet, mode=q.mode)
            cache[key] = k
        return k

    return Specification(q.window, q.alphabet, kernel, q.mode, f"spec({q.label})")


# ---------------------------------------------------------------------------
# finite-volume Gibbs distributions

def finite_volume_gibbs(phi: Potential, V: Volume, boundary: Configuration,
                        window: Volume, alphabet: Alphabet) -> FiniteDistribution:
    """Distribution proportional to exp(-H) on V with fixed outside values.

    H sums every translate of a potential template that fits in the window
    and touches V, in site order (``_energies``); sites of a translate
    outside V read from the boundary. V is enumerated first, so a
    CapacityError comes before the r^n energies are allocated.
    """
    configs = enumerate_configurations(V, alphabet)
    translates = sorted(_translates(phi, V, window), key=lambda a: a.sites)
    energies = _energies(phi, translates, V, boundary, alphabet)
    probs = _over_sum([math.exp(-e) for e in energies], FLOAT)[0]
    return FiniteDistribution(V, alphabet, dict(zip(configs, probs)), FLOAT)


class GibbsVolumeField(TableField):
    """Random field realized by one finite-volume Gibbs distribution."""

    def __init__(self, phi: Potential, window: Volume, alphabet: Alphabet):
        self.potential = phi
        super().__init__(finite_volume_gibbs(phi, window, EMPTY_CONFIGURATION, window, alphabet))

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
    label: str = "mu"

    def value(self, c: Configuration):
        v = self.value_fn(c)
        if v <= 0:
            raise ValueError(f"measure must be strictly positive, got {v} at {c}")
        return v

    def table(self, V: Volume) -> dict:
        return {c: self.value(c) for c in enumerate_configurations(V, self.alphabet)}


def measure_system_from_model(m: RandomFieldModel) -> MeasureSystem:
    return MeasureSystem(m.window, m.alphabet, m.prob, m.mode, f"mu({m.describe()})")


def measure_system_from_potential(phi: Potential, window: Volume,
                                  alphabet: Alphabet) -> MeasureSystem:
    """Free-boundary Gibbs weights exp(-H) as an un-normalized measure system.

    H(c) is the one energy ``_energies`` gives with V empty and c as the
    boundary, over the translates inside c's volume in discovery order,
    kept per volume; no volume is enumerated."""
    translates = lru_cache(None)(lambda vol: _translates(phi, vol, vol))

    def value(c: Configuration) -> float:
        return math.exp(-_energies(phi, translates(c.volume), Volume.empty(), c, alphabet)[0])

    return MeasureSystem(window, alphabet, value, FLOAT, "mu(gibbs-weights)")


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
        return lambda t, boundary, x, u: final[(x, u)]


def tef_from_measure_system(mu: MeasureSystem, t, F: Filtration, boundary,
                            tol: float = DEFAULT_TOL) -> StagedTEFReport:
    """Stage-wise energy ratios mu(x z_n) / mu(u z_n) and their stability.

    The boundary is a full configuration on (at least) the deepest stage
    minus t, or a boundary generator with a ``configs`` method; each stage
    uses its restriction. Stabilized means the last two stages agree.
    """
    site = t if isinstance(t, tuple) else (t,)
    t_vol = Volume.of([site])
    if hasattr(boundary, "configs"):
        stage_configs = boundary.configs(t_vol, F)
    else:
        stage_configs = [restrict(boundary, (stage - t_vol) & boundary.volume)
                         for stage in F]
    syms = mu.alphabet.symbols
    pairs = [(x, u) for x in syms for u in syms if x != u]
    stage_ratios = []
    for z in stage_configs:
        value = {a: mu.value(concat(Configuration(t_vol, (a,)), z)) for a in syms}
        stage_ratios.append({(x, u): value[x] / value[u] for x, u in pairs})
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


def _fixtures(groups: list, alphabet: Alphabet, width: int, max_tuples: int,
              seed: int) -> tuple:
    """(a, b, boundary) fixtures of groups (a, b, rest, tuples per boundary):
    every boundary on rest when the tuple space fits the budget, else the
    same number of seeded sampled boundaries per group, that number being
    the budget over len(groups) * |X|^(2 * width)."""
    k = alphabet.size
    space = sum(k ** len(rest) * inner for _, _, rest, inner in groups)
    if space <= max_tuples:
        fixtures = [(a, b, z) for a, b, rest, _ in groups
                    for z in enumerate_configurations(rest, alphabet)]
        return fixtures, FixtureMeta(space, space, False)
    rng = random.Random(seed)
    per_group = max(1, max_tuples // max(1, len(groups) * k ** (2 * width)))
    fixtures = [(a, b, Configuration(rest, tuple(rng.choice(alphabet.symbols) for _ in rest)))
                for a, b, rest, _ in groups for _ in range(per_group)]
    checked = per_group * sum(inner for _, _, _, inner in groups)
    return fixtures, FixtureMeta(space, checked, True, seed)


def pair_site_fixtures(window: Volume, alphabet: Alphabet,
                       max_tuples: int = EXHAUSTIVE_TUPLE_BUDGET,
                       seed: int = 0) -> tuple:
    """(t, s, boundary) fixtures over all site pairs and full boundaries.

    Exhaustive when (pairs * boundaries * |X|^4) fits the budget, else a
    seeded sample of boundaries per pair.
    """
    groups = [(t, s, window - Volume.of([t, s]), alphabet.size ** 4)
              for t, s in combinations(window.sites, 2)]
    return _fixtures(groups, alphabet, 2, max_tuples, seed)


def volume_split_fixtures(window: Volume, alphabet: Alphabet, max_volume: int = 3,
                          max_tuples: int = EXHAUSTIVE_TUPLE_BUDGET,
                          seed: int = 0) -> tuple:
    """(V, I, boundary) fixtures for the multi-point consistency axiom; the
    boundaries of all splits of one V share one volume, window - V."""
    k = alphabet.size
    groups = []
    for v_size in range(2, max_volume + 1):
        for v_sites in combinations(window.sites, v_size):
            V = Volume.of(v_sites)
            rest = window - V
            for i_size in range(1, v_size):
                for i_sites in combinations(v_sites, i_size):
                    groups.append((V, Volume.of(i_sites), rest, k ** (v_size + i_size)))
    return _fixtures(groups, alphabet, max_volume, max_tuples, seed)


def _two_site_report(axiom: str, read: Callable, fixtures: Sequence, syms: tuple, mode: str,
                     tol: float, identities: int, meta, verdict: Callable) -> ValidationReport:
    """Report of a two-site validator on the tables at t under each symbol
    at s and at s under each symbol at t, on each fixture's boundary z.

    Each exact (site, boundary) is read once per call, its boundary being
    z's symbols with one inserted at the position ``_concat_map`` gives.
    Each distinct repr of a table's items gets a code. ``verdict(n_t, n_s,
    d, holds)`` runs once per tuple of codes, on the tables as numerators
    over one denominator (``integer_numerators``) keyed by the other
    site's symbol, and yields failing records with 0, 1 and 2 for t, s and
    z. Each fixture replays them with its own t, s and z, and folds their
    worst residual into max_residual.
    """
    seen: dict = {}  # (site, boundary volume, symbols) -> (table, code)
    codes: dict = {}  # repr of a table's items -> its code
    memo: dict = {}  # code tuple -> (records, worst residual)

    def side(t, s, z):
        union, take = _concat_map(z.volume, Volume((as_site(s),)))
        i = take.index(len(z))
        head, tail = z.symbols[:i], z.symbols[i:]
        for b in syms:
            symbols = head + (b,) + tail
            entry = seen.get((t, union, symbols))
            if entry is None:
                table = read(t, Configuration(union, symbols))
                code = codes.setdefault(repr(tuple(table.items())), len(codes))
                entry = seen[(t, union, symbols)] = (table, code)
            yield entry

    violations = []
    worst = 0.0
    for t, s, z in fixtures:
        tables, key = zip(*side(t, s, z), *side(s, t, z))
        decided = memo.get(key)
        if decided is None:
            ints, d = integer_numerators((p for table in tables for p in table.values()), mode)
            if d != 1:
                ints = iter(ints)
                tables = [{k: next(ints) for k in table} for table in tables]
            holds, n = Comparison(tol), len(syms)
            try:
                records = list(verdict(dict(zip(syms, tables[:n])), dict(zip(syms, tables[n:])),
                                       d, holds))
            except KeyError as missing:  # name a table read in this call without the key
                at, union, symbols = next(k for k, v in seen.items() if missing.args[0] not in v[0])
                raise ValidationError(f"missing entry for {missing} at {format_site(at)} under "
                                      f"{Configuration(union, symbols)}") from None
            decided = memo[key] = (records, holds.worst)
        records, residual = decided
        worst = max(worst, residual)
        if records:
            names = (format_site(t), format_site(s), str(z))
            violations += [{k: names[v] if k in ("t", "s", "site", "z") else v
                            for k, v in r.items()} for r in records]
    return ValidationReport(axiom, len(fixtures) * identities, violations, worst, meta)


def _exchange_violation(symbols: tuple, lhs, rhs) -> dict:
    return {"kind": "exchange", "t": 0, "s": 1, "z": 2,
            "symbols": [str(a) for a in symbols], "lhs": float(lhs), "rhs": float(rhs)}


def validate_1spec(q: OnePointSpec, fixtures: Sequence, tol: float = DEFAULT_TOL,
                   meta: FixtureMeta | None = None) -> ValidationReport:
    """Check normalization, positivity and the two-site exchange identity.

    The tables of both sites are read as numerators over one denominator
    d, so a table sums to d and each side of an exchange identity is a
    product of four numerators over d^4. The 1-spec is taken as a
    function of (site, boundary): a call reads each (site, boundary) once
    and decides each entry-for-entry identical tuple of tables once.
    """
    syms = q.alphabet.symbols

    def verdict(n_t, n_s, d, holds):
        for tables, site in ((n_t, 0), (n_s, 1)):
            for table in tables.values():
                total = math.fsum(table.values()) if q.mode == FLOAT else sum(table.values())
                if total != d and not close(total, d, tol):
                    yield {"kind": "normalization", "site": site, "z": 2,
                           "sum": float(total / d)}
                if any(n <= 0 for n in table.values()):
                    yield {"kind": "positivity", "site": site, "z": 2}
        scale = d ** 4
        for x, u, y, v in product(syms, repeat=4):
            lhs = n_t[y][x] * n_s[x][v] * n_t[v][u] * n_s[u][y]
            rhs = n_t[y][u] * n_s[u][v] * n_t[v][x] * n_s[x][y]
            if not holds(lhs, rhs, scale):
                yield _exchange_violation((x, u, y, v), lhs / scale, rhs / scale)

    return _two_site_report("one-point-exchange", q.table, fixtures, syms, q.mode, tol,
                            len(syms) ** 4, meta, verdict)


def validate_spec(Q: Specification, fixtures: Sequence, tol: float = DEFAULT_TOL,
                  meta: FixtureMeta | None = None) -> ValidationReport:
    """Check the subset-consistency identity of a specification.

    The kernel on V is read once per fixture in enumeration order, and the
    joined configurations xy are positions from the split's cached map
    (``lattice.split_positions``). Each kernel is read as numerators over
    its own denominator, so each side of an identity, one entry of the
    kernel on V times one of the kernel on I, is over d_V * d_I. A kernel
    keeps its numerators; a plain mapping is converted on each read.
    """
    violations = []
    holds = Comparison(tol)
    checked = 0
    for V, I, z in fixtures:
        configs, xs, ys, rows = split_positions(V, I, Q.alphabet)
        n_V, d_V = Q.kernel(V, z).numerators(configs)
        pairs = list(combinations(range(len(xs)), 2))
        for y, row in zip(ys, rows):
            n_I, d_I = Q.kernel(I, concat(z, y)).numerators(xs)
            scale = d_V * d_I
            checked += len(pairs)
            for i, j in pairs:
                lhs = n_V[row[i]] * n_I[j]
                rhs = n_V[row[j]] * n_I[i]
                if not holds(lhs, rhs, scale):
                    violations.append({
                        "kind": "consistency",
                        "V": str(V), "I": str(I), "z": str(z),
                        "lhs": float(lhs / scale), "rhs": float(rhs / scale),
                    })
    return ValidationReport("specification-consistency", checked, violations,
                            holds.worst, meta)


def cocycle_failures(ratios: dict, keys: Sequence, holds: Comparison, d: int):
    """(r(x, u), r(x, y) * r(y, u)) over the triples x, y, u of keys whose
    cocycle identity ``holds`` rejects, with r(x, u) = ratios[(x, u)] / d:
    ratios holds numerators over d (``integer_numerators``), and the
    identity compares n(x, u) * d with n(x, y) * n(y, u) over d^2."""
    scale = d * d
    for x in keys:
        for y in keys:
            n_xy = ratios[(x, y)]
            for u in keys:
                lhs, rhs = ratios[(x, u)] * d, n_xy * ratios[(y, u)]
                if not holds(lhs, rhs, scale):
                    yield float(lhs / scale), float(rhs / scale)


def validate_tef(d: OnePointTEF, fixtures: Sequence, tol: float | None = None,
                 meta: FixtureMeta | None = None) -> ValidationReport:
    """Check per-site cocycle and the two-site exchange law of an energy field.

    The ratio tables of both sites are read as numerators over one
    denominator, so each side of an exchange identity, one entry of an r_t
    table times one of an r_s table, is over its square. The field is
    taken as a function of (site, boundary): a call reads each (site,
    boundary) once and decides each entry-for-entry identical tuple of
    tables once.
    """
    tol = d.tol if tol is None else tol
    syms = d.alphabet.symbols

    def verdict(r_t, r_s, common, holds):
        for site, tables in ((0, r_t), (1, r_s)):
            for table in tables.values():
                for lhs, rhs in cocycle_failures(table, syms, holds, common):
                    yield {"kind": "cocycle", "t": site, "z": 2, "lhs": lhs, "rhs": rhs}
        scale = common * common
        for x, u, y, v in product(syms, repeat=4):
            lhs = r_t[y][(x, u)] * r_s[u][(y, v)]
            rhs = r_s[x][(y, v)] * r_t[v][(x, u)]
            if not holds(lhs, rhs, scale):
                yield _exchange_violation((x, u, y, v), lhs / scale, rhs / scale)

    return _two_site_report("energy-field-axioms", d.table, fixtures, syms, d.mode, tol,
                            len(syms) ** 4 * 3, meta, verdict)
