"""Convergence evidence and non-Gibbsianness witnesses.

Uniformity over the (measure-one, not finitely describable) admissible
boundary sets is replaced by uniformity over an explicit finite family of
boundary generators; every report records the family size and
construction, and no operation ever certifies Gibbsianness: outputs are
evidence or witnesses only.

Verdict thresholds: uniform evidence needs the last sup-gaps
non-increasing and the final one at or below the tolerance; a divergence
witness needs one generator's gap to stay at or above ten times the
tolerance over the last three stages.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations, permutations
from typing import Callable, Sequence

from .lattice import (
    Alphabet,
    Configuration,
    Filtration,
    GeometryError,
    Volume,
    enumerate_configurations,
    format_site,
    restrict,
)
from .fields import DEFAULT_TOL, RATIONAL, RandomFieldModel, format_scalar
from .conditionals import ConditionalKernel, finite_conditional, limit_along_filtration
from .energy import TransitionEnergy, transition_energy
from .specifications import OnePointSpec, spec_from_onepoint

UNIFORM_EVIDENCE = "uniform-evidence"
DIVERGENCE_WITNESS = "divergence-witness"
QUASILOCAL_EVIDENCE = "quasilocal-evidence"
NONLOCALITY_WITNESS = "nonlocality-witness"
INCONCLUSIVE = "inconclusive"


class BoundaryGenerator:
    """Produces nested boundary configurations, one per filtration stage."""

    label: str = "boundary"

    def __init__(self):
        self._cache: dict = {}

    def configs(self, t: Volume, F: Filtration) -> list:
        key = (t, F)
        got = self._cache.get(key)
        if got is None:
            got = self._cache[key] = self._build(t, F)
            _check_nested(got, self.label)
        return got

    def _build(self, t: Volume, F: Filtration) -> list:
        raise NotImplementedError


def _check_nested(configs: Sequence[Configuration], label: str) -> None:
    for earlier, later in zip(configs, configs[1:]):
        if not earlier.volume.issubset(later.volume):
            raise ValueError(f"generator {label!r} stages do not nest")
        if restrict(later, earlier.volume) != earlier:
            raise ValueError(f"generator {label!r} rewrites an earlier stage")


class SiteFunctionBoundary(BoundaryGenerator):
    """Boundary whose symbol at each site is a pure function of the site."""

    def __init__(self, fn: Callable, label: str):
        super().__init__()
        self.fn = fn
        self.label = label

    def _build(self, t, F):
        out = []
        for stage in F:
            vol = stage - t
            out.append(Configuration(vol, tuple(self.fn(s) for s in vol)))
        return out


def constant_boundary(symbol, name: str | None = None) -> SiteFunctionBoundary:
    return SiteFunctionBoundary(lambda s: symbol, name or f"const[{symbol}]")


def constant_boundaries(alphabet: Alphabet) -> tuple:
    """One constant boundary per symbol, labelled with the symbol's name."""
    return tuple(constant_boundary(s, f"const[{alphabet.name_of(s)}]")
                 for s in alphabet.symbols)


def seeded_random_boundary(alphabet: Alphabet, seed: int) -> SiteFunctionBoundary:
    """Per-site pseudo-random symbols; nested by construction."""

    def fn(site):
        # string seeding is stable across processes (no hash salting)
        return random.Random(f"{seed}:{site}").choice(alphabet.symbols)

    return SiteFunctionBoundary(fn, f"random[seed={seed}]")


def positive_half_boundary(one=1, zero=0) -> SiteFunctionBoundary:
    """1D pattern with ones on positive sites; density 1/2 on symmetric boxes."""
    return SiteFunctionBoundary(lambda s: one if s[0] > 0 else zero, "half-ones")


class DensityScheduleBoundary(BoundaryGenerator):
    """Binary boundary hitting an exact ones-density target at every stage.

    Non-integral targets are rounded; targets unreachable from the
    previous stage (counts never decrease and grow at most by the number
    of newly added sites) are clamped.
    New sites are filled deterministically, ones first in site order, so
    two generators with the same targets produce identical configurations.
    """

    def __init__(self, densities: Callable, label: str, one=1, zero=0):
        super().__init__()
        self.densities = densities
        self.label = label
        self.one = one
        self.zero = zero

    def _build(self, t, F):
        out = []
        assignment: dict = {}
        prev_ones = 0
        prev_sites: set = set()
        for n, stage in enumerate(F):
            vol = stage - t
            exact = Fraction(self.densities(n)) * len(vol)
            target = int(exact) if exact.denominator == 1 else round(exact)
            new_sites = [s for s in vol if s not in prev_sites]
            clamped = min(max(target, prev_ones), prev_ones + len(new_sites))
            delta = clamped - prev_ones
            for i, s in enumerate(new_sites):
                assignment[s] = self.one if i < delta else self.zero
            prev_ones = clamped
            prev_sites.update(new_sites)
            out.append(Configuration(vol, tuple(assignment[s] for s in vol)))
        return out


def oscillating_density_boundary(high=Fraction(3, 4), low=Fraction(1, 4),
                                 start: str = "high", one=1, zero=0) -> DensityScheduleBoundary:
    """Densities alternating between two targets on successive stages."""
    first, second = (high, low) if start == "high" else (low, high)

    def densities(n):
        return first if n % 2 == 0 else second

    return DensityScheduleBoundary(densities, f"oscillating[{first}<->{second}]",
                                   one, zero)


def oscillating_family(alphabet: Alphabet) -> BoundaryFamily:
    """Both oscillating-density boundaries, on the alphabet's first and last symbols."""
    zero, one = alphabet.symbols[0], alphabet.symbols[-1]
    return BoundaryFamily(
        (oscillating_density_boundary(start="high", one=one, zero=zero),
         oscillating_density_boundary(start="low", one=one, zero=zero)),
        "oscillating-density")


def constant_density_boundary(p, one=1, zero=0) -> DensityScheduleBoundary:
    p = Fraction(p)
    return DensityScheduleBoundary(lambda n: p, f"density[{p}]", one, zero)


def density_switch_boundary(base, switched, switch_after: int,
                            one=1, zero=0) -> DensityScheduleBoundary:
    """Follows the base density through stage index switch_after, then jumps."""
    base, switched = Fraction(base), Fraction(switched)

    def densities(n):
        return base if n <= switch_after else switched

    return DensityScheduleBoundary(
        densities, f"switch[{base}->{switched}@{switch_after + 1}]", one, zero)


@dataclass
class BoundaryFamily:
    """Finite surrogate for a set of admissible boundary conditions."""

    generators: tuple
    description: str = ""

    def __post_init__(self):
        labels = [g.label for g in self.generators]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate generator labels: {labels}")

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)


def mixed_family(alphabet: Alphabet, seeds=(1, 2), include_oscillating: bool = False,
                 include_half: bool = False) -> BoundaryFamily:
    gens = [*constant_boundaries(alphabet),
            *(seeded_random_boundary(alphabet, seed) for seed in seeds)]
    if include_half:
        gens.append(positive_half_boundary(alphabet.symbols[-1], alphabet.symbols[0]))
    if include_oscillating:
        gens += oscillating_family(alphabet).generators
    return BoundaryFamily(tuple(gens), "constants + seeded random"
                          + (" + density patterns" if include_oscillating else ""))


def patch_boundary(pattern: Configuration, fill, inside: str,
                   alphabet: Alphabet) -> SiteFunctionBoundary:
    """The pattern on its volume and the constant fill outside it, labelled
    ``patch[<inside>|<fill's name>]``."""
    return SiteFunctionBoundary(lambda s: pattern[s] if s in pattern.volume else fill,
                                f"patch[{inside}|{alphabet.name_of(fill)}]")


def locality_probe_family(alphabet: Alphabet, F: Filtration) -> BoundaryFamily:
    """Constants plus, per stage, boundaries that match a constant on that
    stage and flip outside it, so every reportable stage has agreeing
    generator pairs for the quasilocality moduli."""
    gens = list(constant_boundaries(alphabet))
    a, b = alphabet.symbols[0], alphabet.symbols[1]
    for stage in F.volumes[:-1]:
        for inner, outer in ((a, b), (b, a)):
            gens.append(patch_boundary(Configuration(stage, (inner,) * len(stage)), outer,
                                       f"{alphabet.name_of(inner)}@{len(stage)}", alphabet))
    return BoundaryFamily(tuple(gens), "constants + per-stage patches")


@dataclass
class StageStat:
    n: int
    volume_size: int
    sup_gap: object
    pairs: int | None = None


@dataclass
class ConvergenceReport:
    """Evidence object for the uniform-convergence diagnostics."""

    model: str
    site: str
    filtration: str
    family: str
    family_size: int
    stages: list  # StageStat
    per_generator: dict  # label -> {"gaps": [...], "final": {...}}
    verdict: str
    witness: dict | None
    gap_tol: float
    mode: str
    note: str = ("family is a finite surrogate for the admissible boundary set; "
                 "verdicts are evidence, not certificates")

    def to_json_dict(self) -> dict:
        return {
            "model": self.model,
            "site": self.site,
            "filtration": self.filtration,
            "family": self.family,
            "family_size": self.family_size,
            "stages": [
                {"n": st.n, "volume_size": st.volume_size,
                 "sup_gap": format_scalar(st.sup_gap, self.mode),
                 **({"pairs": st.pairs} if st.pairs is not None else {})}
                for st in self.stages
            ],
            "per_generator": self.per_generator,
            "verdict": self.verdict,
            "witness": self.witness,
            "gap_tol": self.gap_tol,
            "mode": self.mode,
            "note": self.note,
        }

    def to_csv(self) -> str:
        rows = ["stage,volume_size,sup_gap"]
        for st in self.stages:
            rows.append(f"{st.n},{st.volume_size},{format_scalar(st.sup_gap, self.mode)}")
        return "\n".join(rows) + "\n"


def _target(t) -> Volume:
    return t if isinstance(t, Volume) else Volume.of([t])


def _filtration_label(F: Filtration) -> str:
    return "stages[" + ",".join(str(len(v)) for v in F) + "]"


def _kernel_table(k: ConditionalKernel, alphabet: Alphabet) -> dict:
    return {alphabet.label_of(c.symbols): format_scalar(p, k.mode) for c, p in k.items()}


def uniform_convergence_report(m: RandomFieldModel, t, F: Filtration,
                               B: BoundaryFamily,
                               gap_tol: float = DEFAULT_TOL) -> ConvergenceReport:
    """Stage-wise sup-gaps of one-point kernels over a boundary family.

    Stage 0 gaps are measured against the unconditional marginal, so the
    gap sequence has exactly one entry per stage.
    """
    t_vol = _target(t)
    results = []
    for gen in B:
        est = limit_along_filtration(m, t_vol, gen.configs(t_vol, F)[-1], F)
        results.append((gen.label, est.sup_gaps, est.values[-1]))
    zero = Fraction(0) if m.mode == RATIONAL else 0.0
    sup_gaps = []
    for n in range(len(F)):
        sup_gaps.append(max((gaps[n] for _, gaps, _ in results), default=zero))

    witness = None
    verdict = INCONCLUSIVE
    qualifying = []
    for label, gaps, _ in results:
        tail = [float(g) for g in gaps[-3:]]
        # persistent means large *and* not decaying: a strictly decreasing
        # tail is slow convergence, not oscillation
        if (len(tail) == 3 and min(tail) >= 10 * gap_tol
                and not (tail[0] > tail[1] > tail[2])):
            qualifying.append((min(tail), label, gaps))
    if qualifying:
        _, label, gaps = max(qualifying, key=lambda q: (q[0], q[1]))
        witness = {
            "generator": label,
            "gap_trace": [format_scalar(g, m.mode) for g in gaps],
            "stage_sizes": [len(v) for v in F],
        }
        verdict = DIVERGENCE_WITNESS
    if verdict == INCONCLUSIVE:
        tail = sup_gaps[-3:]
        non_increasing = all(float(a) >= float(b) for a, b in zip(tail, tail[1:]))
        if float(sup_gaps[-1]) <= gap_tol and non_increasing:
            verdict = UNIFORM_EVIDENCE

    per_generator = {
        label: {"gaps": [format_scalar(g, m.mode) for g in gaps],
                "final": _kernel_table(final, m.alphabet)}
        for label, gaps, final in results
    }
    stages = [StageStat(n + 1, len(F[n]), sup_gaps[n]) for n in range(len(F))]
    return ConvergenceReport(
        m.describe(), format_site(t_vol.sites[0]), _filtration_label(F),
        B.description or "user-family", len(B), stages, per_generator,
        verdict, witness, gap_tol, m.mode)


def filtration_independence_check(m: RandomFieldModel, t, F1: Filtration,
                                  F2: Filtration, B: BoundaryFamily,
                                  tol: float = DEFAULT_TOL):
    """Compare deepest-stage kernels per generator under two filtrations."""
    t_vol = _target(t)
    results = [(gen.label, k1.sup_distance(k2), k1, k2)
               for gen, (_, k1), (_, k2) in zip(B, _deep_tables(m, t_vol, F1, B),
                                                _deep_tables(m, t_vol, F2, B))]
    agree = all(float(gap) <= tol for _, gap, _, _ in results)
    report = {
        "model": m.describe(),
        "site": format_site(t_vol.sites[0]),
        "filtrations": [_filtration_label(F1), _filtration_label(F2)],
        "family": B.description or "user-family",
        "tol": tol,
        "per_generator": {
            label: {"deviation": format_scalar(gap, m.mode),
                    "first": _kernel_table(k1, m.alphabet),
                    "second": _kernel_table(k2, m.alphabet)}
            for label, gap, k1, k2 in results
        },
        "agree": agree,
    }
    return agree, report


def _deep_tables(subject, t_vol: Volume, F: Filtration, B: BoundaryFamily) -> list:
    """(stage configurations, deepest-stage kernel) per generator, for a
    model or a one-point spec."""
    if isinstance(subject, OnePointSpec):
        if F.window | t_vol != subject.window:
            raise GeometryError("spec evaluation needs the filtration to fill the window")
        kernel = partial(spec_from_onepoint(subject).kernel, t_vol)
    else:
        def kernel(z):
            return finite_conditional(subject, t_vol, z)
    out = []
    for gen in B:
        stage_configs = gen.configs(t_vol, F)
        out.append((stage_configs, kernel(stage_configs[-1])))
    return out


def _locality_verdict(stages: list, tol: float) -> str:
    """Verdict from the stages that have agreeing generator pairs."""
    informative = [st for st in stages if st.pairs]
    if not informative:
        return INCONCLUSIVE
    if float(informative[-1].sup_gap) <= tol:
        return QUASILOCAL_EVIDENCE
    if min(float(st.sup_gap) for st in informative[-3:]) >= 10 * tol:
        return NONLOCALITY_WITNESS
    return INCONCLUSIVE


def stage_moduli(evaluated: list, n_stages: int, distance, mode: str) -> list:
    """(modulus, pairs) for each stage n < n_stages - 1: the largest distance
    between the deep values of generator pairs whose stage-n configurations
    agree, and the number of such pairs. ``evaluated`` holds one (stage
    configurations, deep value) entry per boundary generator. The deepest
    stage is left out: distinct generators cannot agree there."""
    zero = Fraction(0) if mode == RATIONAL else 0.0
    out = []
    for n in range(n_stages - 1):
        worst = zero
        pairs = 0
        for (sc_a, a), (sc_b, b) in combinations(evaluated, 2):
            if sc_a[n] != sc_b[n]:
                continue
            pairs += 1
            gap = distance(a, b)
            if float(gap) > float(worst):
                worst = gap
        out.append((worst, pairs))
    return out


def energy_distance(e_a: TransitionEnergy, e_b: TransitionEnergy) -> float:
    """Largest |Delta - Delta'| over argument pairs, exactly zero when the
    underlying ratios coincide."""
    ratios = ((e_a.ratio(x, u), e_b.ratio(x, u))
              for x, u in permutations(e_a.configurations(), 2))
    return max((abs(math.log(float(ra)) - math.log(float(rb)))
                for ra, rb in ratios if ra != rb), default=0.0)


def _moduli_report(subject, t_vol: Volume, F: Filtration, B: BoundaryFamily,
                   evaluated: list, distance: Callable, render: Callable,
                   tol: float, **extra) -> dict:
    """Stage moduli of one distance over agreeing generator pairs, with the
    locality verdict; each modulus is rendered by ``render``."""
    moduli = stage_moduli(evaluated, len(F), distance, subject.mode)
    stages = [StageStat(n + 1, len(F[n]), worst, pairs)
              for n, (worst, pairs) in enumerate(moduli)]
    return {
        "subject": subject.describe() if hasattr(subject, "describe") else subject.label,
        "site": format_site(t_vol.sites[0]),
        "filtration": _filtration_label(F),
        "family": B.description or "user-family",
        "family_size": len(B),
        "stages": [{"n": st.n, "volume_size": st.volume_size,
                    "modulus": render(st.sup_gap), "pairs": st.pairs}
                   for st in stages],
        "moduli": [st.sup_gap for st in stages],
        "verdict": _locality_verdict(stages, tol),
        "tol": tol,
        **extra,
    }


def quasilocality_report(subject, t, F: Filtration, B: BoundaryFamily,
                         tol: float = DEFAULT_TOL) -> dict:
    """Stage moduli of boundary dependence of the one-point kernel.

    The stage-n modulus is the largest deep-table sup-distance over
    generator pairs whose boundaries agree on stage n. The deepest stage
    is omitted: no two distinct generators can agree there. Stages with
    no agreeing pair are reported with pairs = 0 and do not drive the
    verdict.
    """
    t_vol = _target(t)
    return _moduli_report(
        subject, t_vol, F, B, _deep_tables(subject, t_vol, F, B),
        ConditionalKernel.sup_distance, lambda v: format_scalar(v, subject.mode), tol,
        note="deepest stage omitted: distinct generators cannot agree there")


def energy_criterion_report(m: RandomFieldModel, t, F: Filtration,
                            B: BoundaryFamily, tol: float = DEFAULT_TOL) -> dict:
    """Quasilocality moduli measured on one-point transition energies.

    Distances are |log ratio - log ratio'| maximized over argument pairs,
    exactly zero when the underlying ratios coincide. Includes the
    smallest kernel entry seen, as a nonnullness statistic.
    """
    t_vol = _target(t)
    deep = _deep_tables(m, t_vol, F, B)
    # int over int is correctly rounded: the float of the smallest entry
    min_prob = min((min(nums) / d for nums, d in (k.numerators() for _, k in deep)), default=None)
    evaluated = [(stage_configs, transition_energy(k)) for stage_configs, k in deep]
    return _moduli_report(
        m, t_vol, F, B, evaluated, energy_distance, float, tol,
        min_kernel_entry=float(min_prob) if min_prob is not None else None)


def non_gibbs_witness(m: RandomFieldModel, t, F: Filtration,
                      strategy: str = "oscillating-density",
                      gap_tol: float = 1e-9) -> dict | None:
    """Search for a boundary whose conditional sequence fails to converge.

    Two strategies: "oscillating-density" tries both oscillating-density
    boundaries, and "exhaustive-small" tries the constants plus every
    pattern on the first stage under each constant fill. Returns the
    witnessing generator and its gap trace, or None. A None result is
    never evidence of Gibbsianness; it only means this family found
    nothing.
    """
    if strategy == "oscillating-density":
        fam = oscillating_family(m.alphabet)
    elif strategy == "exhaustive-small":
        first = F[0] - _target(t)
        gens = list(constant_boundaries(m.alphabet))
        for pattern in enumerate_configurations(first, m.alphabet):
            for fill in m.alphabet.symbols:
                gens.append(patch_boundary(pattern, fill, m.alphabet.label_of(pattern.symbols),
                                           m.alphabet))
        fam = BoundaryFamily(tuple(gens), "exhaustive-small")
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    report = uniform_convergence_report(m, t, F, fam, gap_tol)
    if report.verdict == DIVERGENCE_WITNESS:
        witness = dict(report.witness)
        witness["strategy"] = strategy
        witness["note"] = ("witness certifies failure of uniform convergence for "
                           "this family; absence of a witness proves nothing")
        return witness
    return None
