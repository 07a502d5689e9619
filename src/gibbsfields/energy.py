"""Transition energies and Hamiltonians derived from conditional kernels.

A transition energy is the log-ratio of two kernel entries. In rational
mode the exact probability ratio is the stored object and every algebraic
law (antisymmetry, cocycle, decomposition) is verified multiplicatively;
logarithms are taken only for display. Hamiltonians are kept as weight
tables w(x) = exp(-H(x)) with H(gauge) = 0, for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations

from .lattice import Configuration, DomainError, Volume
from .fields import (
    DEFAULT_TOL,
    RATIONAL,
    Comparison,
    RandomFieldModel,
    close,
    format_scalar,
    normalized,
)
from .conditionals import (
    ConditionalKernel,
    KernelCache,
    PositivityError,
)
from .specifications import (
    cocycle_sides,
    onepoint_spec_from_model,
    spec_from_model,
    tef_from_1spec,
    validate_spec,
    validate_tef,
)


class InconsistentEnergyError(ValueError):
    """An energy table violates the cocycle law."""


@dataclass
class TransitionEnergy:
    """Pairwise log-ratios Delta(x, u) = ln g(x) - ln g(u) on one volume.

    Backed either by the originating kernel (ratios are recomputed on
    demand, cocycle holds by construction) or by an explicit ratio table
    (used for negative controls and deserialization).
    """

    volume: Volume
    condition: Configuration
    mode: str = RATIONAL
    tol: float = DEFAULT_TOL
    _probs: dict | None = None
    _ratios: dict | None = None

    @staticmethod
    def from_ratios(volume, condition, ratios: dict, mode=RATIONAL, tol=DEFAULT_TOL):
        return TransitionEnergy(volume, condition, mode, tol, None, dict(ratios))

    @property
    def kernel_backed(self) -> bool:
        return self._probs is not None

    def configurations(self):
        if self._probs is not None:
            return list(self._probs)
        return sorted({x for x, _ in self._ratios}, key=lambda c: c.symbols)

    def ratio(self, x: Configuration, u: Configuration):
        """exp(Delta(x,u)) as an exact ratio (rational mode) or float."""
        if self._probs is not None:
            return self._probs[x] / self._probs[u]
        return self._ratios[(x, u)]

    def value(self, x: Configuration, u: Configuration) -> float:
        return math.log(self.ratio(x, u))


def transition_energy(k: ConditionalKernel) -> TransitionEnergy:
    """Energy table of a strictly positive kernel."""
    if not k.is_positive():
        raise PositivityError("kernel has a vanishing entry; energies undefined")
    return TransitionEnergy(k.target, k.condition, k.mode, k.tol, dict(k.probs), None)


def check_antisymmetry(e: TransitionEnergy) -> bool:
    """ratio(x,u) * ratio(u,x) == 1 and ratio(x,x) == 1 for all pairs."""
    configs = e.configurations()
    one = Fraction(1) if e.mode == RATIONAL else 1.0
    for x in configs:
        if not close(e.ratio(x, x), one, e.tol):
            return False
    for x, u in combinations(configs, 2):
        if not close(e.ratio(x, u) * e.ratio(u, x), one, e.tol):
            return False
    return True


def check_cocycle(e: TransitionEnergy) -> bool:
    """ratio(x,u) == ratio(x,y) * ratio(y,u) over all triples."""
    configs = e.configurations()
    ratios = {(x, u): e.ratio(x, u) for x in configs for u in configs}
    holds = Comparison(e.tol)
    return all(holds(lhs, rhs) for lhs, rhs in cocycle_sides(ratios, configs))


def check_decomposition(m: RandomFieldModel, V: Volume, I: Volume,
                        z: Configuration, kernels: KernelCache | None = None) -> bool:
    """Energy additivity across a split of the target:

        Delta_{V u I}^z(xy, uv) == Delta_V^{zy}(x, u) + Delta_I^{zu}(y, v)

    for all x, u on V and y, v on I. Setting v = y, and then u = x, gives
    the subset-consistency identities of V and of I inside V u I; these in
    turn give the law, since P(xyz)/P(uvz) factors through P(uyz). Checked
    by validate_spec on both splits.
    """
    if not V.isdisjoint(I) or not V or not I:
        raise DomainError("need disjoint nonempty volumes")
    fixtures = [(V | I, V, z), (V | I, I, z)]
    return validate_spec(spec_from_model(m, kernels), fixtures, m.tol).ok


def check_one_point_exchange(m: RandomFieldModel, t, s, z: Configuration,
                             kernels: KernelCache | None = None) -> bool:
    """Exchange law for one-point energies of two sites:

        Delta_t^{zy}(x,u) + Delta_s^{zu}(y,v) == Delta_s^{zx}(y,v) + Delta_t^{zv}(x,u).

    Checked by validate_tef on the energy field of the model's one-point
    kernels.
    """
    tef = tef_from_1spec(onepoint_spec_from_model(m, kernels))
    return validate_tef(tef, [(t, s, z)], m.tol).ok


def gibbs_form_from_energy(e: TransitionEnergy, reference: Configuration) -> ConditionalKernel:
    """Kernel with probabilities proportional to exp(Delta(., reference)).

    For a kernel-backed energy this inverts transition_energy exactly.
    Explicit ratio tables are cocycle-checked first.
    """
    if not e.kernel_backed and not (check_antisymmetry(e) and check_cocycle(e)):
        raise InconsistentEnergyError("ratio table violates the cocycle law")
    configs = e.configurations()
    if reference not in configs:
        raise DomainError("reference must be a configuration on the energy's volume")
    probs = normalized({x: e.ratio(x, reference) for x in configs}, e.mode)
    return ConditionalKernel(e.volume, e.condition, probs, e.mode, e.tol)


@dataclass
class HamiltonianTable:
    """H(x) = -ln w(x) with w(gauge) = 1; differences reproduce energies.

    Weights may be zero, rendering H = +inf for degenerate displays, but
    such tables are rejected by the Gibbs-form operation.
    """

    volume: Volume
    condition: Configuration
    gauge: Configuration
    weights: dict  # Configuration -> scalar, exp(-H)
    mode: str = RATIONAL
    tol: float = DEFAULT_TOL

    def value(self, x: Configuration) -> float:
        w = self.weights[x]
        return math.inf if w == 0 else -math.log(w)

    def values(self) -> dict:
        return {x: self.value(x) for x in self.weights}

    def gibbs_kernel(self) -> ConditionalKernel:
        if any(w <= 0 for w in self.weights.values()):
            raise PositivityError("infinite Hamiltonian values admit no Gibbs form")
        return ConditionalKernel(self.volume, self.condition,
                                 normalized(self.weights, self.mode), self.mode, self.tol)


def hamiltonian_from_energy(e: TransitionEnergy, gauge: Configuration) -> HamiltonianTable:
    """Hamiltonian with the zero of energy pinned at the gauge configuration."""
    weights = {x: e.ratio(x, gauge) for x in e.configurations()}
    return HamiltonianTable(e.volume, e.condition, gauge, weights, e.mode, e.tol)


def check_hamiltonian_consistency(m: RandomFieldModel, V: Volume, I: Volume,
                                  z: Configuration, kernels: KernelCache | None = None) -> bool:
    """Gauge-free consistency of Hamiltonians across a split:

        H_{V u I}^z(xy) + H_V^{zy}(u) == H_{V u I}^z(uy) + H_V^{zy}(x)

    Any gauges cancel, which leaves the subset-consistency identity of V
    inside V u I; checked by validate_spec on that split.
    """
    if not V.isdisjoint(I) or not V or not I:
        raise DomainError("need disjoint nonempty volumes")
    return validate_spec(spec_from_model(m, kernels), [(V | I, V, z)], m.tol).ok


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


def energy_quasilocality_modulus(m: RandomFieldModel, t, F, boundaries,
                                 kernels: KernelCache | None = None) -> list:
    """Stage moduli of the one-point energy over a family of boundaries.

    Each boundary generator is evaluated at the deepest filtration stage;
    the stage-n modulus is the largest |Delta - Delta'| over generator
    pairs whose restrictions agree on the n-th stage, maximized over
    argument pairs. Stages reported: 1 .. len(F)-1 (at the deepest stage
    every agreeing pair is identical, so that modulus is vacuous).
    """
    t_vol = t if isinstance(t, Volume) else Volume.of([t])
    kernels = kernels or KernelCache(m)
    evaluated = []
    for gen in boundaries:
        stage_configs = gen.configs(t_vol, F)
        evaluated.append((stage_configs, transition_energy(kernels(t_vol, stage_configs[-1]))))
    return [worst for worst, _ in stage_moduli(evaluated, len(F), energy_distance, m.mode)]


def energy_table_text(e: TransitionEnergy, alphabet) -> str:
    """Text table of energies: `x|u<TAB>value` (ratios in rational mode)."""
    lines = ["volume\t" + ";".join("(" + ",".join(map(str, s)) + ")" for s in e.volume),
             "mode\t" + e.mode]
    configs = e.configurations()
    for x in configs:
        for u in configs:
            key = (",".join(alphabet.name_of(s) for s in x.symbols)
                   + "|" + ",".join(alphabet.name_of(s) for s in u.symbols))
            if e.mode == RATIONAL:
                lines.append(f"{key}\t{format_scalar(e.ratio(x, u), e.mode)}")
            else:
                lines.append(f"{key}\t{format(e.value(x, u), '.17g')}")
    return "\n".join(lines) + "\n"
