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
from itertools import combinations

from .lattice import Configuration, DomainError, Volume, _IndexedTuple
from .fields import (
    RATIONAL,
    Comparison,
    RandomFieldModel,
    _over_sum,
    _quotient,
    close,
    format_scalar,
    integer_numerators,
)
from .conditionals import (
    ConditionalKernel,
    KernelCache,
    PositivityError,
)
from .specifications import (
    cocycle_failures,
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

    Backed either by the originating kernel, whose numerators it reads
    (ratios n(x) / n(u) on demand, cocycle holds by construction), or by an
    explicit ratio table (used for negative controls and deserialization).
    """

    volume: Volume
    condition: Configuration
    mode: str = RATIONAL
    _kernel: ConditionalKernel | None = None
    _ratios: dict | None = None

    @staticmethod
    def from_ratios(volume, condition, ratios: dict, mode=RATIONAL):
        return TransitionEnergy(volume, condition, mode, None, dict(ratios))

    @property
    def kernel_backed(self) -> bool:
        return self._kernel is not None

    def configurations(self) -> tuple:
        if self._kernel is not None:
            return self._kernel._exact[0]
        return _IndexedTuple(sorted({x for x, _ in self._ratios}, key=lambda c: c.symbols))

    def ratio(self, x: Configuration, u: Configuration):
        """exp(Delta(x,u)) as an exact ratio (rational mode) or float: for a
        kernel, n(x) / n(u) over its numerators."""
        if self._kernel is None:
            return self._ratios[(x, u)]
        keys, nums, _ = self._kernel._exact
        return _quotient(nums[keys.position[x]], nums[keys.position[u]], self.mode)

    def value(self, x: Configuration, u: Configuration) -> float:
        return math.log(self.ratio(x, u))


def transition_energy(k: ConditionalKernel) -> TransitionEnergy:
    """Energy table of a strictly positive kernel."""
    if not k.is_positive():
        raise PositivityError("kernel has a vanishing entry; energies undefined")
    return TransitionEnergy(k.volume, k.condition, k.mode, k)


def check_antisymmetry(e: TransitionEnergy) -> bool:
    """ratio(x,u) * ratio(u,x) == 1 and ratio(x,x) == 1 for all pairs."""
    configs = e.configurations()
    return (all(close(e.ratio(x, x), 1) for x in configs)
            and all(close(e.ratio(x, u) * e.ratio(u, x), 1) for x, u in combinations(configs, 2)))


def check_cocycle(e: TransitionEnergy) -> bool:
    """ratio(x,u) == ratio(x,y) * ratio(y,u) over all triples, decided on
    the ratios' numerators over one denominator."""
    configs = e.configurations()
    ratios = {(x, u): e.ratio(x, u) for x in configs for u in configs}
    ints, common = integer_numerators(ratios.values(), e.mode)
    failures = cocycle_failures(dict(zip(ratios, ints)), configs, Comparison(), common)
    return next(failures, None) is None


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
    return validate_spec(spec_from_model(m, kernels), fixtures).ok


def check_one_point_exchange(m: RandomFieldModel, t, s, z: Configuration,
                             kernels: KernelCache | None = None) -> bool:
    """Exchange law for one-point energies of two sites:

        Delta_t^{zy}(x,u) + Delta_s^{zu}(y,v) == Delta_s^{zx}(y,v) + Delta_t^{zv}(x,u).

    Checked by validate_tef on the energy field of the model's one-point
    kernels.
    """
    tef = tef_from_1spec(onepoint_spec_from_model(m, kernels))
    return validate_tef(tef, [(t, s, z)]).ok


def gibbs_form_from_energy(e: TransitionEnergy, reference: Configuration) -> ConditionalKernel:
    """Kernel with probabilities proportional to exp(Delta(., reference)).

    For a kernel-backed energy this inverts transition_energy exactly, in
    rational mode from the kernel's numerators n(x) = n(reference) ratio(x,
    reference). Explicit ratio tables are cocycle-checked first.
    """
    if not e.kernel_backed and not (check_antisymmetry(e) and check_cocycle(e)):
        raise InconsistentEnergyError("ratio table violates the cocycle law")
    configs = e.configurations()
    if reference not in configs:
        raise DomainError("reference must be a configuration on the energy's volume")
    if e.kernel_backed and e.mode == RATIONAL:
        weights = e._kernel._exact[1]
    else:
        weights, _ = integer_numerators([e.ratio(x, reference) for x in configs], e.mode)
    return ConditionalKernel._of_numerators(e.volume, e.condition, configs,
                                            *_over_sum(weights, e.mode), e.mode)


class HamiltonianTable(ConditionalKernel):
    """H(x) = -ln w(x) with w(gauge) = 1; differences reproduce energies.

    An unnormalized table whose entries, ``weights``, are w = exp(-H). They
    may be zero, rendering H = +inf for degenerate displays, but such
    tables are rejected by the Gibbs-form operation. Like ``probs``,
    ``weights`` is a new dict on each read: the table is read-only.
    """

    def __init__(self, volume: Volume, condition: Configuration, gauge: Configuration,
                 weights: dict, mode: str = RATIONAL):
        super().__init__(volume, condition, weights, mode)
        self.gauge = gauge

    @property
    def weights(self) -> dict:
        return self.probs

    def energy(self, x: Configuration) -> float:
        """H(x) = -ln w(x); ``value(symbol)`` is still the table entry w."""
        w = self[x]
        return math.inf if w == 0 else -math.log(w)

    def gibbs_kernel(self) -> ConditionalKernel:
        keys, nums, _ = self._exact
        if not all(n > 0 for n in nums):
            raise PositivityError("infinite Hamiltonian values admit no Gibbs form")
        return ConditionalKernel._of_numerators(self.volume, self.condition, keys,
                                                *_over_sum(nums, self.mode), self.mode)


def hamiltonian_from_energy(e: TransitionEnergy, gauge: Configuration) -> HamiltonianTable:
    """Hamiltonian with the zero of energy pinned at the gauge configuration:
    for a rational kernel, born as its numerators over n(gauge)."""
    configs = e.configurations()
    if e.kernel_backed and e.mode == RATIONAL:
        _, nums, _ = e._kernel._exact
        d = nums[configs.position[gauge]]
    else:
        nums, d = integer_numerators([e.ratio(x, gauge) for x in configs], e.mode)
    h = HamiltonianTable._of_numerators(e.volume, e.condition, configs, tuple(nums), d, e.mode)
    h.gauge = gauge
    return h


def check_hamiltonian_consistency(m: RandomFieldModel, V: Volume, I: Volume,
                                  z: Configuration, kernels: KernelCache | None = None) -> bool:
    """Gauge-free consistency of Hamiltonians across a split:

        H_{V u I}^z(xy) + H_V^{zy}(u) == H_{V u I}^z(uy) + H_V^{zy}(x)

    Any gauges cancel, which leaves the subset-consistency identity of V
    inside V u I; checked by validate_spec on that split.
    """
    if not V.isdisjoint(I) or not V or not I:
        raise DomainError("need disjoint nonempty volumes")
    return validate_spec(spec_from_model(m, kernels), [(V | I, V, z)]).ok


def energy_table_text(e: TransitionEnergy, alphabet) -> str:
    """Text table of energies: `x|u<TAB>value` (ratios in rational mode)."""
    lines = ["volume\t" + ";".join("(" + ",".join(map(str, s)) + ")" for s in e.volume),
             "mode\t" + e.mode]
    configs = e.configurations()
    for x in configs:
        for u in configs:
            key = alphabet.label_of(x.symbols) + "|" + alphabet.label_of(u.symbols)
            if e.mode == RATIONAL:
                lines.append(f"{key}\t{format_scalar(e.ratio(x, u), e.mode)}")
            else:
                lines.append(f"{key}\t{format(e.value(x, u), '.17g')}")
    return "\n".join(lines) + "\n"
