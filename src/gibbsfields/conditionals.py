"""Finite-conditional distributions and what can be built from them.

The central object is the kernel g_V^z(x) = P(x on V | z on a disjoint
finite volume), computed as a ratio of marginal probabilities. On top of
it: limits along filtrations, the pairwise and one-point consistency
identities, reconstruction of multi-point kernels from one-point kernels,
and the Markov radius of a site.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .lattice import (
    Alphabet,
    Configuration,
    DomainError,
    Filtration,
    GeometryError,
    Volume,
    box_volume,
    concat,
    enumerate_configurations,
    restrict,
)
from .fields import (
    DEFAULT_TOL,
    RATIONAL,
    RandomFieldModel,
    close,
    format_scalar,
    normalized,
)


class NullConditionError(ValueError):
    """The conditioning configuration has zero probability."""


class PositivityError(ValueError):
    """A kernel entry that must be strictly positive is zero."""


@dataclass
class ConditionalKernel:
    """Probability table on a target volume under a fixed condition."""

    target: Volume
    condition: Configuration
    probs: dict  # Configuration on target -> scalar
    mode: str = RATIONAL
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        if not self.target.isdisjoint(self.condition.volume):
            raise DomainError("condition volume intersects the target")

    def __getitem__(self, c: Configuration):
        return self.probs[c]

    def value(self, symbol):
        """Entry for a one-site target addressed by its symbol."""
        (site,) = self.target.sites
        return self.probs[Configuration(self.target, (symbol,))]

    def items(self):
        return self.probs.items()

    def is_positive(self) -> bool:
        floor = 0 if self.mode == RATIONAL else self.tol
        return all(v > floor for v in self.probs.values())

    def sup_distance(self, other: "ConditionalKernel"):
        if self.target != other.target:
            raise DomainError("kernels on different targets")
        if self.mode == RATIONAL and other.mode == RATIONAL:
            return max(abs(self.probs[c] - other.probs[c]) for c in self.probs)
        return max(abs(float(self.probs[c]) - float(other.probs[c])) for c in self.probs)

    def table_equal(self, other: "ConditionalKernel", tol: float | None = None) -> bool:
        tol = self.tol if tol is None else tol
        return all(close(self.probs[c], other.probs[c], tol) for c in self.probs)


def finite_conditional(m: RandomFieldModel, V: Volume, z: Configuration) -> ConditionalKernel:
    """Kernel g_V^z(x) = P(x z) / P(z) for a condition z on a disjoint volume."""
    if not V.issubset(m.window):
        raise DomainError(f"{V - m.window} outside the model window")
    if not V.isdisjoint(z.volume):
        raise DomainError("condition volume intersects the target")
    if not z.volume.issubset(m.window):
        raise DomainError("condition outside the model window")
    pz = m.prob(z)
    if pz <= 0:
        raise NullConditionError(f"condition has probability {pz}: {z}")
    probs = {}
    for x in enumerate_configurations(V, m.alphabet):
        probs[x] = m.prob(concat(x, z)) / pz
    return ConditionalKernel(V, z, probs, m.mode, m.tol)


class KernelCache:
    """Memoized finite conditionals of one model, keyed (target, condition)."""

    def __init__(self, m: RandomFieldModel):
        self.model = m
        self._cache: dict = {}

    def __call__(self, V: Volume, z: Configuration) -> ConditionalKernel:
        key = (V, z)
        k = self._cache.get(key)
        if k is None:
            k = self._cache[key] = finite_conditional(self.model, V, z)
        return k


@dataclass
class LimitEstimate:
    """Stage-wise conditional tables of one target along a filtration.

    Stage n conditions on the boundary restricted to the n-th filtration
    volume minus the target. ``sup_gaps[n]`` is the table sup-distance to
    the previous stage, stage 0 being measured against the unconditional
    marginal. ``converged`` reports only the last-two-stage gap; no
    extrapolation is attempted.
    """

    target: Volume
    boundary: Configuration
    filtration: Filtration
    values: list  # ConditionalKernel per stage
    sup_gaps: list
    converged: bool
    final_gap: object


def limit_along_filtration(m: RandomFieldModel, t: Volume, boundary: Configuration,
                           F: Filtration, gap_tol: float = DEFAULT_TOL) -> LimitEstimate:
    """Evaluate g_t under increasing restrictions of one boundary condition."""
    baseline = ConditionalKernel(
        t, Configuration(Volume.empty(), ()),
        dict(m.marginal(t).items()), m.mode, m.tol)
    values, gaps = [], []
    previous = baseline
    for n, stage in enumerate(F):
        lam = stage - t
        if not lam.issubset(boundary.volume):
            raise DomainError(f"boundary does not cover stage {n}")
        try:
            k = finite_conditional(m, t, restrict(boundary, lam))
        except NullConditionError as err:
            raise NullConditionError(f"stage {n}: {err}") from None
        values.append(k)
        gaps.append(k.sup_distance(previous))
        previous = k
    final_gap = gaps[-1]
    converged = float(final_gap) <= gap_tol
    return LimitEstimate(t, boundary, F, values, gaps, converged, final_gap)


def limit_estimate_csv(est: LimitEstimate, alphabet: Alphabet) -> str:
    """CSV rendering: stage, volume_size, per-configuration columns, gap."""
    configs = list(est.values[0].probs)
    labels = [",".join(alphabet.name_of(s) for s in c.symbols) for c in configs]
    rows = ["stage,volume_size," + ",".join(f"g[{l}]" for l in labels) + ",sup_gap_to_previous"]
    for n, k in enumerate(est.values):
        cells = [str(n + 1), str(len(est.filtration[n]))]
        cells += [format_scalar(k.probs[c], k.mode) for c in configs]
        cells.append(format_scalar(est.sup_gaps[n], k.mode))
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def check_pair_consistency(m: RandomFieldModel, I: Volume, V: Volume,
                           z: Configuration, kernels: KernelCache | None = None) -> bool:
    """Identity linking the kernel on V with kernels on a subset I:

        g_V^z(xy) g_I^{zy}(u) == g_V^z(uy) g_I^{zy}(x)

    for all x, u on I and y on V \\ I, with z on a volume disjoint from V.
    Checked by validate_spec on the model's specification.
    """
    if not (I.issubset(V) and len(I) < len(V) and len(I) > 0):
        raise DomainError("need a proper nonempty subset I of V")
    # specifications builds on this module, so it is imported at call time
    from .specifications import spec_from_model, validate_spec
    return validate_spec(spec_from_model(m, kernels), [(V, I, z)], m.tol).ok


def check_one_point_consistency(m: RandomFieldModel, t, s, z: Configuration,
                                kernels: KernelCache | None = None) -> bool:
    """Eight-factor exchange identity between the kernels of two sites:

        g_t^{zy}(x) g_s^{zx}(v) g_t^{zv}(u) g_s^{zu}(y)
          == g_t^{zy}(u) g_s^{zu}(v) g_t^{zv}(x) g_s^{zx}(y)

    quantified over symbols x, u at t and y, v at s. Checked by
    validate_1spec, which also requires each kernel to be positive and
    normalized.
    """
    from .specifications import onepoint_spec_from_model, validate_1spec
    return validate_1spec(onepoint_spec_from_model(m, kernels), [(t, s, z)], m.tol).ok


OnePointKernelFn = Callable[[object, Configuration], Mapping]


def one_point_from_model(m: RandomFieldModel) -> OnePointKernelFn:
    """One-point kernel callable (site, condition) -> symbol table, cached."""
    from .specifications import onepoint_spec_from_model
    return onepoint_spec_from_model(m).table_fn


def reconstruct_from_one_point(one_point: OnePointKernelFn, V: Volume, z: Configuration,
                               alphabet: Alphabet, reference: Configuration | None = None,
                               site_order: Sequence | None = None,
                               mode: str = RATIONAL, tol: float = DEFAULT_TOL) -> ConditionalKernel:
    """Rebuild the kernel on V from one-point kernels.

    For sites t_1..t_n of V (canonical order unless site_order is given)
    and an arbitrary reference configuration u on V, each candidate x gets
    the weight

        prod_j  g_{t_j}^{z (xu)_j}(x_{t_j}) / g_{t_j}^{z (xu)_j}(u_{t_j})

    where (xu)_j puts x-values on t_1..t_{j-1} and u-values on
    t_{j+1}..t_n; weights are then normalized over all x. The result does
    not depend on the reference or the site order.

    Factor j depends on x only through its values on t_1..t_j, so each
    one-point table is fetched once per prefix of length j-1 and each
    partial product is formed once per prefix of length j, lazily in the
    enumeration order of x.
    """
    order = tuple(V.sites) if site_order is None else tuple(
        s if isinstance(s, tuple) else (s,) for s in site_order)
    if sorted(order) != list(V.sites):
        raise DomainError("site_order must enumerate exactly the target volume")
    if reference is None:
        reference = Configuration(V, (alphabet.symbols[0],) * len(V))
    if reference.volume != V:
        raise DomainError("reference must live on the target volume")
    rank = [V.sites.index(t) for t in order]  # position in V of each factor's site
    rests = [V - Volume((t,)) for t in order]
    ref = reference.symbols
    tables: dict = {}  # prefix of x along order -> (one-point table, interleaved)
    products: dict = {(): Fraction(1) if mode == RATIONAL else 1.0}

    def factor_table(prefix: tuple):
        j = len(prefix)
        mixed = list(ref)
        for i, symbol in zip(rank, prefix):
            mixed[i] = symbol
        del mixed[rank[j]]
        interleaved = Configuration(rests[j], tuple(mixed))
        return one_point(order[j], concat(z, interleaved)), interleaved

    def weight(x: Configuration):
        key = tuple(x.symbols[i] for i in rank)
        w = products[()]
        for j in range(len(order)):
            head = key[:j + 1]
            nxt = products.get(head)
            if nxt is None:
                prefix = key[:j]
                entry = tables.get(prefix)
                if entry is None:
                    entry = tables[prefix] = factor_table(prefix)
                table, interleaved = entry
                num, den = table[key[j]], table[ref[rank[j]]]
                if num <= 0 or den <= 0:
                    raise PositivityError(
                        f"one-point kernel vanishes at factor {j} under {interleaved}")
                nxt = products[head] = w * (num / den)
            w = nxt
        return w

    weights = {x: weight(x) for x in enumerate_configurations(V, alphabet)}
    return ConditionalKernel(V, z, normalized(weights, mode), mode, tol)


def markov_radius(m: RandomFieldModel, t, max_r: int,
                  kernels: KernelCache | None = None) -> int | None:
    """Smallest r such that conditioning beyond the radius-r ball around t
    never changes the one-point kernel; None if no r <= max_r works.

    For each candidate r, every volume between ball(t,r)\\t and the window
    complement is enumerated, and kernels under conditions agreeing on the
    ball must coincide (exactly in rational mode, within tol otherwise).
    """
    site = t if isinstance(t, tuple) else (t,)
    t_vol = Volume.of([site])
    if not box_volume(site, max_r).issubset(m.window):
        raise GeometryError(f"window lacks margin {max_r} around {site}")
    kernels = kernels or KernelCache(m)
    complement = m.window - t_vol

    for r in range(max_r + 1):
        core = box_volume(site, r) - t_vol
        extras = (complement - core).sites
        if _insensitive_beyond(m, t_vol, core, extras, kernels):
            return r
    return None


def _insensitive_beyond(m, t_vol, core, extras, kernels) -> bool:
    for mask in range(2 ** len(extras)):
        chosen = [s for i, s in enumerate(extras) if mask >> i & 1]
        lam = core.union(Volume.of(chosen)) if chosen else core
        if not lam:
            continue
        groups: dict = {}
        for z in enumerate_configurations(lam, m.alphabet):
            key = restrict(z, core)
            k = kernels(t_vol, z)
            seen = groups.get(key)
            if seen is None:
                groups[key] = k
            elif not seen.table_equal(k, m.tol):
                return False
    return True
