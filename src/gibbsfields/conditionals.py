"""Finite-conditional distributions and what can be built from them.

The central object is the kernel g_V^z(x) = P(x on V | z on a disjoint
finite volume), computed as a ratio of marginal probabilities. On top of
it: limits along filtrations, the pairwise and one-point consistency
identities, reconstruction of multi-point kernels from one-point kernels,
and the Markov radius of a site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping, Sequence

from .lattice import (
    Alphabet,
    Configuration,
    DomainError,
    Filtration,
    GeometryError,
    MAP_CACHE_SIZE,
    Volume,
    _code_plan,
    _concat_map,
    _digit_codes,
    _getter,
    box_volume,
    concat,
    enumerate_configurations,
    restrict,
)
from .fields import (
    RATIONAL,
    ConditionalKernel,
    RandomFieldModel,
    TableField,
    ValidationError,
    _over_sum,
    _quotient,
    integer_numerators,
)


class NullConditionError(ValueError):
    """The conditioning configuration has zero probability."""


class PositivityError(ValueError):
    """A kernel entry that must be strictly positive is zero."""


def finite_conditional(m: RandomFieldModel, V: Volume, z: Configuration) -> ConditionalKernel:
    """Kernel g_V^z(x) = P(x z) / P(z) for a condition z on a disjoint volume, P(x z) = n(xz) / s.
    On a table field P(z) = n_z / s, n_z = sum_x n(xz), and a rational kernel is n(xz) over n_z;
    else P(z) = m.prob(z) = n_z / d_z, and a rational kernel is n(xz) d_z over s n_z."""
    if not V.issubset(m.window):
        raise DomainError(f"{V - m.window} outside the model window")
    if not z.volume.isdisjoint(V):
        raise DomainError("condition volume intersects the target")
    if not z.volume.issubset(m.window):
        raise DomainError("condition outside the model window")
    default_prob = type(m).prob is RandomFieldModel.prob and (V or z.volume)
    on_table = default_prob and type(m).marginal is TableField.marginal
    if not on_table:
        pz = m.prob(z)
        (n_z,), d_z = integer_numerators([pz], m.mode)
        if n_z <= 0:
            raise NullConditionError(f"condition has probability {pz}: {z}")
    configs = enumerate_configurations(V, m.alphabet)
    if default_prob:
        union, base, offsets = _code_plan(V, z, m.alphabet)
        marginal = m.marginal(union)
        entries, s = marginal._exact_view if on_table else marginal.numerators()
        joint = [entries[base + o] for o in offsets]
    else:
        joint, s = integer_numerators([m.prob(concat(x, z)) for x in configs], m.mode)
    if on_table:
        n_z = sum(joint) if z.volume else s
        if n_z <= 0:
            raise NullConditionError(f"condition has probability {_quotient(n_z, s, m.mode)}: {z}")
        if m.mode == RATIONAL:
            return ConditionalKernel._of_numerators(V, z, configs, tuple(joint), n_z)
        joint, pz = [n / s for n in joint], n_z / s  # the marginal's floats, P(z)
    if m.mode == RATIONAL:
        return ConditionalKernel._of_numerators(
            V, z, configs, tuple(n * d_z for n in joint), s * n_z)
    return ConditionalKernel._of_numerators(V, z, configs, tuple(p / pz for p in joint), 1, m.mode)


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
    marginal; the final gap is ``sup_gaps[-1]``. No extrapolation is
    attempted.
    """

    target: Volume
    boundary: Configuration
    filtration: Filtration
    values: list  # ConditionalKernel per stage
    sup_gaps: list


def limit_along_filtration(m: RandomFieldModel, t: Volume, boundary: Configuration,
                           F: Filtration) -> LimitEstimate:
    """Evaluate g_t under increasing restrictions of one boundary condition."""
    values, gaps = [], []
    previous = m.marginal(t)
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
    return LimitEstimate(t, boundary, F, values, gaps)


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
    return validate_spec(spec_from_model(m, kernels), [(V, I, z)]).ok


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
    return validate_1spec(onepoint_spec_from_model(m, kernels), [(t, s, z)]).ok


OnePointKernelFn = Callable[[object, Configuration], Mapping]


def one_point_from_model(m: RandomFieldModel) -> OnePointKernelFn:
    """One-point kernel callable (site, condition) -> symbol table, cached."""
    from .specifications import onepoint_spec_from_model
    return onepoint_spec_from_model(m).table_fn


def reconstruct_from_one_point(one_point: OnePointKernelFn, V: Volume, z: Configuration,
                               alphabet: Alphabet, reference: Configuration | None = None,
                               site_order: Sequence | None = None,
                               mode: str = RATIONAL) -> ConditionalKernel:
    """Rebuild the kernel on V from one-point kernels.

    For sites t_1..t_n of V (canonical order unless site_order is given)
    and an arbitrary reference configuration u on V, each candidate x gets
    the weight

        prod_j  g_{t_j}^{z (xu)_j}(x_{t_j}) / g_{t_j}^{z (xu)_j}(u_{t_j})

    where (xu)_j puts x-values on t_1..t_{j-1} and u-values on
    t_{j+1}..t_n; weights are then normalized over all x. The result does
    not depend on the reference or the site order.

    Factor j depends on x only through t_1..t_j: weights are built level by
    level down the prefix tree of x, one table fetch per prefix. In rational mode a
    factor is n(a) / n(u) over the table's ``integer_numerators``, so its denominator
    cancels and a float entry raises ValidationError. A vanishing factor or a fetch's
    ValueError is raised for the first x, in enumeration order, it ends; a missing symbol
    raises ValidationError at once."""
    if site_order is None:
        order = V.sites
    else:
        order = tuple(s if isinstance(s, tuple) else (s,) for s in site_order)
        if sorted(order) != list(V.sites):
            raise DomainError("site_order must enumerate exactly the target volume")
    if reference is None:
        u = (alphabet.symbols[0],) * len(V)
    elif reference.volume != V:
        raise DomainError("reference must live on the target volume")
    else:
        u = reference.symbols
    plans, leaves, configs = _factor_plans(V, order, z.volume, alphabet)
    exact = mode == RATIONAL
    # per prefix: (z + u + its x, weight, its int denominator), (None, error, None) if failed
    level = [(z.symbols + u, 1 if exact else 1.0, 1)]
    try:  # a table without a symbol is named with its site and boundary
        for j, (union, boundary_of, r) in enumerate(plans):
            nxt = []
            for held, w, d in level:
                try:
                    if held is None:
                        raise w
                    boundary = Configuration(union, boundary_of(held))
                    table = one_point(order[j], boundary)
                    if exact:
                        table = dict(zip(table, integer_numerators(table.values(), mode)[0]))
                except ValueError as err:  # every extension of a failed prefix fails with it
                    nxt += [(None, err, None)] * alphabet.size
                    continue
                den = table[u[r]]
                for a in alphabet.symbols:
                    num = table[a]
                    if num <= 0 or den <= 0:
                        nxt.append((None, PositivityError(
                            f"one-point kernel vanishes at factor {j} "
                            f"under {restrict(boundary, V - Volume((order[j],)))}"), None))
                    elif exact:
                        nxt.append((held + (a,), w * num, d * den))
                    else:
                        nxt.append((held + (a,), w * (num / den), d))
            level = nxt
    except KeyError as missing:
        raise ValidationError(f"missing probability for {missing} at {Volume((order[j],))} "
                              f"under {boundary}") from None
    level = [level[i] for i in leaves]
    for held, w, _ in level:
        if held is None:
            raise w
    _, weights, denominators = zip(*level)  # float weights: the normalization's float division
    if exact:
        common = math.lcm(*denominators)
        weights = [w * (common // d) for w, d in zip(weights, denominators)]
    return ConditionalKernel._of_numerators(V, z, configs, *_over_sum(weights, mode), mode)


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _factor_plans(V: Volume, order: tuple, condition: Volume, alphabet: Alphabet) -> tuple:
    """Per factor j of reconstruct_from_one_point: (union, boundary_of, V.index(order[j])),
    ``boundary_of(z + u + x on order[:j])`` being the boundary's symbols on union; then
    the leaf of each x on V, and the configurations on V, enumerated once per plan."""
    plans = []
    for j, t in enumerate(order):
        union = _concat_map(condition, V - Volume((t,)))[0]
        at = {s: i for i, s in enumerate(condition.sites + V.sites + order[:j])}  # x over u
        plans.append((union, _getter(tuple(at[s] for s in union.sites)), V.index(t)))
    configs = enumerate_configurations(V, alphabet)
    return tuple(plans), tuple(_digit_codes(order, V, alphabet.size)), configs


def markov_radius(m: RandomFieldModel, t, max_r: int,
                  kernels: KernelCache | None = None) -> int | None:
    """Smallest r such that conditioning beyond the radius-r ball around t
    never changes the one-point kernel; None if no r <= max_r works.

    For each candidate r, every volume between ball(t,r)\\t and the window
    complement is enumerated, and kernels under conditions agreeing on the
    ball must coincide (exactly in rational mode, within DEFAULT_TOL otherwise).
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
            elif not seen.table_equal(k):
                return False
    return True
