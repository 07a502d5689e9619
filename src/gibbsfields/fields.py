"""Random fields as providers of exact finite-dimensional distributions.

A distribution carries a numeric mode: "rational" tables hold int
numerators over one int denominator, each entry read as a new
``fractions.Fraction``, and all identities are checked with exact
equality; "float" tables hold binary floats and each check compares them
within the tolerance it is given (default 1e-12). Float sums are those
of ``math.fsum``, so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial, reduce
from numbers import Rational
from operator import add

from .lattice import (
    EMPTY_CONFIGURATION,
    Alphabet,
    Configuration,
    DomainError,
    Volume,
    _IndexedTuple,
    enumerate_configurations,
    format_site,
    parse_site,
)

RATIONAL = "rational"
FLOAT = "float"
DEFAULT_TOL = 1e-12


class ValidationError(ValueError):
    """A probability table violates one of its invariants."""


def close(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Scalar comparison: exact for two rationals (Fractions or ints),
    tolerant otherwise."""
    if isinstance(a, Rational) and isinstance(b, Rational):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=tol, abs_tol=tol)


def residual(lhs, rhs) -> float:
    a, b = float(lhs), float(rhs)
    return abs(a - b) / max(1.0, abs(a), abs(b))


class Comparison:
    """Compares the two sides of identities at one tolerance and keeps the
    largest residual among those that do not hold exactly.

    Each side is a numerator over ``scale`` (``integer_numerators``): the
    identity holds when the numerators are equal, is rejected when both are
    rational, and is otherwise decided within tol. The residual is taken
    on the quotients, and int / int is correctly rounded, so it is that of
    the exact Fractions with no Fraction built.
    """

    def __init__(self, tol: float = DEFAULT_TOL):
        self.tol = tol
        self.worst = 0.0

    def __call__(self, lhs, rhs, scale=1) -> bool:
        if lhs == rhs:
            return True
        self.worst = max(self.worst, residual(lhs / scale, rhs / scale))
        return close(lhs, rhs, self.tol)


def integer_numerators(values: Iterable, mode: str) -> tuple:
    """Values as numerators over one denominator: (numerators, denominator).

    The one exactness gate: in rational mode a value without an int numerator
    and denominator (a float, say) raises ValidationError naming it, and exact
    values become ints over their least common denominator. Two products of
    such values with the same number of factors are equal exactly when the
    products of their numerators are, so identities are decided in integer
    arithmetic, with no gcd; a side with one factor fewer is multiplied by
    the denominator. In float mode values come back as given, unread, over 1.
    """
    if mode == FLOAT:
        return values, 1
    values = list(values)
    try:
        denominators = [v.denominator for v in values]
        common = math.lcm(*denominators)
    except (AttributeError, TypeError):
        inexact = next(v for v in values if not isinstance(getattr(v, "denominator", None), int))
        raise ValidationError(f"not exactly representable in rational mode: {inexact!r}") from None
    return [v.numerator * (common // d) for v, d in zip(values, denominators)], common


def _quotient(n, m, mode: str):
    """n / m, in rational mode a Fraction of two ints: no Fraction is divided."""
    return Fraction(n, m) if mode == RATIONAL else n / m


def scalar_sum(values: Iterable, mode: str):
    if mode == RATIONAL:
        return sum(values, Fraction(0))
    return math.fsum(values)


def _over_sum(nums, mode: str) -> tuple:
    """Numerators over their sum: a positive int, or in float mode divided by its fsum."""
    if mode == FLOAT:
        total = math.fsum(nums)
        return tuple([n / total for n in nums]), 1
    total = sum(nums)
    if total == 0 < len(nums):  # as Fraction(n, 0) would
        raise ZeroDivisionError(f"Fraction({nums[0]}, 0)")
    return (tuple(nums), total) if total > 0 else (tuple([-n for n in nums]), -total)


def normalized(weights: Mapping, mode: str) -> dict:
    """The weights over their sum: if exact, each one Fraction of int numerators."""
    nums, total = _over_sum(integer_numerators(weights.values(), mode)[0], mode)
    return {k: _quotient(n, total, mode) for k, n in zip(weights, nums)}


def to_scalar(value, mode: str):
    if mode == FLOAT:
        return float(value)
    (n,), d = integer_numerators([Fraction(value) if isinstance(value, str) else value], mode)
    return Fraction(n, d)


def _entry(n, d, mode: str):
    """The value of numerator n over d: a Fraction in rational mode, else n itself over 1."""
    return Fraction(n, d) if mode == RATIONAL else n


@dataclass(init=False)  # repr and == read probs, built on read
class ConditionalKernel(Mapping):
    """Probability table on a volume under a condition on a disjoint one, a read-only
    mapping: the one table type, of which a marginal P_V (FiniteDistribution, the
    empty condition) and Hamiltonian weights (energy.HamiltonianTable) are views.

    A kernel stores one form, ``_exact``: keys, an ``_IndexedTuple`` (for the kernels
    the library births through ``_of_numerators``, the shared enumeration itself), and
    entries as numerators over one denominator: ints over a positive int in rational mode,
    floats over 1 in float mode. The public constructor converts a mapping once, through
    ``integer_numerators``. ``probs``, ``items()``, ``kernel[c]`` and ``value`` build
    values on each read and keep none.
    """

    volume: Volume
    condition: Configuration
    probs: dict  # Configuration on volume -> scalar
    mode: str = RATIONAL

    def __init__(self, volume: Volume, condition: Configuration, probs: Mapping,
                 mode: str = RATIONAL):
        nums, d = integer_numerators(probs.values(), mode)
        self._hold(volume, condition, _IndexedTuple(probs), tuple(nums), d, mode)

    @classmethod
    def _of_numerators(cls, volume: Volume, condition: Configuration, keys: tuple,
                       nums: tuple, d, mode: str = RATIONAL) -> "ConditionalKernel":
        """The kernel whose entry at keys[i] is nums[i] / d."""
        k = cls.__new__(cls)
        k._hold(volume, condition, keys, nums, d, mode)
        return k

    def _hold(self, volume, condition, keys, nums, d, mode) -> None:
        if not condition.volume.isdisjoint(volume):
            raise DomainError("condition volume intersects the target")
        self.volume, self.condition, self.mode = volume, condition, mode
        self._exact = keys, nums, d

    @property
    def probs(self) -> dict:
        return dict(zip(self._exact[0], self._values()))

    def _values(self, order: tuple | None = None) -> list:
        """The entries' values, in key order or at order."""
        nums, d = self.numerators(order)
        return [_entry(n, d, self.mode) for n in nums]

    def __getitem__(self, c: Configuration):
        keys, nums, d = self._exact
        return _entry(nums[keys.position[c]], d, self.mode)

    def __iter__(self):
        return iter(self._exact[0])

    def __len__(self):
        return len(self._exact[0])

    def items(self):
        return self.probs.items()

    def numerators(self, order: tuple | None = None) -> tuple:
        """(numerators, denominator) of the entries, in key order or at order."""
        keys, nums, d = self._exact
        if order is not None and order is not keys and order != keys:
            try:
                nums = [nums[i] for i in map(keys.position.__getitem__, order)]
            except KeyError as missing:
                raise ValidationError(f"missing probability for {missing.args[0]}") from None
        return nums, d

    def value(self, symbol):
        """Entry for a one-site volume addressed by its symbol."""
        if len(self.volume) != 1:
            raise DomainError(f"value(symbol) needs a one-site volume, not {self.volume}")
        return self[Configuration(self.volume, (symbol,))]

    def is_positive(self) -> bool:
        """True iff every entry is strictly positive, in both modes."""
        return all(n > 0 for n in self.numerators()[0])

    def sup_distance(self, other: "ConditionalKernel"):
        """Max absolute difference over the shared configuration set; between two
        exact kernels, max |n_a d_b - n_b d_a| over d_a d_b, one Fraction."""
        if self.volume != other.volume:
            raise DomainError("tables on different volumes")
        keys, n_a, d_a = self._exact
        n_b, d_b = other.numerators(keys)
        if self.mode == RATIONAL and other.mode == RATIONAL:
            return Fraction(max(abs(a * d_b - b * d_a) for a, b in zip(n_a, n_b)), d_a * d_b)
        return max(abs(float(a) - float(b)) for a, b in zip(self._values(), other._values(keys)))

    def table_equal(self, other: "ConditionalKernel", tol: float = DEFAULT_TOL) -> bool:
        """Entry-wise comparison (exact / within tol)."""
        return all(close(a, b, tol) for a, b in zip(self._values(), other._values(self._exact[0])))


class FiniteDistribution(ConditionalKernel):
    """Exact probability table over all configurations on a finite volume:
    the kernel under the empty condition.

    Its keys are the enumeration itself, in canonical order, and this is a
    contract: the j-th key of ``probs`` is the configuration whose symbols'
    alphabet indices, read site by site as the digits of a base-k number,
    spell j, so the j-th numerator is that of code j. Entries are finite.
    The constructor checks and converts them once; ``marginalize`` keeps an
    exact view of them with the table.
    """

    def __init__(self, volume: Volume, alphabet: Alphabet, probs: Mapping,
                 mode: str = RATIONAL):
        order = enumerate_configurations(volume, alphabet)
        # canonical key order makes serialization and iteration deterministic;
        # a table already in that order is read without hashing its keys
        try:
            values = list(probs.values()) if tuple(probs) == order else [probs[c] for c in order]
        except KeyError as missing:
            raise ValidationError(f"missing probability for {missing.args[0]}")
        if len(probs) != len(values):
            raise ValidationError("probability table keys are not exactly the enumeration")
        nums, d = integer_numerators(values, mode)
        for c, p in zip(order, values):
            if mode == FLOAT and not math.isfinite(p):
                raise ValidationError(f"non-finite probability {p} at {c}")
            if p < 0 and not (mode == FLOAT and p >= -DEFAULT_TOL):
                raise ValidationError(f"negative probability {p} at {c}")
        if mode == RATIONAL and sum(nums) != d:
            raise ValidationError(f"probabilities sum to {Fraction(sum(nums), d)}, not 1")
        if mode == FLOAT and abs(math.fsum(nums) - 1.0) > DEFAULT_TOL:
            raise ValidationError(f"probabilities sum to {math.fsum(nums)!r}, "
                                  f"off by more than {DEFAULT_TOL}")
        self._hold(volume, EMPTY_CONFIGURATION, order, tuple(nums), d, mode)
        self.alphabet = alphabet

    @cached_property
    def _exact_view(self) -> tuple:
        """(ints, scale): the numerators in rational mode, else the entries over the largest
        of ``float.as_integer_ratio``'s denominators; a marginal is born with its sums."""
        if self.mode == RATIONAL:
            return self.numerators()
        ratios = [float(v).as_integer_ratio() for v in self._exact[1]]
        scale = max(d for _, d in ratios)
        return [n * (scale // d) for n, d in ratios], scale


def _sum_out(values: list, i: int, k: int) -> list:
    """Sum out digit i of the base-k codes that index values: by contiguous
    runs if fewer digits precede i than follow it, else by strided slices."""
    w = len(values) // k ** (i + 1)  # the run of one symbol at digit i
    block = k * w
    if k ** i <= w:
        out = []
        for b in range(0, len(values), block):
            out += reduce(partial(map, add), [values[j:j + w] for j in range(b, b + block, w)])
        return out
    out = [0] * (len(values) // k)
    for r in range(w):
        out[r::w] = reduce(partial(map, add), [values[j::block] for j in range(r, block, w)])
    return out


def marginalize(p: FiniteDistribution, V: Volume) -> FiniteDistribution:
    """Sum out the sites of p.volume outside V, exactly: p's entries as ints
    over one scale (``_exact_view``), summed out site by site from the last,
    leave the sums in V's code order. The marginal keeps them as its exact
    view and is born from them, unvalidated, as a marginal of a valid table
    is valid: in rational mode as its numerators over that scale; in float
    mode each sum is rounded once, the bits of ``math.fsum`` over its entries."""
    if not V.issubset(p.volume):
        raise DomainError(f"{V - p.volume} not inside the distribution's volume")
    if V is p.volume:
        return p
    values, scale = p._exact_view
    for i in reversed(range(len(p.volume))):
        if p.volume.sites[i] not in V:
            values = _sum_out(values, i, p.alphabet.size)
    keys, values = enumerate_configurations(V, p.alphabet), tuple(values)
    nums, d = (values, scale) if p.mode == RATIONAL else (tuple([v / scale for v in values]), 1)
    q = FiniteDistribution._of_numerators(V, EMPTY_CONFIGURATION, keys, nums, d, p.mode)
    q.alphabet, q._exact_view = p.alphabet, (values, scale)
    return q


class RandomFieldModel:
    """Provider of exact marginal distributions on sub-volumes of a window.

    A subclass overrides ``marginal``, ``prob`` or both, and each default
    reads the other: the default marginal tabulates ``prob`` over every
    configuration on V, and the default ``prob`` reads single entries off
    the marginal table.
    """

    window: Volume
    alphabet: Alphabet
    mode: str = RATIONAL

    def marginal(self, V: Volume) -> FiniteDistribution:
        self._check_volume(V)
        probs = {c: self.prob(c) for c in enumerate_configurations(V, self.alphabet)}
        return FiniteDistribution(V, self.alphabet, probs, self.mode)

    def prob(self, c: Configuration):
        """Marginal probability of a single configuration."""
        if not c.volume:
            return Fraction(1) if self.mode == RATIONAL else 1.0
        return self.marginal(c.volume)[c]

    def describe(self) -> str:
        return type(self).__name__

    def _check_volume(self, V: Volume) -> None:
        if not V.issubset(self.window):
            raise DomainError(f"{V - self.window} outside the model window")


class TableField(RandomFieldModel):
    """Random field backed by one dense table on the whole window."""

    def __init__(self, table: FiniteDistribution):
        self.table = table
        self.window = table.volume
        self.alphabet = table.alphabet
        self.mode = table.mode
        self._marginals: dict = {table.volume: table}

    def marginal(self, V: Volume) -> FiniteDistribution:
        self._check_volume(V)
        if V not in self._marginals:
            self._marginals[V] = marginalize(self.table, V)
        return self._marginals[V]

    def describe(self) -> str:
        return f"table[{len(self.window)} sites, {self.mode}]"


def table_field(window: Volume, alphabet: Alphabet, probs,
                mode: str = RATIONAL) -> TableField:
    """Wrap a full probability table as a random field model."""
    if isinstance(probs, FiniteDistribution):
        return TableField(probs)
    return TableField(FiniteDistribution(window, alphabet, probs, mode))


class ProductField(RandomFieldModel):
    """Independent sites, one fixed single-site law everywhere."""

    def __init__(self, window: Volume, alphabet: Alphabet, law: Mapping,
                 mode: str = RATIONAL):
        self.window = window
        self.alphabet = alphabet
        self.mode = mode
        self.law = {s: to_scalar(law[s], mode) for s in alphabet.symbols}
        total = scalar_sum(self.law.values(), mode)
        if mode == RATIONAL and total != 1 or mode == FLOAT and abs(total - 1) > DEFAULT_TOL:
            raise ValidationError(f"single-site law sums to {total}")

    def prob(self, c: Configuration):
        self._check_volume(c.volume)
        out = Fraction(1) if self.mode == RATIONAL else 1.0
        for v in c.symbols:
            out *= self.law[v]
        return out

    def describe(self) -> str:
        return f"product[{dict((self.alphabet.name_of(k), str(v)) for k, v in self.law.items())}]"


def check_marginal_consistency(m: RandomFieldModel, S: Volume, V: Volume,
                               tol: float = DEFAULT_TOL) -> bool:
    """True iff the marginal of P_S on V equals P_V (exact / within tol)."""
    if not (V.issubset(S) and S.issubset(m.window)):
        raise DomainError("need V inside S inside the window")
    derived = marginalize(m.marginal(S), V)
    return m.marginal(V).table_equal(derived, tol)


def seeded_positive_table(window: Volume, alphabet: Alphabet, seed: int,
                          max_numerator: int = 64) -> TableField:
    """Deterministic strictly positive rational table field for fixtures."""
    rng = random.Random(seed)
    configs = enumerate_configurations(window, alphabet)
    numerators = [rng.randint(1, max_numerator) for _ in configs]
    denom = sum(numerators)
    probs = {c: Fraction(n, denom) for c, n in zip(configs, numerators)}
    return table_field(window, alphabet, probs)


def format_scalar(value, mode: str) -> str:
    if mode == RATIONAL:
        f = value if isinstance(value, Fraction) else Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return format(float(value), ".17g")


def parse_scalar(text: str, mode: str):
    if mode == RATIONAL:
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den) if den else 1)
    return float(text)


def write_distribution_file(p: FiniteDistribution, path) -> None:
    """Text table format: volume and alphabet headers, then one line
    ``symbols<TAB>value`` per configuration in canonical order."""
    lines = [
        "volume\t" + ";".join(format_site(s) for s in p.volume),
        "alphabet\t" + ";".join(p.alphabet.names),
        "mode\t" + p.mode,
    ]
    for c, v in p.items():
        key = p.alphabet.label_of(c.symbols)
        lines.append(f"{key}\t{format_scalar(v, p.mode)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_distribution_file(path) -> FiniteDistribution:
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = {}
    body_start = 0
    for i, ln in enumerate(lines):
        key, _, rest = ln.partition("\t")
        if key in ("volume", "alphabet", "mode"):
            header[key] = rest
            body_start = i + 1
        else:
            break
    if "volume" not in header or "alphabet" not in header:
        raise ValidationError("missing volume/alphabet header")
    vol = Volume.of(parse_site(s) for s in header["volume"].split(";"))
    names = header["alphabet"].split(";")
    try:
        symbols = tuple(int(n) for n in names)
    except ValueError:
        symbols = tuple(names)
    alphabet = Alphabet.of(symbols, names)
    mode = header.get("mode", RATIONAL)
    probs = {}
    for ln in lines[body_start:]:
        key, _, val = ln.partition("\t")
        syms = tuple(alphabet.symbol_of(n) for n in key.split(","))
        try:
            value = parse_scalar(val, mode)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"{path}: entry {key} holds {val!r}, not a {mode} value") from None
        probs[Configuration(vol, syms)] = value
    return FiniteDistribution(vol, alphabet, probs, mode)
