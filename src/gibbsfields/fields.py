"""Random fields as providers of exact finite-dimensional distributions.

A distribution carries a numeric mode: "rational" tables hold
``fractions.Fraction`` entries and all identities are checked with exact
equality; "float" tables hold binary floats and comparisons use a
declared relative tolerance (default 1e-12). Float summations go through
``math.fsum`` so results do not depend on evaluation order.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Iterable, Mapping

from .lattice import (
    Alphabet,
    Configuration,
    DomainError,
    Volume,
    enumerate_configurations,
    format_site,
    parse_site,
    restrict,
)

RATIONAL = "rational"
FLOAT = "float"
DEFAULT_TOL = 1e-12

Scalar = object  # Fraction in rational mode, float in float mode


class ValidationError(ValueError):
    """A probability table violates one of its invariants."""


def close(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Scalar comparison: exact for two Fractions, tolerant otherwise."""
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=tol, abs_tol=tol)


def residual(lhs, rhs) -> float:
    a, b = float(lhs), float(rhs)
    return abs(a - b) / max(1.0, abs(a), abs(b))


class Comparison:
    """Compares the two sides of identities at one tolerance and keeps the
    largest residual among those that do not hold exactly."""

    def __init__(self, tol: float):
        self.tol = tol
        self.worst = 0.0

    def __call__(self, lhs, rhs) -> bool:
        if lhs == rhs:
            return True
        self.worst = max(self.worst, residual(lhs, rhs))
        return close(lhs, rhs, self.tol)


def scalar_sum(values: Iterable, mode: str):
    if mode == RATIONAL:
        return sum(values, Fraction(0))
    return math.fsum(float(v) for v in values)


def normalized(weights: Mapping, mode: str) -> dict:
    """The weights divided by their sum."""
    total = scalar_sum(weights.values(), mode)
    return {k: w / total for k, w in weights.items()}


def to_scalar(value, mode: str):
    if mode == RATIONAL:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return Fraction(value)
        raise ValidationError(f"not exactly representable in rational mode: {value!r}")
    return float(value)


class FiniteDistribution:
    """Exact probability table over all configurations on a finite volume."""

    def __init__(self, volume: Volume, alphabet: Alphabet, probs: Mapping,
                 mode: str = RATIONAL, tol: float = DEFAULT_TOL, validate: bool = True):
        self.volume = volume
        self.alphabet = alphabet
        self.mode = mode
        self.tol = tol
        order = enumerate_configurations(volume, alphabet)
        # canonical key order makes serialization and iteration deterministic
        try:
            self.probs = {c: probs[c] for c in order}
        except KeyError as missing:
            raise ValidationError(f"missing probability for {missing.args[0]}")
        if validate:
            self._validate(len(probs))

    def _validate(self, n_given: int) -> None:
        if n_given != len(self.probs):
            raise ValidationError("probability table keys are not exactly the enumeration")
        for c, p in self.probs.items():
            if self.mode == RATIONAL and not isinstance(p, Fraction):
                raise ValidationError(f"non-rational entry {p!r} in rational mode")
            if p < 0 and not (self.mode == FLOAT and p >= -self.tol):
                raise ValidationError(f"negative probability {p} at {c}")
        total = scalar_sum(self.probs.values(), self.mode)
        if self.mode == RATIONAL:
            if total != 1:
                raise ValidationError(f"probabilities sum to {total}, not 1")
        elif abs(total - 1.0) > self.tol:
            raise ValidationError(f"probabilities sum to {total!r}, off by more than {self.tol}")

    def __getitem__(self, c: Configuration):
        return self.probs[c]

    def __iter__(self):
        return iter(self.probs)

    def items(self):
        return self.probs.items()

    def __len__(self):
        return len(self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteDistribution):
            return NotImplemented
        return (self.volume == other.volume and self.alphabet == other.alphabet
                and all(close(self.probs[c], other.probs[c], max(self.tol, other.tol))
                        for c in self.probs))

    def sup_distance(self, other: "FiniteDistribution"):
        """Max absolute difference over the shared configuration set."""
        if self.volume != other.volume:
            raise DomainError("distributions on different volumes")
        if self.mode == RATIONAL and other.mode == RATIONAL:
            return max(abs(self.probs[c] - other.probs[c]) for c in self.probs)
        return max(abs(float(self.probs[c]) - float(other.probs[c])) for c in self.probs)


def marginalize(p: FiniteDistribution, V: Volume) -> FiniteDistribution:
    """Sum out the sites of p.volume outside V."""
    if not V.issubset(p.volume):
        raise DomainError(f"{V - p.volume} not inside the distribution's volume")
    if V == p.volume:
        return p
    buckets: dict = {}
    for c, prob in p.items():
        key = restrict(c, V)
        buckets.setdefault(key, []).append(prob)
    probs = {c: scalar_sum(vals, p.mode) for c, vals in buckets.items()}
    return FiniteDistribution(V, p.alphabet, probs, p.mode, p.tol)


def is_positive(p: FiniteDistribution) -> bool:
    """True iff every entry is strictly positive (beyond tol in float mode)."""
    if p.mode == RATIONAL:
        return all(v > 0 for v in p.probs.values())
    return all(v > p.tol for v in p.probs.values())


class RandomFieldModel:
    """Provider of exact marginal distributions on sub-volumes of a window.

    Subclasses implement ``marginal`` and may override ``prob`` with a
    closed form; the default reads single entries off the marginal table.
    """

    window: Volume
    alphabet: Alphabet
    mode: str = RATIONAL
    tol: float = DEFAULT_TOL

    def marginal(self, V: Volume) -> FiniteDistribution:
        raise NotImplementedError

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
        self.tol = table.tol
        self._marginals: dict = {table.volume: table}

    def marginal(self, V: Volume) -> FiniteDistribution:
        self._check_volume(V)
        if V not in self._marginals:
            self._marginals[V] = marginalize(self.table, V)
        return self._marginals[V]

    def describe(self) -> str:
        return f"table[{len(self.window)} sites, {self.mode}]"


def table_field(window: Volume, alphabet: Alphabet, probs,
                mode: str = RATIONAL, tol: float = DEFAULT_TOL) -> TableField:
    """Wrap a full probability table as a random field model."""
    if isinstance(probs, FiniteDistribution):
        return TableField(probs)
    return TableField(FiniteDistribution(window, alphabet, probs, mode, tol))


class ProductField(RandomFieldModel):
    """Independent sites, one fixed single-site law everywhere."""

    def __init__(self, window: Volume, alphabet: Alphabet, law: Mapping,
                 mode: str = RATIONAL, tol: float = DEFAULT_TOL):
        self.window = window
        self.alphabet = alphabet
        self.mode = mode
        self.tol = tol
        self.law = {s: to_scalar(law[s], mode) for s in alphabet.symbols}
        total = scalar_sum(self.law.values(), mode)
        if mode == RATIONAL and total != 1 or mode == FLOAT and abs(total - 1) > tol:
            raise ValidationError(f"single-site law sums to {total}")

    def prob(self, c: Configuration):
        self._check_volume(c.volume)
        out = Fraction(1) if self.mode == RATIONAL else 1.0
        for v in c.symbols:
            out *= self.law[v]
        return out

    def marginal(self, V: Volume) -> FiniteDistribution:
        self._check_volume(V)
        probs = {c: self.prob(c) for c in enumerate_configurations(V, self.alphabet)}
        return FiniteDistribution(V, self.alphabet, probs, self.mode, self.tol)

    def describe(self) -> str:
        return f"product[{dict((self.alphabet.name_of(k), str(v)) for k, v in self.law.items())}]"


def check_marginal_consistency(m: RandomFieldModel, S: Volume, V: Volume) -> bool:
    """True iff the marginal of P_S on V equals P_V (exact / within tol)."""
    if not (V.issubset(S) and S.issubset(m.window)):
        raise DomainError("need V inside S inside the window")
    derived = marginalize(m.marginal(S), V)
    direct = m.marginal(V)
    tol = m.tol
    return all(close(derived[c], direct[c], tol) for c in direct)


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
        key = ",".join(p.alphabet.name_of(s) for s in c.symbols)
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
        probs[Configuration(vol, syms)] = parse_scalar(val, mode)
    return FiniteDistribution(vol, alphabet, probs, mode)
