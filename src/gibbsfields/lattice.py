"""Sites, volumes, configurations, filtrations and neighborhood systems.

Everything here is an immutable value; all operations are pure. The
infinite lattice is represented only through a finite "window" volume
declared per experiment, and complements are always taken relative to
that window.

The code layout: a table over n sites and k symbols lists configurations by
code, the base-k number of their symbols' alphabet indices, site i of stride
k^(n-1-i). Only ``_digit_codes`` and the operators after it compute codes.
"""

from __future__ import annotations

import os
import weakref
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce
from itertools import product
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Iterator, Mapping, Sequence

Site = tuple  # tuple[int, ...], length = lattice dimension
Symbol = object  # hashable alphabet element, typically a small int

DEFAULT_ENUM_CAP = 2**24


class DomainError(ValueError):
    """A configuration or volume was used outside its domain."""


class CapacityError(RuntimeError):
    """An enumeration would exceed the configured cap."""


class GeometryError(ValueError):
    """A site or volume does not fit the required window geometry."""


def enumeration_cap() -> int:
    """Current enumeration cap; override with env var GFL_ENUM_CAP."""
    raw = os.environ.get("GFL_ENUM_CAP")
    return int(raw) if raw else DEFAULT_ENUM_CAP


def as_site(value) -> Site:
    """Normalize an int or coordinate sequence to a site tuple."""
    if isinstance(value, int):
        return (value,)
    site = tuple(int(c) for c in value)
    if not site:
        raise ValueError("a site needs at least one coordinate")
    return site


# Volumes and configurations fill the kernel and map caches, so both carry
# slots instead of a per-instance dict. A site tuple has one live Volume,
# held weakly in _VOLUMES, so volumes compare by identity and every cache
# lookup on them ends there; a volume hashes its sites once, and a
# configuration combines its symbols' hash with that stored one.
_VOLUMES: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@dataclass(frozen=True, eq=False, init=False)
class Volume:
    """Finite set of lattice sites in canonical (lexicographic) order, one
    live object per site tuple: ``Volume(sites)`` returns it."""

    __slots__ = ("sites", "_hash", "_set", "__weakref__")  # weakref_slot needs Python 3.11
    sites: tuple

    def __new__(cls, sites: tuple) -> "Volume":
        volume = _VOLUMES.get(sites)
        if volume is None:
            volume = _VOLUMES[sites] = object.__new__(cls)
            object.__setattr__(volume, "sites", sites)
            object.__setattr__(volume, "_hash", hash(sites))
            object.__setattr__(volume, "_set", None)
        return volume

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # loads as the live volume; the hash is rebuilt, never carried across interpreters
        return Volume, (self.sites,)

    @staticmethod
    def of(sites: Iterable) -> "Volume":
        canonical = tuple(sorted({as_site(s) for s in sites}))
        dims = {len(s) for s in canonical}
        if len(dims) > 1:
            raise ValueError(f"sites of mixed dimension: {sorted(dims)}")
        return Volume(canonical)

    @staticmethod
    def empty() -> "Volume":
        return _EMPTY_VOLUME

    def __len__(self) -> int:
        return len(self.sites)

    def __bool__(self) -> bool:
        return bool(self.sites)

    def __iter__(self) -> Iterator[Site]:
        return iter(self.sites)

    def __contains__(self, site) -> bool:
        site = as_site(site)
        i = bisect_left(self.sites, site)
        return i < len(self.sites) and self.sites[i] == site

    def index(self, site: Site) -> int:
        i = bisect_left(self.sites, site)
        if i == len(self.sites) or self.sites[i] != site:
            raise KeyError(site)
        return i

    def _site_set(self) -> frozenset:
        """The sites as a frozenset, built the first time this volume is a container."""
        if self._set is None:
            object.__setattr__(self, "_set", frozenset(self.sites))
        return self._set

    def union(self, other: "Volume") -> "Volume":
        return Volume(tuple(sorted(set(self.sites) | set(other.sites))))

    def difference(self, other: "Volume") -> "Volume":
        removed = other._site_set()
        return Volume(tuple(s for s in self.sites if s not in removed))

    def intersection(self, other: "Volume") -> "Volume":
        kept = other._site_set()
        return Volume(tuple(s for s in self.sites if s in kept))

    def issubset(self, other: "Volume") -> bool:
        return other._site_set().issuperset(self.sites)

    def isdisjoint(self, other: "Volume") -> bool:
        return other._site_set().isdisjoint(self.sites)

    __or__ = union
    __sub__ = difference
    __and__ = intersection

    def __str__(self) -> str:
        return ";".join(format_site(s) for s in self.sites)


_EMPTY_VOLUME = Volume(())


def volume(*sites) -> Volume:
    """Shorthand: ``volume(0, 1, 2)`` or ``volume((0, 0), (0, 1))``."""
    return Volume.of(sites)


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite symbol set with a printable name per symbol."""

    symbols: tuple
    names: tuple

    def __post_init__(self):  # hashed once: lru_caches keyed by an alphabet hash it per hit
        object.__setattr__(self, "_hash", hash((self.symbols, self.names)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # the hash is rebuilt, never carried across interpreters
        return Alphabet, (self.symbols, self.names)

    @staticmethod
    def of(symbols: Sequence, names: Sequence[str] | None = None) -> "Alphabet":
        symbols = tuple(symbols)
        if len(set(symbols)) != len(symbols):
            raise ValueError("duplicate symbols")
        if len(symbols) < 2:
            raise ValueError("an alphabet needs at least two symbols")
        names = tuple(str(s) for s in symbols) if names is None else tuple(names)
        if len(names) != len(symbols):
            raise ValueError("names/symbols length mismatch")
        return Alphabet(symbols, names)

    @property
    def size(self) -> int:
        return len(self.symbols)

    def name_of(self, symbol) -> str:
        return self.names[self.symbols.index(symbol)]

    def label_of(self, symbols: Sequence) -> str:
        """The names of a sequence of symbols, joined by commas."""
        return ",".join(self.name_of(s) for s in symbols)

    def symbol_of(self, name: str):
        try:
            return self.symbols[self.names.index(name)]
        except ValueError:
            raise DomainError(f"unknown symbol {name!r}; the alphabet's names are "
                              f"{', '.join(self.names)}") from None


def binary_alphabet() -> Alphabet:
    return Alphabet.of((0, 1))


def spin_alphabet() -> Alphabet:
    return Alphabet.of((-1, 1), ("-1", "+1"))


@dataclass(frozen=True, slots=True)
class Configuration:
    """Assignment of one symbol to each site of a finite volume."""

    volume: Volume
    symbols: tuple  # parallel to volume.sites

    def __post_init__(self):
        if len(self.symbols) != len(self.volume):
            raise ValueError("one symbol per site required")

    # no hash slot: the cached enumerations keep tens of thousands of
    # configurations alive, and a slot plus a boxed int on each raised
    # peak memory by about 5%
    def __hash__(self) -> int:
        return hash((self.symbols, self.volume._hash))

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, site):
        return self.symbols[self.volume.index(as_site(site))]

    def items(self) -> Iterator[tuple]:
        return zip(self.volume.sites, self.symbols)

    def count(self, symbol) -> int:
        return self.symbols.count(symbol)

    def __str__(self) -> str:
        return ";".join(f"{format_site(s)}={v}" for s, v in self.items())


EMPTY_CONFIGURATION = Configuration(Volume.empty(), ())


def configuration(assignment: Mapping) -> Configuration:
    """Build a configuration from a site → symbol mapping."""
    pairs = sorted((as_site(s), v) for s, v in assignment.items())
    return Configuration(Volume(tuple(s for s, _ in pairs)), tuple(v for _, v in pairs))


MAP_CACHE_SIZE = 8192  # volume pairs whose concat/restrict maps are kept


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _concat_map(A: Volume, B: Volume) -> tuple:
    """The union of disjoint volumes, per union site in order its position
    ``take`` in ``A.sites + B.sites``, and the getter of those positions."""
    if not A.isdisjoint(B):
        raise DomainError(f"domains overlap on {A & B}")
    sites = A.sites + B.sites
    take = tuple(sorted(range(len(sites)), key=sites.__getitem__))
    return Volume(tuple(sites[i] for i in take)), take, _getter(take)


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _restrict_map(A: Volume, T: Volume) -> Callable:
    """The getter of the symbols of T's sites, in T's order, from A's symbols."""
    if not T.issubset(A):
        raise DomainError(f"{T - A} not in the configuration's domain")
    return _getter(tuple(A.index(s) for s in T))


def _getter(take: tuple) -> Callable:
    """The tuple of the items at take; itemgetter alone returns a bare item for one position."""
    if len(take) > 1:
        return itemgetter(*take)
    return (lambda held: (held[take[0]],)) if take else (lambda held: ())


def concat(a: Configuration, b: Configuration) -> Configuration:
    """Join two configurations on disjoint volumes into one on the union."""
    union, _, get = _concat_map(a.volume, b.volume)
    return Configuration(union, get(a.symbols + b.symbols))


def restrict(c: Configuration, T: Volume) -> Configuration:
    """Restriction of a configuration to a sub-volume."""
    return Configuration(T, _restrict_map(c.volume, T)(c.symbols))


@lru_cache(maxsize=MAP_CACHE_SIZE)
def split_positions(V: Volume, I: Volume, alphabet: Alphabet) -> tuple:
    """Enumerations of a split of V and the positions of its joined
    configurations.

    For I inside V, returns (configs, xs, ys, rows): the enumerations of
    V, I and V \\ I, and ``rows[k][i]``, the position of
    ``concat(xs[i], ys[k])`` in configs.
    """
    if not I.issubset(V):
        raise DomainError(f"{I - V} not in the split volume")
    rest = V - I
    xs, ys = enumerate_configurations(I, alphabet), enumerate_configurations(rest, alphabet)
    codes = _digit_codes(V, (*rest, *I), alphabet.size)  # y the outer digits, x the inner
    rows = tuple(tuple(codes[n:n + len(xs)]) for n in range(0, len(codes), len(xs)))
    return enumerate_configurations(V, alphabet), xs, ys, rows


def _digit_codes(layout: Iterable, sites: Iterable, k: int) -> list:
    """For each configuration on sites, enumerated site by site, its code
    (position in ``enumerate_configurations`` order) over layout, every other
    site at the first symbol. With sites as the outer digits and the rest as
    the inner ones, each configuration on sites owns one contiguous slice."""
    position = {s: i for i, s in enumerate(layout)}
    n = len(position)
    codes = [0]
    for s in sites:
        w = k ** (n - 1 - position[s])
        codes = [c + d for c in codes for d in range(0, k * w, w)]
    return codes


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


def _spread(values: list, lo: int, hi: int, n: int, k: int) -> list:
    """The column over the codes of n digits holding values at each code's digits lo..hi."""
    return [v for v in values for _ in range(k ** (n - 1 - hi))] * k ** lo


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _union_plan(V: Volume, condition: Volume, alphabet: Alphabet) -> tuple:
    """The union, the strides of its condition sites and the codes of V's configurations."""
    union = _concat_map(condition, V)[0]
    k = alphabet.size
    strides = tuple(_digit_codes(union, (s,), k)[1] for s in condition)
    return union, strides, tuple(_digit_codes(union, V, k))


def _code_plan(V: Volume, z: Configuration, alphabet: Alphabet) -> tuple:
    """(union, base, offsets): x z, x the j-th configuration on V, has union code base + offsets[j]."""
    union, strides, offsets = _union_plan(V, z.volume, alphabet)
    return union, sum(map(mul, map(alphabet.symbols.index, z.symbols), strides)), offsets


class _IndexedTuple(tuple):
    """A tuple of distinct items whose ``position`` dict, item -> index, is built on
    first lookup. Every enumeration is one, so all tables over it share the dict."""

    @cached_property
    def position(self) -> dict:
        return {c: i for i, c in enumerate(self)}


@lru_cache(maxsize=MAP_CACHE_SIZE)
def _enumerate(volume: Volume, alphabet: Alphabet) -> _IndexedTuple:
    return _IndexedTuple(
        Configuration(volume, symbols)
        for symbols in product(alphabet.symbols, repeat=len(volume))
    )


def enumerate_configurations(volume: Volume, alphabet: Alphabet) -> tuple:
    """All configurations on the volume, lexicographic in site-major order.

    The first configuration assigns the alphabet's first symbol everywhere.
    Raises CapacityError when the count would exceed the enumeration cap,
    which every call reads anew. Cached plans built on an enumeration
    (``split_positions``, ``conditionals._factor_plans``) read it once, when
    they are built, and then hand out their enumerations without reading it.
    """
    count = alphabet.size ** len(volume)
    cap = enumeration_cap()
    if count > cap:
        raise CapacityError(
            f"enumeration of {count} configurations exceeds cap {cap}"
        )
    return _enumerate(volume, alphabet)


@dataclass(frozen=True)
class Filtration:
    """Strictly increasing sequence of finite volumes; union is the window."""

    volumes: tuple

    def __post_init__(self):
        if not self.volumes:
            raise ValueError("a filtration needs at least one stage")
        for a, b in zip(self.volumes, self.volumes[1:]):
            if not (a.issubset(b) and len(a) < len(b)):
                raise ValueError("stages must strictly increase by inclusion")

    @property
    def window(self) -> Volume:
        return self.volumes[-1]

    def __len__(self) -> int:
        return len(self.volumes)

    def __iter__(self) -> Iterator[Volume]:
        return iter(self.volumes)

    def __getitem__(self, n: int) -> Volume:
        return self.volumes[n]


def box_volume(center, radius: int, window: Volume | None = None) -> Volume:
    """L-infinity ball of the given radius around a center site."""
    center = as_site(center)
    ranges = [range(c - radius, c + radius + 1) for c in center]
    sites = [tuple(p) for p in product(*ranges)]
    vol = Volume.of(sites)
    if window is not None:
        vol = vol & window
    return vol


def box_filtration(center, radii: Sequence[int], window: Volume | None = None) -> Filtration:
    """Filtration of L-infinity balls with strictly increasing radii."""
    radii = list(radii)
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError(f"radii must strictly increase: {radii}")
    return Filtration(tuple(box_volume(center, r, window) for r in radii))


def interval_filtration(center, spans: Sequence[tuple]) -> Filtration:
    """1D filtration of intervals [center-lo, center+hi] per (lo, hi) span."""
    (c,) = as_site(center)
    stages = []
    for lo, hi in spans:
        stages.append(Volume.of(range(c - lo, c + hi + 1)))
    return Filtration(tuple(stages))


def line_window(n_sites: int, center: int = 0) -> Volume:
    """1D window of n sites, centered (lopsided right for even n)."""
    lo = center - (n_sites - 1) // 2
    return Volume.of(range(lo, lo + n_sites))


def grid_window(nx: int, ny: int) -> Volume:
    """2D window of nx * ny sites around the origin."""
    lox = -(nx - 1) // 2
    loy = -(ny - 1) // 2
    return Volume.of((x, y) for x in range(lox, lox + nx) for y in range(loy, loy + ny))


@dataclass(frozen=True)
class NeighborhoodSystem:
    """Symmetric, irreflexive site → neighbor-volume map."""

    neighbors: tuple  # sorted tuple of (site, Volume) pairs

    @staticmethod
    def of(mapping: Mapping) -> "NeighborhoodSystem":
        items = tuple(sorted((as_site(s), v) for s, v in mapping.items()))
        system = NeighborhoodSystem(items)
        system.validate()
        return system

    def volume_at(self, site) -> Volume:
        site = as_site(site)
        for s, v in self.neighbors:
            if s == site:
                return v
        raise KeyError(site)

    def validate(self) -> None:
        table = dict(self.neighbors)
        for t, vol in self.neighbors:
            if t in vol:
                raise ValueError(f"site {t} is its own neighbor")
            for s in vol:
                if s in table and t not in table[s]:
                    raise ValueError(f"asymmetric neighborhood between {t} and {s}")


def nearest_neighbor_system(window: Volume) -> NeighborhoodSystem:
    """L1-distance-1 neighborhoods, truncated to the window."""
    mapping = {}
    for t in window:
        near = []
        for axis in range(len(t)):
            for step in (-1, 1):
                s = t[:axis] + (t[axis] + step,) + t[axis + 1 :]
                if s in window:
                    near.append(s)
        mapping[t] = Volume.of(near) if near else Volume.empty()
    return NeighborhoodSystem.of(mapping)


def format_site(site: Site) -> str:
    return "(" + ",".join(str(c) for c in site) + ")"


def parse_site(text: str) -> Site:
    text = text.strip()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad site literal: {text!r}")
    return tuple(int(c) for c in text[1:-1].split(","))


def format_configuration(c: Configuration, alphabet: Alphabet) -> str:
    """Render as `site=symbol` pairs, e.g. ``(0,0)=+1;(0,1)=-1``."""
    return ";".join(
        f"{format_site(s)}={alphabet.name_of(v)}" for s, v in c.items()
    )


def parse_configuration(text: str, alphabet: Alphabet) -> Configuration:
    text = text.strip()
    if not text:
        return EMPTY_CONFIGURATION
    assignment = {}
    for chunk in text.split(";"):
        lhs, _, rhs = chunk.partition("=")
        site = parse_site(lhs)
        if site in assignment:
            raise ValueError(f"site {lhs.strip()} assigned twice")
        assignment[site] = alphabet.symbol_of(rhs.strip())
    return configuration(assignment)
