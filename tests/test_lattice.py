import copy
import pickle
import subprocess
import sys
from dataclasses import FrozenInstanceError
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsfields import lattice
from gibbsfields.fields import ConditionalKernel
from gibbsfields.lattice import (
    Alphabet,
    CapacityError,
    Configuration,
    DomainError,
    EMPTY_CONFIGURATION,
    Filtration,
    Volume,
    binary_alphabet,
    box_filtration,
    box_volume,
    concat,
    configuration,
    enumerate_configurations,
    format_configuration,
    grid_window,
    line_window,
    nearest_neighbor_system,
    parse_configuration,
    restrict,
    spin_alphabet,
    split_positions,
    volume,
)


def test_volume_canonical_order_and_dedup():
    v = Volume.of([3, 1, 2, 1])
    assert v.sites == ((1,), (2,), (3,))
    assert (2,) in v and (5,) not in v


def test_volume_mixed_dimension_rejected():
    with pytest.raises(ValueError):
        Volume.of([(0,), (0, 1)])


def test_volume_set_operations():
    a, b = volume(0, 1, 2), volume(2, 3)
    assert (a | b).sites == ((0,), (1,), (2,), (3,))
    assert (a - b).sites == ((0,), (1,))
    assert (a & b).sites == ((2,),)
    assert b.issubset(a | b) and not a.issubset(b)


def test_subset_tests_agree_with_sets_and_keep_a_set_only_for_the_container():
    vols = [Volume.of(s) for s in ([], [0], [0, 1], [1, 2], [0, 1, 2], [3])]
    for a in vols:
        for b in vols:
            A, B = set(a.sites), set(b.sites)
            assert a.issubset(b) == (A <= B) and a.isdisjoint(b) == A.isdisjoint(B)
            assert (a - b).sites == tuple(sorted(A - B)) and (a & b).sites == tuple(sorted(A & B))
    part, whole = Volume.of([(40, 1)]), Volume.of([(40, 1), (40, 2)])
    assert part._set is None and whole._set is None
    assert part.issubset(whole) and (part - whole).sites == ()
    assert whole._set == frozenset(whole.sites) and part._set is None
    fresh = Volume.of([(41, 1)])
    assert fresh.isdisjoint(whole) and fresh._set is None
    # a kernel tests its condition's volume against its target: only the target keeps a set
    target, condition = Volume.of([(42, 1)]), Configuration(Volume.of([(42, 0), (42, 2)]), (0, 1))
    ConditionalKernel(target, condition, {Configuration(target, (0,)): 1})
    assert condition.volume._set is None and target._set == frozenset(target.sites)
    with pytest.raises(DomainError):
        ConditionalKernel(condition.volume, condition, {})


def test_volumes_and_configurations_are_slotted_frozen_values():
    """Caches hold many of both, so they carry no per-instance dict."""
    v = Volume.of([1, 0])
    c = Configuration(v, (1, 0))
    for obj in (v, c, EMPTY_CONFIGURATION, Volume.empty()):
        assert not hasattr(obj, "__dict__")
        # Python 3.11 raises TypeError for a name that is not a field
        with pytest.raises((AttributeError, TypeError)):
            obj.extra = 1
    with pytest.raises(FrozenInstanceError):
        c.symbols = (0, 0)
    twin = Configuration(Volume.of([0, 1]), (1, 0))
    assert twin == c and twin is not c and hash(twin) == hash(c)
    assert Volume.of([0, 1]) == v and hash(Volume.of([0, 1])) == hash(v)
    assert {c: "kept"}[twin] == "kept"
    assert Configuration(v, (0, 1)) != c and Volume.of([0, 2]) != v


def test_equal_values_hash_equal_and_differ_from_other_types():
    v, twin_v = Volume.of([(0, 1), (2, 3)]), Volume(((0, 1), (2, 3)))
    c, twin_c = Configuration(v, ("a", "b")), Configuration(twin_v, ("a", "b"))
    assert Volume(tuple(v.sites)) is v and twin_v is v and hash(v) == hash(twin_v)
    assert c is not twin_c and c == twin_c and hash(c) == hash(twin_c)
    assert c != Configuration(v, ("b", "a"))
    assert c != Configuration(volume((0, 1), (2, 4)), ("a", "b"))
    for value, tup in ((v, v.sites), (c, c.symbols), (EMPTY_CONFIGURATION, ())):
        assert value != tup and not value == tup and value != "x" and value != object()
    assert v != c and c != v


def test_pickle_keeps_equality_and_hash():
    v = Volume.of([(0, 1), (2, 3)])
    for value in (v, Volume.empty(), EMPTY_CONFIGURATION, Configuration(v, (1, -1)),
                  Configuration(v, ("up", "down"))):
        again = pickle.loads(pickle.dumps(value))
        assert again == value and hash(again) == hash(value)
        assert {value: "kept"}[again] == "kept"


def test_a_pickled_or_copied_volume_loads_as_the_live_one():
    v = Volume.of([(0, 1), (2, 3)])
    for volume_ in (v, Volume.empty()):
        assert pickle.loads(pickle.dumps(volume_)) is volume_
        assert copy.deepcopy(volume_) is volume_ and copy.copy(volume_) is volume_
    c = pickle.loads(pickle.dumps(Configuration(v, (1, -1))))
    assert c.volume is v and copy.deepcopy(c).volume is v


def test_throwaway_volumes_leave_the_intern_table_as_it_was():
    held = Volume.of([0, 1])
    before = len(lattice._VOLUMES)
    for i in range(10**5):
        Volume(((i, -7),))
    assert len(lattice._VOLUMES) == before
    assert Volume(((0,), (1,))) is held


def test_a_pickle_from_another_hash_seed_finds_its_fresh_twin():
    """A hash stored by one interpreter must not be reused by another: a
    configuration on string symbols, hashed and pickled under one
    PYTHONHASHSEED, is found as a dict key next to a fresh twin built
    under another, and the other way round."""
    v = Volume.of([0, 1])
    c = Configuration(v, ("up", "down"))
    payload = pickle.dumps({v: "v", c: "c"})  # both keys hashed before pickling
    child = (
        "import pickle, sys\n"
        "from gibbsfields.lattice import Configuration, Volume\n"
        "loaded = pickle.loads(sys.stdin.buffer.read())\n"
        "v = Volume.of([0, 1])\n"
        "c = Configuration(v, ('up', 'down'))\n"
        "assert loaded[v] == 'v' and loaded[c] == 'c'\n"
        "fresh = {v: 'v', c: 'c'}\n"
        "assert all(fresh[key] == value for key, value in loaded.items())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("1", "12345"):
        result = subprocess.run([sys.executable, "-c", child], input=payload,
                                capture_output=True,
                                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src,
                                     "PYTHONHASHSEED": seed, "PYTHONDONTWRITEBYTECODE": "1"})
        assert result.returncode == 0, result.stderr.decode()


def test_an_alphabet_hashes_once_and_pickles_and_copies_by_value():
    """Equal alphabets hash equal, and the hash made with the alphabet is that
    of its symbols and names; a pickled or copied alphabet equals it and finds
    its dict entries, also when pickled under another PYTHONHASHSEED."""
    a, twin = Alphabet.of(("up", "down")), Alphabet(("up", "down"), ("up", "down"))
    assert a == twin and hash(a) == hash(twin) == hash((a.symbols, a.names))
    assert a != Alphabet.of(("up", "down"), ("u", "d")) and a != spin_alphabet()
    for again in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert again == a and hash(again) == hash(a) and {a: "kept"}[again] == "kept"
        assert repr(again) == repr(a) == "Alphabet(symbols=('up', 'down'), names=('up', 'down'))"
    child = ("import pickle, sys\n"
             "from gibbsfields.lattice import Alphabet\n"
             "sys.stdout.buffer.write(pickle.dumps({Alphabet.of(('up', 'down')): 'a'}))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    for seed in ("1", "12345"):
        result = subprocess.run([sys.executable, "-c", child], capture_output=True, check=True,
                                env={"PATH": "/usr/bin:/bin", "PYTHONPATH": src,
                                     "PYTHONHASHSEED": seed, "PYTHONDONTWRITEBYTECODE": "1"})
        assert pickle.loads(result.stdout)[a] == "a"


def test_concat_basic_and_empty():
    a = configuration({1: 1})
    b = configuration({2: -1})
    joined = concat(a, b)
    assert joined[(1,)] == 1 and joined[(2,)] == -1
    assert concat(a, EMPTY_CONFIGURATION) == a


def test_concat_gives_one_union_object_per_site_tuple():
    a, b, c = configuration({1: 1}), configuration({2: -1}), configuration({3: 1})
    left = concat(a, concat(b, c))
    right = concat(concat(a, b), c)
    assert left.volume is right.volume
    assert concat(c, concat(a, b)).volume is left.volume
    assert left.volume is Volume.of([1, 2, 3])


def test_concat_overlap_rejected():
    a = configuration({1: 1})
    with pytest.raises(DomainError):
        concat(a, configuration({1: -1}))


def test_restrict_identity_and_error():
    c = configuration({1: 1, 2: -1})
    assert restrict(c, c.volume) == c
    assert restrict(c, volume(2)) == configuration({2: -1})
    with pytest.raises(DomainError):
        restrict(c, volume(3))


@given(st.integers(1, 5), st.integers(0, 2**10 - 1), st.integers(0, 2**10 - 1))
def test_partition_identity(n_sites, value_bits, split_bits):
    """concat(restrict(c,T), restrict(c,V\\T)) == c for any split."""
    V = Volume.of(range(n_sites))
    symbols = tuple((value_bits >> i) & 1 for i in range(n_sites))
    c = Configuration(V, symbols)
    T = Volume.of([s for i, s in enumerate(V) if (split_bits >> i) & 1])
    assert concat(restrict(c, T), restrict(c, V - T)) == c


def naive_concat(a, b):
    """The per-entry join: sort the (site, symbol) pairs of both sides."""
    merged = sorted(list(a.items()) + list(b.items()))
    return Configuration(Volume(tuple(s for s, _ in merged)), tuple(v for _, v in merged))


@st.composite
def split_configurations(draw):
    """Configurations a, b on disjoint random 1-D or 2-D volumes, and a
    sub-volume T of their union."""
    dim = draw(st.sampled_from([1, 2]))
    coords = st.tuples(*[st.integers(-3, 3)] * dim)
    sites = draw(st.lists(coords, unique=True, max_size=8))
    parts = draw(st.lists(st.sampled_from("abx"), min_size=len(sites),
                          max_size=len(sites)))
    symbols = {s: draw(st.sampled_from([-1, 1])) for s in sites}
    a = configuration({s: symbols[s] for s, p in zip(sites, parts) if p == "a"})
    b = configuration({s: symbols[s] for s, p in zip(sites, parts) if p == "b"})
    union = a.volume | b.volume
    T = Volume(tuple(s for s in union if draw(st.booleans())))
    return a, b, T


@given(split_configurations())
def test_index_maps_match_the_per_entry_reference(case):
    a, b, T = case
    joined = concat(a, b)
    assert joined == naive_concat(a, b)
    assert restrict(joined, T) == Configuration(T, tuple(joined[s] for s in T))
    # a volume rebuilt from its sites is the live one, and reads the same maps
    a2 = Configuration(Volume(tuple(a.volume.sites)), a.symbols)
    T2 = Volume(tuple(T.sites))
    assert a2.volume is a.volume and T2 is T
    assert concat(a2, b) == joined
    assert restrict(joined, T2) == restrict(joined, T)


@st.composite
def code_layouts(draw):
    """A layout of at most 6 distinct 1-D or 2-D sites, a subset of it in
    any order, and an alphabet of 2 or 3 symbols."""
    dim = draw(st.sampled_from([1, 2]))
    coords = st.tuples(*[st.integers(-2, 2)] * dim)
    layout = Volume.of(draw(st.lists(coords, unique=True, min_size=1, max_size=6)))
    sites = draw(st.permutations(layout.sites))[:draw(st.integers(0, len(layout)))]
    return layout, tuple(sites), draw(st.sampled_from([binary_alphabet(),
                                                        Alphabet.of(("a", "b", "c"))]))


@settings(derandomize=True)
@given(code_layouts())
def test_digit_codes_are_enumeration_positions(case):
    """Each code is the position, in the enumeration of the layout, of the
    configuration holding the subset's symbols there and the first symbol
    elsewhere."""
    layout, sites, alphabet = case
    order = enumerate_configurations(layout, alphabet)
    codes = lattice._digit_codes(layout, sites, alphabet.size)
    assert len(codes) == alphabet.size ** len(sites)
    first = alphabet.symbols[0]
    for code, symbols in zip(codes, product(alphabet.symbols, repeat=len(sites))):
        held = dict(zip(sites, symbols))
        c = Configuration(layout, tuple(held.get(s, first) for s in layout))
        assert code == order.index(c)


def test_index_map_errors_are_not_cached():
    a = configuration({(0, 0): 1, (0, 1): -1})
    b = configuration({(1, 0): 1})
    clash = configuration({(0, 1): 1, (2, 2): -1})
    assert concat(a, b).volume == Volume.of([(0, 0), (0, 1), (1, 0)])
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^domains overlap on \(0,1\)$"):
            concat(a, clash)
    assert restrict(a, Volume.of([(0, 1)])) == configuration({(0, 1): -1})
    for _ in range(2):
        with pytest.raises(DomainError,
                           match=r"^\(2,2\) not in the configuration's domain$"):
            restrict(a, Volume.of([(0, 1), (2, 2)]))


@given(split_configurations(), st.sampled_from([binary_alphabet(), Alphabet.of((0, 1, 2))]))
def test_split_positions_locate_the_joined_configurations(split, alphabet):
    """Row k, column i of a split's map is where concat(x_i, y_k) stands in
    the enumeration of V, on 1-D and 2-D volumes."""
    a, b, I = split
    V = a.volume | b.volume
    configs = enumerate_configurations(V, alphabet)
    xs = enumerate_configurations(I, alphabet)
    configs_V, xs_I, ys, rows = split_positions(V, I, alphabet)
    assert (configs_V, xs_I) == (configs, xs)
    assert ys == enumerate_configurations(V - I, alphabet)
    assert len(rows) == len(ys)
    for y, row in zip(ys, rows):
        assert [configs[n] for n in row] == [concat(x, y) for x in xs]


def test_split_position_errors_are_not_cached():
    V = Volume.of([(0, 0), (0, 1)])
    outside = Volume.of([(0, 1), (2, 2)])
    for _ in range(2):
        with pytest.raises(DomainError, match=r"^\(2,2\) not in the split volume$"):
            split_positions(V, outside, binary_alphabet())
    assert split_positions(V, Volume.of([(0, 1)]), binary_alphabet())[3] == ((0, 1), (2, 3))


def test_enumerate_counts_and_order():
    alpha = binary_alphabet()
    one = enumerate_configurations(volume(0), alpha)
    assert [c.symbols for c in one] == [(0,), (1,)]
    three = enumerate_configurations(volume(0, 1, 2), alpha)
    assert len(three) == 8
    assert len(set(three)) == 8
    tri = enumerate_configurations(volume(0, 1), spin_alphabet())
    assert len(tri) == 4
    assert tri[0].symbols == (-1, -1)


def test_enumerate_ternary_first_element():
    from gibbsfields.lattice import Alphabet

    alpha = Alphabet.of(("a", "b", "c"))
    configs = enumerate_configurations(volume(0, 1), alpha)
    assert len(configs) == 9
    assert configs[0].symbols == ("a", "a")


def test_enumeration_cap(monkeypatch):
    monkeypatch.setenv("GFL_ENUM_CAP", "4")
    with pytest.raises(CapacityError, match="8"):
        enumerate_configurations(volume(0, 1, 2), binary_alphabet())


def test_the_cap_is_read_on_every_public_enumeration(monkeypatch):
    """A cap set after a volume was enumerated, and its enumeration cached,
    still stops the next public call on that volume."""
    V, alphabet = volume(0, 1, 2), binary_alphabet()
    monkeypatch.delenv("GFL_ENUM_CAP", raising=False)
    assert len(enumerate_configurations(V, alphabet)) == 8
    monkeypatch.setenv("GFL_ENUM_CAP", "4")
    with pytest.raises(CapacityError, match="8 configurations exceeds cap 4"):
        enumerate_configurations(V, alphabet)


def test_box_filtration_1d_and_2d():
    f = box_filtration(0, [1, 2])
    assert f[0].sites == ((-1,), (0,), (1,))
    assert len(f[1]) == 5
    assert f[0].issubset(f[1])
    assert len(box_volume((0, 0), 1)) == 9


def test_box_filtration_rejects_non_increasing():
    with pytest.raises(ValueError):
        box_filtration(0, [2, 2])


def test_filtration_strictness():
    with pytest.raises(ValueError):
        Filtration((volume(0, 1), volume(0, 1)))
    with pytest.raises(ValueError):
        Filtration((volume(0, 1), volume(2, 3, 4)))


def test_windows():
    assert len(line_window(9)) == 9 and (0,) in line_window(9)
    assert len(grid_window(3, 3)) == 9 and (0, 0) in grid_window(3, 3)


def test_nearest_neighbor_symmetry():
    system = nearest_neighbor_system(grid_window(3, 3))
    system.validate()
    corner = system.volume_at((-1, -1))
    assert len(corner) == 2
    center = system.volume_at((0, 0))
    assert len(center) == 4
    assert (0, 0) not in center


def test_configuration_literals_roundtrip():
    alpha = spin_alphabet()
    c = configuration({(0, 0): 1, (0, 1): -1})
    text = format_configuration(c, alpha)
    assert text == "(0,0)=+1;(0,1)=-1"
    assert parse_configuration(text, alpha) == c
    assert parse_configuration("", alpha) == EMPTY_CONFIGURATION


def test_configuration_literal_duplicate_site():
    with pytest.raises(ValueError):
        parse_configuration("(0)=1;(0)=0", binary_alphabet())


def test_unknown_symbol_name_is_named():
    with pytest.raises(DomainError) as err:
        parse_configuration("(0)=1", spin_alphabet())
    assert str(err.value) == "unknown symbol '1'; the alphabet's names are -1, +1"
    assert spin_alphabet().symbol_of("+1") == 1
