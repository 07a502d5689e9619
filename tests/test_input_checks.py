"""Every input check of the library raises its own error type and message.

Each case makes one bad call that no other test makes and asserts the
exact type and ``str`` of what it raises, so a check that is reworded,
retyped or dropped fails here.
"""

import os
from fractions import Fraction

import pytest

from gibbsfields import cli
from gibbsfields.conditionals import check_pair_consistency, reconstruct_from_one_point
from gibbsfields.diagnostics import (
    BoundaryFamily,
    BoundaryGenerator,
    constant_boundaries,
    non_gibbs_witness,
    quasilocality_report,
)
from gibbsfields.energy import check_decomposition, check_hamiltonian_consistency
from gibbsfields.fields import (
    FiniteDistribution,
    ProductField,
    ValidationError,
    read_distribution_file,
    seeded_positive_table,
)
from gibbsfields.lattice import (
    EMPTY_CONFIGURATION,
    Alphabet,
    Configuration,
    DomainError,
    Filtration,
    GeometryError,
    NeighborhoodSystem,
    Volume,
    as_site,
    binary_alphabet,
    box_filtration,
    configuration,
    enumerate_configurations,
    line_window,
    nearest_neighbor_system,
    parse_site,
    volume,
)
from gibbsfields.models import IsingDemoModel, MarkovChainPairModel
from gibbsfields.specifications import (
    OnePointSpec,
    OnePointTEF,
    onepoint_spec_from_model,
    pair_site_fixtures,
    spec_from_onepoint,
    validate_1spec,
    validate_tef,
)

BIN = binary_alphabet()
WINDOW = line_window(3)  # sites -1, 0, 1


def table():
    return seeded_positive_table(WINDOW, BIN, seed=7)


def with_an_extra_key():
    probs = dict.fromkeys(enumerate_configurations(WINDOW, BIN), Fraction(1, 8))
    probs[configuration({(5,): 0})] = Fraction(0)
    return FiniteDistribution(WINDOW, BIN, probs)


def chain(**changes):
    args = {"N": 3, "c": Fraction(1, 2), "kappa": Fraction(1, 2), "sign": 1, **changes}
    return MarkovChainPairModel(**args)


def spec_on_a_wider_window():
    q = onepoint_spec_from_model(seeded_positive_table(line_window(5), BIN, seed=7))
    constants = BoundaryFamily(constant_boundaries(BIN), "constants")
    return quasilocality_report(q, 0, box_filtration((0,), [1]), constants)


def without_symbol_one():
    return OnePointSpec(WINDOW, BIN, lambda t, b: {0: Fraction(1)})


def validate_without_symbol_one():
    return validate_1spec(without_symbol_one(), pair_site_fixtures(WINDOW, BIN)[0])


def validate_without_pair_one_zero():
    d = OnePointTEF(WINDOW, BIN, None, table_fn=lambda t, b: {(0, 0): 1.0, (0, 1): 1.0,
                                                              (1, 1): 1.0})
    return validate_tef(d, pair_site_fixtures(WINDOW, BIN)[0])


def kernel_without_symbol_one():
    return spec_from_onepoint(without_symbol_one()).kernel(volume(0), configuration({-1: 0, 1: 1}))


# name -> (call, error type, message)
INPUT_CHECKS = {
    "cli-model": (lambda: cli.build_model("nosuch:x=1"),
                  ValueError, "unknown model descriptor 'nosuch:x=1'"),
    "cli-filtration": (lambda: cli.build_filtration("spirals:n=2", table()),
                       ValueError, "unknown filtration spec 'spirals:n=2'"),
    "cli-family": (lambda: cli.build_family("nosuch", table(), box_filtration((0,), [1]), 0),
                   ValueError, "unknown family 'nosuch'"),
    "pair-consistency-split": (
        lambda: check_pair_consistency(table(), volume(0, 1), volume(0, 1), EMPTY_CONFIGURATION),
        DomainError, "need a proper nonempty subset I of V"),
    "decomposition-split": (
        lambda: check_decomposition(table(), volume(0), volume(0, 1), EMPTY_CONFIGURATION),
        DomainError, "need disjoint nonempty volumes"),
    "hamiltonian-consistency-split": (
        lambda: check_hamiltonian_consistency(table(), volume(0), Volume.empty(),
                                              EMPTY_CONFIGURATION),
        DomainError, "need disjoint nonempty volumes"),
    "distribution-extra-key": (with_an_extra_key, ValidationError,
                               "probability table keys are not exactly the enumeration"),
    "model-volume": (lambda: table().marginal(volume(0, 4)),
                     DomainError, "(4) outside the model window"),
    "product-law-sum": (lambda: ProductField(WINDOW, BIN, {0: "1/2", 1: "1/3"}),
                        ValidationError, "single-site law sums to 5/6"),
    "table-file-header": (lambda: read_distribution_file(os.devnull),
                          ValidationError, "missing volume/alphabet header"),
    "site-coordinates": (lambda: as_site(()), ValueError, "a site needs at least one coordinate"),
    "volume-index": (lambda: WINDOW.index((4,)), KeyError, "(4,)"),
    "alphabet-duplicates": (lambda: Alphabet.of((0, 0)), ValueError, "duplicate symbols"),
    "alphabet-size": (lambda: Alphabet.of((0,)),
                      ValueError, "an alphabet needs at least two symbols"),
    "alphabet-names": (lambda: Alphabet.of((0, 1), ("a",)),
                       ValueError, "names/symbols length mismatch"),
    "configuration-length": (lambda: Configuration(volume(0, 1), (0,)),
                             ValueError, "one symbol per site required"),
    "filtration-empty": (lambda: Filtration(()), ValueError, "a filtration needs at least one stage"),
    "neighbourhood-site": (lambda: nearest_neighbor_system(WINDOW).volume_at(4), KeyError, "(4,)"),
    "neighbourhood-self": (lambda: NeighborhoodSystem.of({0: volume(0)}),
                           ValueError, "site (0,) is its own neighbor"),
    "neighbourhood-symmetry": (lambda: NeighborhoodSystem.of({0: volume(1), 1: Volume.empty()}),
                               ValueError, "asymmetric neighborhood between (0,) and (1,)"),
    "site-literal": (lambda: parse_site("0"), ValueError, "bad site literal: '0'"),
    "chain-couplings": (lambda: chain(c=[Fraction(1, 2)]), ValueError, "need 2 couplings, got 1"),
    "chain-sign": (lambda: chain(sign=0), ValueError, "sign must be +1 or -1"),
    "chain-interior": (lambda: chain().interior_conditional(1, 1, 1),
                       ValueError, "closed form needs an interior site"),
    "ising-dimension": (lambda: IsingDemoModel(0.4, d=3), ValueError, "demo supports d in {1, 2}"),
    "generator-build": (lambda: BoundaryGenerator().configs(volume(0), box_filtration((0,), [1])),
                        NotImplementedError, ""),
    "spec-filtration-window": (spec_on_a_wider_window, GeometryError,
                               "spec evaluation needs the filtration to fill the window"),
    "1spec-missing-symbol": (validate_without_symbol_one, ValidationError,
                             "missing entry for 1 at (-1) under (0)=0;(1)=0"),
    "tef-missing-pair": (validate_without_pair_one_zero, ValidationError,
                         "missing entry for (1, 0) at (-1) under (0)=0;(1)=0"),
    "1spec-kernel-missing-symbol": (kernel_without_symbol_one, ValidationError,
                                    "missing probability for 1 at (0) under (-1)=0;(1)=1"),
    "1spec-pair-kernel-missing-symbol": (
        lambda: spec_from_onepoint(without_symbol_one()).kernel(volume(0, 1),
                                                                configuration({-1: 0})),
        ValidationError, "missing probability for 1 at (0) under (-1)=0;(1)=0"),
    "reconstruction-missing-symbol": (
        lambda: reconstruct_from_one_point(without_symbol_one().table_fn, volume(0, 1),
                                           configuration({-1: 0}), BIN),
        ValidationError, "missing probability for 1 at (0) under (-1)=0;(1)=0"),
    "witness-strategy": (lambda: non_gibbs_witness(table(), 0, box_filtration((0,), [1]),
                                                   strategy="nosuch"),
                         ValueError, "unknown strategy 'nosuch'"),
}


@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_checks_raise_their_type_and_message(name):
    call, error, message = INPUT_CHECKS[name]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
