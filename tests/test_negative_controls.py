"""Negative controls of the two-site validators at extreme inverse
temperatures.

The corrupted energy field rescales about 10% of the (site, boundary)
ratio tables of the beta Ising field on 6 sites. The rescaling keeps every
per-site cocycle law and breaks the exchange law, so ``validate_tef`` and
``validate_1spec`` on its Gibbs form must each report the same number of
exchange violations at every beta, and the clean field must pass both.

At large beta the float comparison hides some violations: its absolute
tolerance swallows products of kernels near 0 (ROADMAP direction 2).
Those cases are strict xfails, so the day they pass the marker must go.

The exact twin is the same control in rational mode, with the coupling
given as lambda = exp(-2 beta): every ratio is a power of lambda, checked
with ``==``, so it counts every violation at every coupling and is the
reference the float control at float(lambda) must meet.
"""

import zlib
from fractions import Fraction

import pytest

from gibbsfields.fields import FLOAT, RATIONAL
from gibbsfields.lattice import line_window, spin_alphabet
from gibbsfields.specifications import (
    OnePointTEF,
    ising_potential,
    onepoint_spec_from_tef,
    pair_site_fixtures,
    tef_from_potential,
    validate_1spec,
    validate_tef,
)

TOL = 1e-12
CONTROL_VIOLATIONS = 340
HIDDEN = "the absolute tolerance hides violations near 0 (ROADMAP direction 2)"


def corrupted_tef(d: OnePointTEF) -> OnePointTEF:
    """``d`` with about 10% of its (site, boundary) ratios rescaled.

    Each chosen ratio is multiplied by 1.5 ** (index(u) - index(x)), which
    keeps every per-site cocycle law but breaks the two-site exchange law.
    The choice is a CRC of the site and boundary text, so it does not
    depend on the hash seed.
    """
    index = {a: i for i, a in enumerate(d.alphabet.symbols)}

    def ratio(t, boundary, x, u):
        value = d.ratio_fn(t, boundary, x, u)
        if zlib.crc32(f"{t}|{boundary}".encode()) % 10 == 0:
            value *= 1.5 ** (index[u] - index[x])
        return value

    return OnePointTEF(d.window, d.alphabet, ratio, FLOAT, TOL, "corrupted")


def ising_tef(beta: float) -> OnePointTEF:
    return tef_from_potential(ising_potential(beta), line_window(6), spin_alphabet())


def counts(d: OnePointTEF) -> tuple:
    """Violations of validate_tef and of validate_1spec on d's Gibbs form."""
    fixtures, meta = pair_site_fixtures(d.window, d.alphabet)
    return (len(validate_tef(d, fixtures, TOL, meta).violations),
            len(validate_1spec(onepoint_spec_from_tef(d), fixtures, TOL, meta).violations))


@pytest.mark.parametrize("beta", [0.01, 0.4, 2.0])
def test_corrupted_field_fails_both_validators(beta):
    fixtures, meta = pair_site_fixtures(line_window(6), spin_alphabet())
    bad = corrupted_tef(ising_tef(beta))
    report = validate_tef(bad, fixtures, TOL, meta)
    assert {v["kind"] for v in report.violations} == {"exchange"}
    assert counts(bad) == (CONTROL_VIOLATIONS, CONTROL_VIOLATIONS)


@pytest.mark.parametrize("beta", [
    pytest.param(4.0, marks=pytest.mark.xfail(strict=True, reason=HIDDEN)),
    pytest.param(8.0, marks=pytest.mark.xfail(strict=True, reason=HIDDEN)),
    pytest.param(20.0, marks=pytest.mark.xfail(strict=True, reason=HIDDEN)),
])
def test_corrupted_field_fails_both_validators_at_large_beta(beta):
    assert counts(corrupted_tef(ising_tef(beta))) == (CONTROL_VIOLATIONS, CONTROL_VIOLATIONS)


@pytest.mark.parametrize("beta", [0.01, 0.4, 2.0, 4.0, 8.0, 20.0])
def test_clean_field_passes_both_validators(beta):
    assert counts(ising_tef(beta)) == (0, 0)


def ising_ratio_tef(lam, corrupt: bool) -> OnePointTEF:
    """The d=1 Ising field on 6 sites as ratios lam ** (-S (x - u) / 2), S the
    neighbour sum in the boundary: exact for a Fraction lam, float for a float.
    Corrupted on corrupted_tef's CRC choice by 3/2 ** (index(u) - index(x))."""
    window, alphabet = line_window(6), spin_alphabet()
    index = {a: i for i, a in enumerate(alphabet.symbols)}
    exact = isinstance(lam, Fraction)
    factor = Fraction(3, 2) if exact else 1.5

    def ratio(t, boundary, x, u):
        (i,) = t
        near = sum(boundary[(j,)] for j in (i - 1, i + 1) if (j,) in boundary.volume)
        value = lam ** (-near * (x - u) // 2)
        if corrupt and zlib.crc32(f"{t}|{boundary}".encode()) % 10 == 0:
            value *= factor ** (index[u] - index[x])
        return value

    return OnePointTEF(window, alphabet, ratio, RATIONAL if exact else FLOAT, TOL, "ising-ratio")


LAMBDAS = [Fraction(1, 3), Fraction(1, 10**4), Fraction(1, 10**7), Fraction(1, 10**17)]


@pytest.mark.parametrize("lam", LAMBDAS, ids=str)
def test_exact_twin_counts_every_violation(lam):
    assert counts(ising_ratio_tef(lam, corrupt=False)) == (0, 0)
    assert counts(ising_ratio_tef(lam, corrupt=True)) == (CONTROL_VIOLATIONS, CONTROL_VIOLATIONS)


@pytest.mark.parametrize("lam", [
    LAMBDAS[0],
    *(pytest.param(lam, marks=pytest.mark.xfail(strict=True, reason=HIDDEN)) for lam in LAMBDAS[1:]),
], ids=str)
def test_float_twin_counts_what_the_exact_twin_counts(lam):
    """At the three small lambdas the float twin counts 324/276, 284/92 and 209/16."""
    assert counts(ising_ratio_tef(float(lam), corrupt=True)) == counts(ising_ratio_tef(lam, corrupt=True))
