"""Byte-level pin of the validator reports.

The golden file holds the SHA-256 digest of the report JSON of
``validate_tef``, ``validate_1spec`` and ``validate_spec`` on clean and
corrupted inputs, both float (the Ising field at beta 0.4 on 6 sites and
its CRC-chosen x1.5 corruption) and rational (a seeded 5-site table and
one rescaled 1-spec entry), and of the ``validate.json`` that
``gfl validate`` writes, with its exit code, for an Ising chain with
exchange violations, example1 and a table file. The texts, violation
lists included, run to 0.7 MB, so only digests are kept;
``build_reports`` gives the texts. A refactor of the validators must
leave every entry unchanged. Regenerate the file only when a report is
meant to change:

    PYTHONPATH=src python tests/test_validators_golden.py --write
"""

import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from gibbsfields.cli import main
from gibbsfields.fields import seeded_positive_table, write_distribution_file
from gibbsfields.lattice import Configuration, binary_alphabet, line_window
from gibbsfields.specifications import (
    OnePointSpec,
    onepoint_spec_from_model,
    onepoint_spec_from_tef,
    pair_site_fixtures,
    spec_from_model,
    spec_from_onepoint,
    tef_from_1spec,
    validate_1spec,
    validate_spec,
    validate_tef,
    volume_split_fixtures,
)
from test_negative_controls import TOL, corrupted_tef, ising_tef

GOLDEN = Path(__file__).parent / "data" / "validators_golden.json"

CLI_RUNS = (("ising", ["--model", "ising:beta=0.4,d=1,window=6", "--tol", "1e-17"]),
            ("example1", ["--model", "example1"]),
            ("table", ["--model", "table:table.tbl"]))


def _json(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True, default=str)


def rescaled(q: OnePointSpec, site, boundary, factor) -> OnePointSpec:
    """The 1-spec q with the first entry of its table at (site, boundary)
    multiplied by factor, which breaks normalization and exchange."""
    first = q.alphabet.symbols[0]

    def table(t, b):
        out = q.table(t, b)
        if (t if isinstance(t, tuple) else (t,)) == site and b == boundary:
            return {a: factor * p if a == first else p for a, p in out.items()}
        return out

    return OnePointSpec(q.window, q.alphabet, table, q.mode, q.label)


def library_reports() -> dict:
    out = {}

    def validate(name, tef, q, Q, tol):
        fixtures, meta = pair_site_fixtures(q.window, q.alphabet)
        splits, split_meta = volume_split_fixtures(q.window, q.alphabet, 3)
        out[f"{name}/validate_tef.json"] = _json(
            validate_tef(tef, fixtures, tol, meta).to_json_dict())
        out[f"{name}/validate_1spec.json"] = _json(
            validate_1spec(q, fixtures, tol, meta).to_json_dict())
        out[f"{name}/validate_spec.json"] = _json(
            validate_spec(Q, splits, tol, split_meta).to_json_dict())

    ising = ising_tef(0.4)
    for name, tef in (("ising", ising), ("ising-corrupted", corrupted_tef(ising))):
        q = onepoint_spec_from_tef(tef)
        validate(name, tef, q, spec_from_onepoint(q), TOL)

    table = seeded_positive_table(line_window(5), binary_alphabet(), 11)
    q = onepoint_spec_from_model(table)
    validate("table", tef_from_1spec(q), q, spec_from_model(table), None)
    rest = table.window - line_window(1)
    bad = rescaled(q, (0,), Configuration(rest, (1, 0, 1, 1)), Fraction(3, 2))
    validate("table-corrupted", tef_from_1spec(bad), bad, spec_from_onepoint(bad), None)
    return out


def cli_reports() -> dict:
    """validate.json of each CLI run, in a working directory of its own so
    the config embedded in the report names no temporary path."""
    out = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            table = seeded_positive_table(line_window(4), binary_alphabet(), 7)
            write_distribution_file(table.table, Path("table.tbl"))
            for name, argv in CLI_RUNS:
                code = main(["validate", *argv])
                out[f"gfl/{name}/validate.json"] = (f"exit {code}\n"
                                                    + Path("validate.json").read_text())
        finally:
            os.chdir(cwd)
    return out


def build_reports() -> dict:
    """Report name -> exact text of the report."""
    return {**library_reports(), **cli_reports()}


def digests() -> dict:
    return {name: hashlib.sha256(text.encode()).hexdigest()
            for name, text in build_reports().items()}


def test_validator_reports_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(golden)
    for name, digest in got.items():
        assert digest == golden[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
