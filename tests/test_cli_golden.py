"""Byte-level pin of what `gfl` writes, command by command.

The golden file holds, for each command of the matrix below, its exit
code and the SHA-256 digest of its stdout, of its stderr and of every
file it writes. The matrix covers `validate`, `diagnose`, `energy`,
`reconstruct` and `reproduce` over every model kind, and the error exits
(a 1-site window, beta 80, the divergence witness). Each command runs
in-process through ``cli.main`` from a temporary working directory, with
a relative ``--out`` of its own and ``GFL_ENUM_CAP`` unset, so no path
enters a report. One child interpreter reruns a subset under another
hash seed and must give the same digests. A refactor must leave every
entry unchanged. Regenerate the file only when an output is meant to
change:

    PYTHONPATH=src python tests/test_cli_golden.py --write
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import gibbsfields
from gibbsfields.cli import main
from gibbsfields.fields import (
    FLOAT,
    FiniteDistribution,
    seeded_positive_table,
    write_distribution_file,
)
from gibbsfields.lattice import Alphabet, binary_alphabet, line_window

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
PACKAGE_ROOT = str(Path(gibbsfields.__file__).resolve().parent.parent)

ISING_D1 = tuple(
    (f"validate/ising-b{beta}-w{window}",
     ["validate", "--model", f"ising:beta={beta},d=1,window={window}"])
    for beta in ("0.1", "0.4", "3.0") for window in (4, 5, 6, 7))
PROBE = ["--family", "probe", "--filtration", "intervals:spans=1:1,2:2"]

COMMANDS = dict((
    *ISING_D1,
    ("validate/ising-grid", ["validate", "--model", "ising:beta=0.4,d=2,window=9",
                             "--max-tuples", "2000"]),
    ("validate/example1", ["validate", "--model", "example1"]),
    ("validate/example2", ["validate", "--model", "example2"]),
    ("validate/bernoulli", ["validate", "--model", "bernoulli"]),
    ("validate/table", ["validate", "--model", "table:rational.tbl"]),
    ("validate/float-table", ["validate", "--model", "table:float.tbl"]),
    ("validate/one-site", ["validate", "--model", "ising:window=1"]),
    ("validate/beta80", ["validate", "--model", "ising:beta=80,window=11"]),
    ("diagnose/ising", ["diagnose", "--model", "ising:beta=0.4,window=9"]),
    ("diagnose/example1", ["diagnose", "--model", "example1"]),
    ("diagnose/bernoulli", ["diagnose", "--model", "bernoulli"]),
    ("diagnose/ising-probe", ["diagnose", "--model", "ising:beta=0.4,window=9", *PROBE]),
    ("diagnose/example1-probe", ["diagnose", "--model", "example1", *PROBE]),
    ("diagnose/constants", ["diagnose", "--model", "ising:beta=0.4,window=9",
                            "--family", "constants"]),
    ("diagnose/oscillating", ["diagnose", "--model", "ising:beta=0.4,window=9",
                              "--family", "oscillating"]),
    ("diagnose/witness", ["diagnose", "--model", "example2:tau=1,window=325"]),
    ("energy/rational", ["energy", "--model", "example2:tau=1,window=9",
                         "--target", "(0);(1)", "--boundary", "(-1)=1;(2)=0"]),
    ("energy/float", ["energy", "--model", "ising:beta=0.4,h=0.3,window=7",
                      "--target", "(0);(1)", "--boundary", "(-1)=+1;(2)=-1"]),
    ("energy/gauge", ["energy", "--model", "example2:tau=1,window=9", "--target", "(0);(1)",
                      "--boundary", "(-1)=1;(2)=0", "--gauge", "(0)=1;(1)=0"]),
    ("reconstruct/rational", ["reconstruct", "--table", "rational.tbl",
                              "--target", "(0);(1)", "--condition", "(-1)=1"]),
    ("reconstruct/float", ["reconstruct", "--table", "float.tbl",
                           "--target", "(0);(1)", "--condition", "(2)=0"]),
    ("reconstruct/three-reference", ["reconstruct", "--table", "rational.tbl",
                                     "--target", "(-1);(0);(1)",
                                     "--reference", "(-1)=1;(0)=0;(1)=1"]),
    ("reconstruct/three-condition", ["reconstruct", "--table", "ternary.tbl",
                                     "--target", "(-1);(0);(1)", "--condition", "(2)=c"]),
    ("reproduce/example1", ["reproduce", "example1", "--check"]),
    ("reproduce/example2", ["reproduce", "example2", "--check"]),
    ("reproduce/example2-tau2", ["reproduce", "example2", "--tau", "2"]),
))

# commands the child interpreter reruns under another hash seed
CHILD_SUBSET = ("validate/ising-b0.4-w5", "validate/table", "diagnose/example1-probe",
                "diagnose/witness", "energy/gauge", "reconstruct/three-condition",
                "reproduce/example1")


def write_tables() -> None:
    """The table files that `validate` and `reconstruct` read: a seeded
    rational table on 4 binary sites, its float twin, and a seeded rational
    table on 4 ternary sites."""
    window = line_window(4)
    rational = seeded_positive_table(window, binary_alphabet(), 7).table
    write_distribution_file(rational, Path("rational.tbl"))
    floats = {c: float(p) for c, p in rational.items()}
    floats[next(iter(floats))] += 1.0 - sum(floats.values())
    write_distribution_file(FiniteDistribution(window, rational.alphabet, floats, FLOAT),
                            Path("float.tbl"))
    ternary = seeded_positive_table(window, Alphabet.of(("a", "b", "c")), 13).table
    write_distribution_file(ternary, Path("ternary.tbl"))


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(name: str) -> dict:
    """Exit code and digests of one command, run in the current directory."""
    out = Path("out") / name
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*COMMANDS[name], "--out", str(out)])
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    return {"exit": code,
            "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()),
            "files": {p.relative_to(out).as_posix(): _sha(p.read_bytes()) for p in files}}


def digests(names=tuple(COMMANDS)) -> dict:
    """Command name -> exit code and digests, each command run in-process
    from one fresh temporary working directory with GFL_ENUM_CAP unset."""
    cwd, cap = os.getcwd(), os.environ.pop("GFL_ENUM_CAP", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            write_tables()
            return {name: run_command(name) for name in names}
    finally:
        os.chdir(cwd)
        if cap is not None:
            os.environ["GFL_ENUM_CAP"] = cap


def test_cli_outputs_match_the_golden():
    golden = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(golden)
    for name, entry in got.items():
        assert entry == golden[name], name


def test_another_hash_seed_gives_the_same_digests():
    env = {"PATH": "/usr/bin:/bin", "PYTHONPATH": PACKAGE_ROOT,
           "PYTHONHASHSEED": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, __file__, "--digest", *CHILD_SUBSET],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    golden = json.loads(GOLDEN.read_text())
    assert json.loads(result.stdout) == {name: golden[name] for name in CHILD_SUBSET}


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    elif sys.argv[1:2] == ["--digest"]:
        print(json.dumps(digests(sys.argv[2:])))
    else:
        sys.exit(__doc__)
