import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gibbsfields
from gibbsfields.cli import main, reproduce_example1, reproduce_example2
from gibbsfields.fields import seeded_positive_table, write_distribution_file
from gibbsfields.lattice import binary_alphabet, line_window


# The directory holding the gibbsfields package this process imported,
# whether that is a source checkout's src/ or an install's site-packages.
PACKAGE_ROOT = str(Path(gibbsfields.__file__).resolve().parent.parent)


def run_cli(*argv, env):
    """Run `gfl` in a fresh interpreter whose environment is exactly `env`
    plus PYTHONPATH pointing at the package under test."""
    cmd = [sys.executable, "-m", "gibbsfields.cli", *argv]
    child_env = {**env, "PYTHONPATH": PACKAGE_ROOT}
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env)


def write_table(tmp_path, seed=5, corrupt=False):
    m = seeded_positive_table(line_window(3), binary_alphabet(), seed)
    path = tmp_path / ("corrupt.tbl" if corrupt else "table.tbl")
    write_distribution_file(m.table, path)
    if corrupt:
        lines = path.read_text().splitlines()
        body = lines[3].split("\t")
        num, den = body[1].split("/")
        lines[3] = f"{body[0]}\t{int(num) + int(den)}/{den}"
        path.write_text("\n".join(lines) + "\n")
    return path


def test_validate_exit_codes(tmp_path):
    good = write_table(tmp_path)
    assert main(["validate", "--model", f"table:{good}", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"] is True
    assert {r["axiom"] for r in report["reports"]} >= {
        "marginal-consistency", "pair-consistency", "one-point-consistency"}

    bad = write_table(tmp_path, corrupt=True)
    assert main(["validate", "--model", f"table:{bad}", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"] is False
    assert report["reports"][0]["violations"]


def test_validate_ising_and_example1(tmp_path):
    assert main(["validate", "--model", "ising:beta=0.4,d=1,window=7",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    axioms = {r["axiom"] for r in report["reports"]}
    assert axioms == {"energy-field-axioms", "one-point-exchange",
                      "specification-consistency", "gibbs-spec-coherence"}
    assert main(["validate", "--model", "example1:N=6,c=1/2,kappa=1/2",
                 "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("beta", ["3.0", "8.0"])
def test_validate_strong_coupling_has_no_null_condition(tmp_path, beta):
    """Some boundaries of a strongly coupled Ising window have float
    probabilities near 1e-16; they are small, not null."""
    assert main(["validate", "--model", f"ising:beta={beta},d=1,window=7",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"] is True
    assert len(report["reports"]) == 4
    assert all(not r["violations"] for r in report["reports"])


def test_diagnose_exit_codes(tmp_path):
    assert main(["diagnose", "--model", "ising:beta=0.4,window=9",
                 "--out", str(tmp_path)]) == 0
    assert main(["diagnose", "--model", "example2:tau=1,window=325",
                 "--out", str(tmp_path)]) == 2
    report = json.loads((tmp_path / "diagnose.json").read_text())
    assert report["verdict"] == "divergence-witness"
    assert report["witness"]["generator"].startswith("oscillating")
    assert (tmp_path / "diagnose.csv").exists()
    assert main(["diagnose", "--model", "bernoulli:p=1/2,window=9",
                 "--out", str(tmp_path)]) == 0
    # tiny window cannot run the full battery: inconclusive
    assert main(["diagnose", "--model", "example2:tau=1,window=13",
                 "--family", "constants", "--out", str(tmp_path)]) == 3


def test_reproduce_checks(tmp_path):
    assert main(["reproduce", "example1", "--check", "--out", str(tmp_path)]) == 0
    assert main(["reproduce", "example2", "--check", "--out", str(tmp_path)]) == 0
    assert main(["reproduce", "example2", "--tau", "2", "--out", str(tmp_path)]) == 0
    fresh = json.loads((tmp_path / "reproduce_example2.json").read_text())
    assert fresh["tau"] == 2
    by_key = {(row["size"], row["ones"]): row["up_prob"]
              for row in fresh["conditionals"]}
    assert Fraction(by_key[(4, 2)]) == Fraction(2 + 2, 4 + 3)


def test_reproduce_golden_content():
    r1 = reproduce_example1()
    assert r1["unit_case_up_up"] == "9/10"
    assert r1["kernels_coincide"] is True
    assert r1["marginal_consistency"] == "pass"
    # k_1 = (1/2)^8 = 1/256, so the initial law is (1 + 1/256)/2
    assert r1["initial_law_plus_up"] == "257/512"

    r2 = reproduce_example2()
    assert r2["conditional_formula_matches"] is True
    rows = {(h["density"], h["symbol"]): h["H"] for h in r2["limiting_hamiltonian"]}
    assert rows[("0", 0)] == "0"
    assert rows[("0", 1)] == "+inf"
    assert rows[("1", 0)] == "+inf"
    assert float(rows[("1/2", 1)]) == pytest.approx(0.6931471805599453)


def test_energy_command(tmp_path):
    assert main(["energy", "--model", "example2:tau=1,window=9",
                 "--target", "(0)", "--boundary", "(1)=1;(2)=0",
                 "--out", str(tmp_path)]) == 0
    text = (tmp_path / "energy.txt").read_text()
    assert "1/1" in text
    payload = json.loads((tmp_path / "energy.json").read_text())
    assert payload["energy_ratios"]["1|0"] == "1/1"
    assert (tmp_path / "hamiltonian.txt").exists()


def test_reconstruct_command(tmp_path):
    table = write_table(tmp_path, seed=11)
    assert main(["reconstruct", "--table", str(table), "--target", "(0);(1)",
                 "--condition", "(-1)=1", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "reconstruct.json").read_text())
    assert payload["agree"] is True
    assert payload["direct"] == payload["reconstructed"]


def test_config_file_and_override(tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text("model=bernoulli:p=1/2,window=9\nseed=7\nout=" + str(tmp_path) + "\n")
    assert main(["diagnose", "--config", str(config)]) == 0
    report = json.loads((tmp_path / "diagnose.json").read_text())
    assert report["config"]["seed"] == "7"
    assert report["config"]["model"].startswith("bernoulli")
    # CLI flag overrides the file
    assert main(["diagnose", "--config", str(config), "--seed", "9"]) == 0
    report = json.loads((tmp_path / "diagnose.json").read_text())
    assert report["config"]["seed"] == "9"


@pytest.mark.parametrize("line", ["mode=float", "threads=2", "axioms=all"])
def test_unknown_config_keys_are_rejected(tmp_path, capsys, line):
    """A config key that no command reads stops the run with exit code 4
    and one stderr line naming it, before any report is written."""
    config = tmp_path / "exp.cfg"
    config.write_text(f"model=bernoulli:p=1/2,window=5\n{line}\nout={tmp_path}\n")
    assert main(["validate", "--config", str(config)]) == 4
    key = line.partition("=")[0]
    assert capsys.readouterr().err.splitlines() == [
        f"gfl validate: ValueError: unknown config key {key!r} in {config}"]
    assert not (tmp_path / "validate.json").exists()


def test_reports_identical_across_threads_and_processes(tmp_path):
    """Rational-mode reports must be byte-identical across interpreter runs
    (different hash seeds)."""
    outputs = []
    for hashseed in ("0", "12345"):
        out_dir = tmp_path / f"run_{hashseed}"
        env = {"PATH": "/usr/bin:/bin", "PYTHONHASHSEED": hashseed}
        result = run_cli("diagnose", "--model", "example2:tau=1,window=325",
                         "--out", str(out_dir), env=env)
        assert result.returncode == 2, result.stderr
        payload = json.loads((out_dir / "diagnose.json").read_text())
        payload["config"].pop("out")
        outputs.append(json.dumps(payload, sort_keys=True))
    assert outputs[0] == outputs[1]


def test_enum_cap_env(tmp_path):
    table = write_table(tmp_path, seed=3)
    env = {"PATH": "/usr/bin:/bin", "GFL_ENUM_CAP": "4"}
    result = run_cli("validate", "--model", f"table:{table}", "--out",
                     str(tmp_path), env=env)
    assert result.returncode == 1
    assert "cap" in result.stdout + result.stderr
    # the cap is reported as a model-load failure, not a crash
    assert "Traceback" not in result.stderr
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"] is False
    [load] = [r for r in report["reports"] if r["axiom"] == "model-load"]
    assert any("exceeds cap 4" in v for v in load["violations"])


def test_library_errors_exit_4_without_traceback(tmp_path):
    """A library error ends the command with exit code 4 and one line on
    stderr naming the command and the error type."""
    table = write_table(tmp_path, seed=3)
    argv = ("reconstruct", "--table", str(table), "--target", "(0);(1)",
            "--out", str(tmp_path))
    outside = run_cli(*argv, "--condition", "(2)=1", env={"PATH": "/usr/bin:/bin"})
    capped = run_cli(*argv, "--condition", "(-1)=1",
                     env={"PATH": "/usr/bin:/bin", "GFL_ENUM_CAP": "4"})
    for result, error in ((outside, "DomainError"), (capped, "CapacityError")):
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith(f"gfl reconstruct: {error}: ")


@pytest.mark.parametrize("flag", [["--threads", "2"], ["--mode", "float"],
                                  ["--axioms", "all"]])
def test_removed_flags_are_rejected(flag):
    with pytest.raises(SystemExit) as exc:
        main(["validate", "--model", "bernoulli:p=1/2,window=5", *flag])
    assert exc.value.code == 2
