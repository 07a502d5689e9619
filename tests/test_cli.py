import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import gibbsfields
from gibbsfields import cli
from gibbsfields.cli import CONFIG_KEYS, main, reproduce_example1, reproduce_example2
from gibbsfields.diagnostics import (
    BoundaryFamily,
    oscillating_density_boundary,
    uniform_convergence_report,
)
from gibbsfields.fields import (
    FLOAT,
    FiniteDistribution,
    seeded_positive_table,
    write_distribution_file,
)
from gibbsfields.lattice import (
    binary_alphabet,
    box_filtration,
    enumerate_configurations,
    line_window,
)
from gibbsfields.models import bernoulli_product


# The directory holding the gibbsfields package this process imported,
# whether that is a source checkout's src/ or an install's site-packages.
PACKAGE_ROOT = str(Path(gibbsfields.__file__).resolve().parent.parent)


def run_cli(*argv, env):
    """Run `gfl` in a fresh interpreter whose environment is exactly `env`
    plus PYTHONPATH pointing at the package under test. The child writes
    no bytecode into the checkout."""
    cmd = [sys.executable, "-m", "gibbsfields.cli", *argv]
    child_env = {**env, "PYTHONPATH": PACKAGE_ROOT, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(cmd, capture_output=True, text=True, env=child_env)


def test_closed_stdout_keeps_the_exit_code_and_a_quiet_stderr(tmp_path):
    """`gfl diagnose ... | head -1` with the reader gone at once: the
    command still exits with its verdict's code and writes its report,
    and stderr stays empty (no BrokenPipeError, no exit 4 or 120)."""
    cmd = [sys.executable, "-m", "gibbsfields.cli", "diagnose",
           "--model", "ising:beta=0.4,window=9", "--out", str(tmp_path)]
    env = {"PYTHONPATH": PACKAGE_ROOT, "PYTHONDONTWRITEBYTECODE": "1"}
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    child.stdout.close()
    stderr = child.stderr.read()
    child.stderr.close()
    assert child.wait() == 0
    assert stderr == b""
    assert json.loads((tmp_path / "diagnose.json").read_text())["verdict"] == "uniform-evidence"


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


def test_reproduce_check_fails_without_a_golden_or_on_a_mismatch(tmp_path, monkeypatch,
                                                                 capsys):
    assert main(["reproduce", "example2", "--tau", "2", "--check",
                 "--out", str(tmp_path)]) == 1
    assert "only the default tau=1 report has a golden" in capsys.readouterr().out
    golden = json.loads(cli._golden_path("example1").read_text())
    golden["example"] = "another example"
    changed = tmp_path / "example1.json"
    changed.write_text(json.dumps(golden))
    monkeypatch.setattr(cli, "_golden_path", lambda name: changed)
    assert main(["reproduce", "example1", "--check", "--out", str(tmp_path)]) == 1
    assert "check: MISMATCH in fields ['example']" in capsys.readouterr().out


def test_validate_reports_a_zero_marginal_entry(tmp_path):
    window, alphabet = line_window(3), binary_alphabet()
    configs = enumerate_configurations(window, alphabet)
    probs = {c: Fraction(0) if i == 0 else Fraction(1, 7) for i, c in enumerate(configs)}
    path = tmp_path / "zero.tbl"
    write_distribution_file(FiniteDistribution(window, alphabet, probs), path)
    assert main(["validate", "--model", f"table:{path}", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["reports"][-1]["axiom"] == "positivity"
    assert report["reports"][-1]["violations"] == ["zero marginal entry"]


def test_validate_refuses_a_table_with_a_nan_entry(tmp_path, capsys):
    window, alphabet = line_window(3), binary_alphabet()
    configs = enumerate_configurations(window, alphabet)
    path = tmp_path / "nan.tbl"
    write_distribution_file(FiniteDistribution(window, alphabet, dict.fromkeys(configs, 0.125),
                                               FLOAT), path)
    lines = path.read_text().splitlines()
    lines[5] = lines[5].partition("\t")[0] + "\tnan"  # the third configuration
    path.write_text("\n".join(lines) + "\n")
    assert main(["validate", "--model", f"table:{path}", "--out", str(tmp_path)]) == 1
    assert (f"validate: FAIL (model load: non-finite probability nan at {configs[2]})"
            in capsys.readouterr().out)
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"] is False and [r["axiom"] for r in report["reports"]] == ["model-load"]


# (mode, an entry that does not parse in that mode)
UNPARSABLE_ENTRIES = [("rational", "0.25"), ("rational", "abc"), ("rational", "1/0"),
                      ("float", "abc")]


def write_table_with_entry(tmp_path, mode, entry):
    """A 3-site table file of the mode whose third configuration holds entry;
    returns its path and the message that names it."""
    window, alphabet = line_window(3), binary_alphabet()
    configs = enumerate_configurations(window, alphabet)
    table = (seeded_positive_table(window, alphabet, 5).table if mode == "rational" else
             FiniteDistribution(window, alphabet, dict.fromkeys(configs, 0.125), FLOAT))
    path = tmp_path / f"{mode}.tbl"
    write_distribution_file(table, path)
    lines = path.read_text().splitlines()
    key = lines[5].partition("\t")[0]
    lines[5] = f"{key}\t{entry}"
    path.write_text("\n".join(lines) + "\n")
    return path, f"{path}: entry {key} holds {entry!r}, not a {mode} value"


@pytest.mark.parametrize("mode, entry", UNPARSABLE_ENTRIES)
def test_reconstruct_names_the_table_entry_that_does_not_parse(tmp_path, capsys, mode, entry):
    path, message = write_table_with_entry(tmp_path, mode, entry)
    assert main(["reconstruct", "--table", str(path), "--target", "(0)",
                 "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"gfl reconstruct: ValidationError: {message}"]


# (the line number, what it holds, the error) for a header or key that does not parse
UNPARSABLE_LINES = {
    "site-coordinate": (1, "volume\t(0);(a)", "invalid literal for int() with base 10: 'a'"),
    "site-literal": (1, "volume\t(0);1", "bad site literal: '1'"),
    "one-symbol-alphabet": (2, "alphabet\t0", "an alphabet needs at least two symbols"),
    "short-key": (5, "0,0\t1/4", "one symbol per site required"),
    "unknown-symbol": (6, "0,0,2\t1/4", "unknown symbol '2'; the alphabet's names are 0, 1"),
}


@pytest.mark.parametrize("line, text, error", UNPARSABLE_LINES.values(), ids=UNPARSABLE_LINES)
def test_reconstruct_names_the_table_line_that_does_not_parse(tmp_path, capsys, line, text,
                                                                error):
    path, _ = write_table_with_entry(tmp_path, "rational", "1/8")
    lines = path.read_text().splitlines()
    lines[line - 1] = text
    path.write_text("\n".join(lines) + "\n")
    assert main(["reconstruct", "--table", str(path), "--target", "(0)",
                 "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        f"gfl reconstruct: ValidationError: {path}, line {line}: {error}"]


@pytest.mark.parametrize("mode, entry", UNPARSABLE_ENTRIES)
def test_validate_names_the_table_entry_that_does_not_parse(tmp_path, capsys, mode, entry):
    path, message = write_table_with_entry(tmp_path, mode, entry)
    assert main(["validate", "--model", f"table:{path}", "--out", str(tmp_path)]) == 1
    assert f"validate: FAIL (model load: {message})" in capsys.readouterr().out
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["reports"] == [{"axiom": "model-load", "fixtures_checked": 0,
                                  "violations": [message], "max_residual": 0.0}]


def test_example1_kernel_check_reports_a_closed_form_mismatch(tmp_path, monkeypatch):
    """With the closed form halved, every interior kernel disagrees with it."""
    kernels = cli._example1_kernels

    def halved(plus, minus):
        for t, z, k_plus, k_minus, closed in kernels(plus, minus):
            yield t, z, k_plus, k_minus, {a: p / 2 for a, p in closed.items()}

    monkeypatch.setattr(cli, "_example1_kernels", halved)
    assert main(["validate", "--model", "example1:N=6,c=1/2,kappa=1/2",
                 "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "validate.json").read_text())
    coincidence = report["reports"][-1]
    assert coincidence["axiom"] == "one-point-kernel-coincidence"
    assert len(coincidence["violations"]) == 2 * coincidence["fixtures_checked"]


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
    config.write_text("# an experiment\n\nmodel=bernoulli:p=1/2,window=9\nseed=7\nout="
                      + str(tmp_path) + "\n")
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


@pytest.mark.parametrize("argv", [
    ["reconstruct", "--table", "t.tbl", "--target", "(0)", "--model", "bernoulli"],
    ["reproduce", "example1", "--seed", "3"],
    ["energy", "--model", "bernoulli", "--target", "(0)", "--tol", "0"],
    ["validate", "--model", "bernoulli", "--family", "constants"],
    ["diagnose", "--model", "bernoulli", "--max-tuples", "10"],
])
def test_flags_a_command_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_one_parser_serves_every_command_of_a_process(tmp_path, capsys, monkeypatch):
    """`main` parses with one parser per process: validate, a usage error
    (exit 2), then validate again write what fresh interpreters write, byte
    for byte, on stdout, stderr and the report. COLUMNS fixes the width
    argparse wraps its usage text at, on both sides."""
    out = tmp_path / "out"
    validate = ["validate", "--model", "ising:beta=0.4,d=1,window=4", "--out", str(out)]
    usage = ["validate", "--model", "bernoulli", "--family", "constants"]
    env = {"PATH": "/usr/bin:/bin", "COLUMNS": "80"}
    monkeypatch.setenv("COLUMNS", "80")

    def in_process(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        report = (out / "validate.json").read_bytes() if code == 0 else None
        return code, captured.out, captured.err, report

    def fresh(argv):
        result = run_cli(*argv, env=env)
        report = (out / "validate.json").read_bytes() if result.returncode == 0 else None
        return result.returncode, result.stdout, result.stderr, report

    runs = [in_process(argv) for argv in (validate, usage, validate)]
    assert [code for code, *_ in runs] == [0, 2, 0]
    assert runs[1][2].endswith("gfl: error: unrecognized arguments: --family constants\n")
    assert runs[0] == runs[2] == fresh(validate)
    assert runs[1] == fresh(usage)


COMMAND_OPTIONS = {
    "validate": {"--model", "--tol", "--seed", "--max-tuples"},
    "diagnose": {"--model", "--site", "--filtration", "--family", "--gap-tol", "--seed"},
    "reproduce": {"--check", "--tau"},
    "energy": {"--model", "--target", "--boundary", "--gauge"},
    "reconstruct": {"--table", "--target", "--condition", "--reference"},
}


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_each_command_declares_exactly_its_options(command, capsys):
    """Every command takes --config and --out, plus only the options it reads."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    declared = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    assert declared == {"--help", "--config", "--out"} | COMMAND_OPTIONS[command]


def test_a_config_file_with_every_key_works_for_every_command(tmp_path):
    """Config files stay shared between commands: a key a command has no
    flag for is still accepted from the file."""
    values = {"model": "bernoulli:p=1/2,window=5", "site": "(0)",
              "filtration": "boxes:radii=1,2", "family": "constants", "tol": "1e-10",
              "gap_tol": "1e-8", "seed": "3", "out": str(tmp_path), "max_tuples": "500"}
    assert set(values) == set(CONFIG_KEYS)
    config = tmp_path / "all.cfg"
    config.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
    for argv, report in ((["validate"], "validate.json"), (["diagnose"], "diagnose.json"),
                         (["reproduce", "example1", "--check"], "reproduce_example1.json")):
        assert main([*argv, "--config", str(config)]) == 0
        assert json.loads((tmp_path / report).read_text())["config"] == values


def test_oscillating_family_takes_the_model_symbols(tmp_path):
    """On a +-1 spin model the oscillating family runs and reports; it used
    to look up the symbols 0 and 1 and end in a KeyError traceback."""
    result = run_cli("diagnose", "--model", "ising:beta=0.4,window=9", "--family",
                     "oscillating", "--out", str(tmp_path), env={"PATH": "/usr/bin:/bin"})
    assert result.returncode == 3, result.stderr
    assert "Traceback" not in result.stderr
    report = json.loads((tmp_path / "diagnose.json").read_text())
    assert report["family"] == "oscillating-density"
    assert report["verdict"] == "inconclusive"


def test_diagnose_takes_the_probe_family_and_an_interval_filtration(tmp_path):
    assert main(["diagnose", "--model", "ising:beta=0.4,window=9", "--family", "probe",
                 "--filtration", "intervals:spans=1:1,2:2,3:3",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "diagnose.json").read_text())
    assert [s["volume_size"] for s in report["stages"]] == [3, 5, 7]
    assert report["family"] == "constants + per-stage patches"
    assert report["family_size"] == 6


def test_oscillating_family_on_binary_models_is_the_default_density_pair(tmp_path):
    model = bernoulli_product(Fraction(1, 2), line_window(9))
    F = box_filtration(0, [1, 2, 3, 4], model.window)
    family = BoundaryFamily((oscillating_density_boundary(start="high"),
                             oscillating_density_boundary(start="low")), "oscillating-density")
    expected = uniform_convergence_report(model, 0, F, family, 1e-9)
    assert main(["diagnose", "--model", "bernoulli:p=1/2,window=9", "--family", "oscillating",
                 "--filtration", "boxes:radii=1,2,3,4", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "diagnose.json").read_text())
    del payload["config"]
    assert payload == expected.to_json_dict()
    assert (tmp_path / "diagnose.csv").read_text() == expected.to_csv()


def test_energy_strong_coupling_has_no_vanishing_entry(tmp_path):
    """At beta=8 under an all-plus boundary the minus entry of the one-point
    kernel is about 1e-14: small, but positive."""
    boundary = ";".join(f"({s})=+1" for s in (-1, 1, -2, 2, -3, 3))
    assert main(["energy", "--model", "ising:beta=8.0,window=7", "--target", "(0)",
                 "--boundary", boundary, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "energy.json").exists()


def test_unknown_symbol_is_named(tmp_path):
    result = run_cli("energy", "--model", "ising:beta=0.4,window=7",
                     "--target", "(0);(1)", "--boundary", "(-1)=1;(2)=-1",
                     "--out", str(tmp_path), env={"PATH": "/usr/bin:/bin"})
    assert result.returncode == 4
    assert result.stderr.splitlines() == [
        "gfl energy: DomainError: unknown symbol '1'; the alphabet's names are -1, +1"]


def test_gibbs_overflow_is_reported_without_traceback(tmp_path):
    """exp(-H) overflows at beta=80 on 11 sites: validate reports a model-load
    violation, and every other command exits 4 with one stderr line."""
    env = {"PATH": "/usr/bin:/bin"}
    model = "ising:beta=80,window=11"
    validated = run_cli("validate", "--model", model, "--out", str(tmp_path), env=env)
    assert validated.returncode == 1, validated.stderr
    assert "Traceback" not in validated.stderr
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["ok"] is False
    assert [r["axiom"] for r in report["reports"]] == ["model-load"]

    diagnosed = run_cli("diagnose", "--model", model, "--out", str(tmp_path), env=env)
    assert diagnosed.returncode == 4
    assert "Traceback" not in diagnosed.stderr
    assert diagnosed.stderr.splitlines() == ["gfl diagnose: OverflowError: math range error"]


def test_validate_tol_reaches_the_table_checks(tmp_path):
    """--tol is the tolerance of every check on a non-Gibbs model: at 0 the
    float rounding residues of a table field are violations, at the default
    they are not."""
    rational = seeded_positive_table(line_window(5), binary_alphabet(), 9).table
    floats = FiniteDistribution(rational.volume, rational.alphabet,
                                {c: float(p) for c, p in rational.items()}, FLOAT)
    path = tmp_path / "float.tbl"
    write_distribution_file(floats, path)

    def violations(*flags):
        code = main(["validate", "--model", f"table:{path}", *flags, "--out", str(tmp_path)])
        report = json.loads((tmp_path / "validate.json").read_text())
        return code, {r["axiom"]: len(r["violations"]) for r in report["reports"]}

    code, counts = violations()
    assert code == 0 and not any(counts.values())
    code, counts = violations("--tol", "0")
    assert code == 1
    assert counts["pair-consistency"] > 0 and counts["one-point-consistency"] > 0


# (descriptor, sites, validate exit code, diagnose exit code) with the
# default filtration. The chain of example1 needs two sites, so it has no
# 1-site case; "table" reads a seeded table file on a line of that many sites.
SMOKE_MATRIX = [
    *[(kind, 1, 4, 0) for kind in ("example2", "bernoulli", "table", "ising")],
    *[(kind, n, 0, 3) for n in (2, 3) for kind in ("example1", "example2", "ising", "table")],
    *[("bernoulli", n, 0, 0) for n in (2, 3)],
    ("ising:d=2", 9, 0, 3),
]


@pytest.mark.parametrize("kind,sites,validate_code,diagnose_code", SMOKE_MATRIX)
def test_small_windows_validate_and_diagnose(tmp_path, capsys, kind, sites,
                                             validate_code, diagnose_code):
    """Every descriptor kind at 1 to 3 sites, and the default 3x3 grid:
    the default filtration keeps the boxes that grow (one stage when the
    window holds one box), the fixture draws fit a 2-site window, and the
    only exit 4 is the named 1-site error of validate."""
    if kind == "table":
        path = tmp_path / "small.tbl"
        write_distribution_file(
            seeded_positive_table(line_window(sites), binary_alphabet(), sites).table, path)
        model = f"table:{path}"
    elif ":" in kind:
        model = kind
    else:
        model = f"{kind}:{'N' if kind == 'example1' else 'window'}={sites}"
    out = ["--out", str(tmp_path)]
    assert main(["validate", "--model", model, "--max-tuples", "2000", *out]) == validate_code
    err = capsys.readouterr().err
    if validate_code == 4:
        assert err == ("gfl validate: DomainError: a 1-site window holds no consistency "
                       "fixture; validate needs at least 2 sites\n")
    else:
        assert err == ""
    assert main(["diagnose", "--model", model, *out]) == diagnose_code
    assert capsys.readouterr().err == ""


# (descriptor, key): an empty or negative window, or a number divided by 0
BAD_DESCRIPTORS = [
    ("ising:beta=1,window=-1", "window=-1"),
    ("ising:beta=1,window=0", "window=0"),
    ("ising:beta=1,d=2,window=-2", "window=-2"),
    ("bernoulli:window=-1", "window=-1"),
    ("example2:tau=1,window=0", "window=0"),
    ("example1:c=1/0", "c=1/0"),
    ("example2:tau=1/0", "tau=1/0"),
    ("bernoulli:p=1/0", "p=1/0"),
]


@pytest.mark.parametrize("descriptor,key", BAD_DESCRIPTORS)
def test_bad_descriptor_numbers_are_named_without_a_traceback(tmp_path, capsys, descriptor, key):
    """A window of fewer than one site or a number that does not parse fails in
    build_model with a ValueError naming the key: validate reports a model-load
    failure and exits 1, diagnose exits 4 with one stderr line."""
    out = ["--model", descriptor, "--out", str(tmp_path)]
    assert main(["validate", *out]) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"validate: FAIL (model load: model parameter {key}")
    assert "Traceback" not in captured.err
    [load] = json.loads((tmp_path / "validate.json").read_text())["reports"]
    assert load["axiom"] == "model-load" and key in load["violations"][0]
    assert main(["diagnose", *out]) == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith(f"gfl diagnose: ValueError: model parameter {key}")


@pytest.mark.parametrize("descriptor,key", [BAD_DESCRIPTORS[0], BAD_DESCRIPTORS[5]])
def test_bad_descriptor_numbers_exit_without_a_traceback_in_a_child(tmp_path, descriptor, key):
    """The same exit codes from a fresh `gfl` process, whose stderr holds no traceback."""
    env = {"PATH": "/usr/bin:/bin"}
    validated = run_cli("validate", "--model", descriptor, "--out", str(tmp_path), env=env)
    assert validated.returncode == 1 and "Traceback" not in validated.stderr
    assert f"model parameter {key}" in validated.stdout
    diagnosed = run_cli("diagnose", "--model", descriptor, "--out", str(tmp_path), env=env)
    assert diagnosed.returncode == 4 and "Traceback" not in diagnosed.stderr
    [line] = diagnosed.stderr.splitlines()
    assert line.startswith(f"gfl diagnose: ValueError: model parameter {key}")
