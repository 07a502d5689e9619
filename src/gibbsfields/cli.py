"""Experiment runner: validators, diagnostics and example reproductions.

Every command resolves its settings from defaults, an optional flat
key=value config file and command-line overrides (in that order), embeds
the resolved configuration in each report it writes, and is deterministic
for a fixed config and seed. Reports are JSON with CSV mirrors where a
table is natural.

Exit codes: validate 0 = no violations, 1 = violations or load failure;
diagnose 0 = uniform-evidence, 2 = divergence-witness, 3 = inconclusive;
reproduce --check 1 on golden mismatch; any command 4 when a library
error (a ValueError such as DomainError, CapacityError, OSError or
OverflowError) stops it, and 2 on a usage error such as a flag the
command does not read. A closed stdout changes no exit code (``say``).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction
from functools import cache
from importlib import resources
from pathlib import Path

from .lattice import (
    CapacityError,
    Configuration,
    DomainError,
    Filtration,
    Volume,
    box_filtration,
    box_volume,
    enumerate_configurations,
    format_site,
    interval_filtration,
    line_window,
    parse_configuration,
    parse_site,
)
from .fields import (
    RATIONAL,
    Comparison,
    ValidationError,
    check_marginal_consistency,
    format_scalar,
    read_distribution_file,
    table_field,
)
from .conditionals import (
    KernelCache,
    finite_conditional,
    one_point_from_model,
    reconstruct_from_one_point,
)
from .energy import (
    energy_table_text,
    hamiltonian_from_energy,
    transition_energy,
)
from .specifications import (
    GibbsVolumeField,
    ValidationReport,
    onepoint_spec_from_model,
    onepoint_spec_from_tef,
    pair_site_fixtures,
    spec_from_model,
    spec_from_onepoint,
    tef_from_potential,
    validate_1spec,
    validate_spec,
    validate_tef,
    volume_split_fixtures,
)
from .models import (
    BernoulliMixtureModel,
    MarkovChainPairModel,
    bernoulli_product,
    example1_pair,
    example2_limiting_hamiltonian,
    example2_model,
    ising_demo,
)
from .diagnostics import (
    DIVERGENCE_WITNESS,
    UNIFORM_EVIDENCE,
    BoundaryFamily,
    constant_boundaries,
    locality_probe_family,
    mixed_family,
    non_gibbs_witness,
    oscillating_family,
    uniform_convergence_report,
)

DEFAULTS = {
    "tol": "1e-12",
    "gap_tol": "1e-9",
    "seed": "0",
    "out": ".",
    "max_tuples": "1000000",
}


CONFIG_KEYS = (*DEFAULTS, "model", "site", "filtration", "family")


def load_config(path: str | None) -> dict:
    config = dict(DEFAULTS)
    if path:
        for raw in Path(path).read_text().splitlines():
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            key, _, value = raw.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r} in {path}")
            config[key] = value.strip()
    return config


def resolve(args: argparse.Namespace, config: dict) -> dict:
    for key in CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            config[key] = str(value)
    return config


def build_model(descriptor: str):
    kind, _, params_text = descriptor.partition(":")
    params = {}
    if params_text:
        for chunk in params_text.split(","):
            key, _, value = chunk.partition("=")
            params[key.strip()] = value.strip()
    if kind == "example1":
        n = int(params.get("N", 8))
        c = Fraction(params.get("c", "1/2"))
        kappa = Fraction(params.get("kappa", "1/2"))
        return example1_pair(n, c, kappa)[0 if params.get("sign", "+") != "-" else 1]
    if kind == "example2":
        return example2_model(Fraction(params.get("tau", "1")),
                              int(params.get("window", 13)))
    if kind == "ising":
        return ising_demo(float(params.get("beta", 0.4)), float(params.get("h", 0.0)),
                          int(params.get("d", 1)), int(params.get("window", 11)))
    if kind == "bernoulli":
        return bernoulli_product(Fraction(params.get("p", "1/2")),
                                 int(params.get("window", 9)))
    if kind == "table":
        table = read_distribution_file(params_text)
        return table_field(table.volume, table.alphabet, table)
    raise ValueError(f"unknown model descriptor {descriptor!r}")


def build_filtration(spec: str | None, model) -> Filtration:
    center = _default_site(model)
    if spec:
        kind, _, params = spec.partition(":")
        if kind == "boxes":
            radii = [int(r) for r in params.removeprefix("radii=").split(",")]
            return box_filtration(center, radii, model.window)
        if kind == "intervals":
            spans = []
            for pair in params.removeprefix("spans=").split(","):
                lo, _, hi = pair.partition(":")
                spans.append((int(lo), int(hi)))
            return interval_filtration(center, spans)
        raise ValueError(f"unknown filtration spec {spec!r}")
    # default: tripling boxes for density models, unit steps otherwise
    if isinstance(model, BernoulliMixtureModel):
        radii = []
        r = 6
        while len(box_filtration(center, [r], model.window)[0]) == 2 * r + 1:
            radii.append(r)
            r *= 3
        if radii:
            return box_filtration(center, radii, model.window)
    # a box that did not grow is dropped: a small window may hold only one
    margin = _window_margin(model.window, center)
    boxes = (box_volume(center, r, model.window) for r in range(1, max(2, margin) + 1))
    return Filtration(tuple(dict.fromkeys(boxes)))


def _default_site(model):
    sites = model.window.sites
    return sites[len(sites) // 2]


def _window_margin(window: Volume, center) -> int:
    spans = []
    for axis in range(len(center)):
        coords = [s[axis] for s in window.sites]
        spans.append(min(center[axis] - min(coords), max(coords) - center[axis]))
    return max(1, min(spans))


def build_family(name: str | None, model, F: Filtration, seed: int) -> BoundaryFamily:
    name = name or "mixed"
    alphabet = model.alphabet
    binary = set(alphabet.symbols) == {0, 1}
    if name == "constants":
        return BoundaryFamily(constant_boundaries(alphabet), "constants")
    if name == "oscillating":
        return oscillating_family(alphabet)
    if name == "probe":
        return locality_probe_family(alphabet, F)
    if name == "mixed":
        return mixed_family(alphabet, seeds=(seed + 1, seed + 2),
                            include_oscillating=binary, include_half=binary)
    raise ValueError(f"unknown family {name!r}")


def write_json(out_dir: str, name: str, payload: dict) -> Path:
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# validate

def _random_condition(rng, rest: Volume, alphabet) -> Configuration:
    """Configuration on a random subset of at most three sites of rest."""
    lam_sites = rng.sample(rest.sites, rng.randint(0, min(3, len(rest))))
    lam = Volume.of(lam_sites) if lam_sites else Volume.empty()
    return Configuration(lam, tuple(rng.choice(alphabet.symbols) for _ in lam))


def _consistency_reports(model, tol: float, seed: int) -> list:
    """Marginal tower plus both conditional-consistency identities."""
    rng = random.Random(seed)
    window = model.window
    sites = window.sites
    reports = []

    # dense tables are built for these checks, so cap the volume sizes
    max_s = min(len(sites), 8)
    nested = []
    for _ in range(min(40, 4 ** len(sites))):
        size_s = rng.randint(2, max_s)
        s_sites = rng.sample(sites, size_s)
        size_v = rng.randint(1, size_s - 1)
        nested.append((Volume.of(s_sites), Volume.of(rng.sample(s_sites, size_v))))
    bad = [f"{V}<{S}" for S, V in nested
           if not check_marginal_consistency(model, S, V, tol)]
    reports.append(ValidationReport("marginal-consistency", len(nested), bad, 0.0).to_json_dict())

    pair_fixtures = []
    for _ in range(20):
        size_v = rng.randint(2, max(2, min(4, len(sites) - 1)))
        v_sites = rng.sample(sites, size_v)
        V = Volume.of(v_sites)
        I = Volume.of(rng.sample(v_sites, rng.randint(1, size_v - 1)))
        pair_fixtures.append((V, I, _random_condition(rng, window - V, model.alphabet)))
    site_fixtures = []
    for _ in range(20):
        t, s = rng.sample(sites, 2)
        z = _random_condition(rng, window - Volume.of([t, s]), model.alphabet)
        site_fixtures.append((t, s, z))

    kernels = KernelCache(model)
    pair = validate_spec(spec_from_model(model, kernels), pair_fixtures, tol)
    one_point = validate_1spec(onepoint_spec_from_model(model, kernels), site_fixtures, tol)
    for axiom, fixtures, r in (("pair-consistency", pair_fixtures, pair),
                               ("one-point-consistency", site_fixtures, one_point)):
        reports.append(ValidationReport(axiom, len(fixtures), r.violations,
                                        r.max_residual).to_json_dict())
    return reports


def _potential_reports(model, tol: float, seed: int, max_tuples: int) -> list:
    """Energy-field, 1-spec, spec and Gibbs-coherence checks for Gibbs fields."""
    window, alphabet = model.window, model.alphabet
    tef = tef_from_potential(model.potential, window, alphabet)
    q = onepoint_spec_from_tef(tef)
    Q = spec_from_onepoint(q)

    fixtures, meta = pair_site_fixtures(window, alphabet, max_tuples, seed)
    reports = [validate_tef(tef, fixtures, tol, meta).to_json_dict(),
               validate_1spec(q, fixtures, tol, meta).to_json_dict()]
    vol_fixtures, vol_meta = volume_split_fixtures(window, alphabet, 3, max_tuples, seed)
    reports.append(validate_spec(Q, vol_fixtures, tol, vol_meta).to_json_dict())

    rng = random.Random(seed)
    coherence_bad = []
    holds = Comparison(tol)
    checks = 0
    for _ in range(30):
        size_v = rng.randint(1, min(3, len(window)))
        V = Volume.of(rng.sample(window.sites, size_v))
        rest = window - V
        z = Configuration(rest, tuple(rng.choice(alphabet.symbols) for _ in rest))
        direct = finite_conditional(model, V, z)
        spec_probs = Q.kernel(V, z).probs
        for c, p in direct.items():
            checks += 1
            if not holds(p, spec_probs[c]):
                coherence_bad.append({"V": str(V), "config": str(c),
                                      "dev": abs(float(p) - float(spec_probs[c]))})
    coherence = ValidationReport("gibbs-spec-coherence", checks, coherence_bad, holds.worst)
    reports.append({**coherence.to_json_dict(), "infinite_volume_step": "cited, not verified"})
    return reports


def cmd_validate(args, config: dict) -> int:
    out_dir = config["out"]
    seed = int(config["seed"])
    max_tuples = int(config["max_tuples"])
    tol = float(config["tol"])
    try:
        model = build_model(config["model"])
    except (ValidationError, ValueError, OSError, CapacityError, OverflowError) as err:
        payload = {"config": config, "ok": False,
                   "reports": [ValidationReport("model-load", 0, [str(err)], 0.0).to_json_dict()]}
        write_json(out_dir, "validate.json", payload)
        say(f"validate: FAIL (model load: {err})")
        return 1

    if len(model.window) < 2:
        raise DomainError(f"a {len(model.window)}-site window holds no consistency fixture; "
                          "validate needs at least 2 sites")
    if isinstance(model, GibbsVolumeField):
        reports = _potential_reports(model, tol, seed, max_tuples)
    else:
        reports = _consistency_reports(model, tol, seed)
        if isinstance(model, MarkovChainPairModel):
            reports.append(_example1_kernel_report(model))
        if not model.marginal(Volume.of(model.window.sites[:3])).is_positive():
            reports.append(ValidationReport("positivity", 1, ["zero marginal entry"],
                                            0.0).to_json_dict())

    ok = all(not r["violations"] for r in reports)
    payload = {"config": config, "reports": reports, "ok": ok}
    path = write_json(out_dir, "validate.json", payload)
    for r in reports:
        status = "pass" if not r["violations"] else f"FAIL ({len(r['violations'])} violations)"
        say(f"validate[{r['axiom']}]: {status}")
    say(f"report: {path}")
    return 0 if ok else 1


def _example1_kernel_report(model) -> dict:
    """Both chain signs must share every interior one-point kernel."""
    plus, minus = example1_pair(model.N, list(model.c), model.kappa)
    bad = []
    checked = 0
    for t, z, k_plus, k_minus, closed in _example1_kernels(plus, minus):
        checked += 1
        for symbol in model.alphabet.symbols:
            if not (k_plus.value(symbol) == k_minus.value(symbol) == closed[symbol]):
                bad.append({"t": t, "z": str(z)})
    return ValidationReport("one-point-kernel-coincidence", checked, bad, 0.0).to_json_dict()


def _example1_kernels(plus, minus):
    """(t, z, plus kernel, minus kernel, closed form) for every interior
    site t of the chain pair and every condition z on its two neighbours."""
    for t in range(2, plus.N):
        lam = Volume.of([t - 1, t + 1])
        for z in enumerate_configurations(lam, plus.alphabet):
            yield (t, z, finite_conditional(plus, Volume.of([t]), z),
                   finite_conditional(minus, Volume.of([t]), z),
                   plus.interior_conditional(t, z[(t - 1,)], z[(t + 1,)]))


# ---------------------------------------------------------------------------
# diagnose

def cmd_diagnose(args, config: dict) -> int:
    model = build_model(config["model"])
    F = build_filtration(config.get("filtration"), model)
    site = parse_site(config["site"]) if config.get("site") else _default_site(model)
    family = build_family(config.get("family"), model, F, int(config["seed"]))
    gap_tol = float(config["gap_tol"])

    report = uniform_convergence_report(model, site, F, family, gap_tol)
    payload = {"config": config, **report.to_json_dict()}
    path = write_json(config["out"], "diagnose.json", payload)
    (Path(config["out"]) / "diagnose.csv").write_text(report.to_csv())
    say(f"diagnose[{model.describe()} @ {format_site(site)}]: {report.verdict}")
    if report.witness:
        say(f"witness: {report.witness['generator']} gaps {report.witness['gap_trace']}")
    say(f"report: {path}")
    return {UNIFORM_EVIDENCE: 0, DIVERGENCE_WITNESS: 2}.get(report.verdict, 3)


# ---------------------------------------------------------------------------
# reproduce

def reproduce_example1() -> dict:
    """Kernel-equality tables for the chain pair at the standard parameters."""
    N = 8
    plus, minus = example1_pair(N, Fraction(1, 2), Fraction(1, 2))
    report = {
        "example": "example1",
        "params": {"N": N, "c": "1/2", "kappa": "1/2"},
        "tail_products": {str(t): str(plus.k[t]) for t in range(1, N + 1)},
        "initial_law_plus_up": str(plus.marginal(Volume.of([1]))[
            Configuration(Volume.of([1]), (1,))]),
    }
    nested_ok = all(
        check_marginal_consistency(plus, Volume.of(range(1, n + 2)), Volume.of(range(1, n + 1)))
        and check_marginal_consistency(minus, Volume.of(range(1, n + 2)), Volume.of(range(1, n + 1)))
        for n in range(1, N))
    report["marginal_consistency"] = "pass" if nested_ok else "fail"
    tables = []
    coincide = True
    for t, z, k_plus, k_minus, closed in _example1_kernels(plus, minus):
        tables.append({
            "t": t,
            "condition": str(z),
            "plus_up": str(k_plus.value(1)),
            "minus_up": str(k_minus.value(1)),
            "closed_form_up": str(closed[1]),
        })
        coincide &= (k_plus.value(1) == k_minus.value(1) == closed[1])
    report["kernel_equality"] = tables
    report["kernels_coincide"] = coincide
    report["unit_case_up_up"] = str(
        finite_conditional(plus, Volume.of([4]),
                           Configuration(Volume.of([3, 5]), (1, 1))).value(1))
    return report


def reproduce_example2(tau=1) -> dict:
    """Conditional tables, witness trace and the limiting Hamiltonian."""
    tau = int(tau)
    window = line_window(325)
    model = example2_model(tau, window)
    F = box_filtration((0,), [6, 18, 54, 162], window)
    conditionals = []
    formula_ok = True
    for size in range(1, 13):
        lam = Volume.of(range(1, size + 1))
        for ones in range(size + 1):
            z = Configuration(lam, tuple(1 if i < ones else 0 for i in range(size)))
            value = finite_conditional(model, Volume.of([0]), z).value(1)
            formula_ok &= value == model.conditional_one(size, ones)
            conditionals.append({"size": size, "ones": ones, "up_prob": str(value)})
    witness = non_gibbs_witness(model, (0,), F, strategy="oscillating-density")
    hamiltonian = []
    for p in ("0", "1/4", "1/2", "3/4", "1"):
        for x in (0, 1):
            value = example2_limiting_hamiltonian(Fraction(p), x)
            hamiltonian.append({"density": p, "symbol": x,
                                "H": "+inf" if value == float("inf") else format(value, ".17g")})
    return {
        "example": "example2",
        "tau": tau,
        "conditional_formula_matches": formula_ok,
        "conditionals": conditionals,
        "witness": witness,
        "limiting_hamiltonian": hamiltonian,
    }


def _golden_path(name: str):
    return resources.files("gibbsfields").joinpath(f"goldens/{name}.json")


def cmd_reproduce(args, config: dict) -> int:
    if args.example == "example1":
        report = reproduce_example1()
    else:
        report = reproduce_example2(getattr(args, "tau", None) or 1)
    payload = {"config": config, **report}
    path = write_json(config["out"], f"reproduce_{args.example}.json", payload)
    say(f"reproduce[{args.example}]: written {path}")
    if args.check:
        if args.example == "example2" and report["tau"] != 1:
            say("check: only the default tau=1 report has a golden")
            return 1
        golden = json.loads(_golden_path(args.example).read_text())
        if golden == report:
            say("check: OK (matches golden)")
            return 0
        diff = [k for k in golden if golden.get(k) != report.get(k)]
        say(f"check: MISMATCH in fields {diff}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# energy / reconstruct

def cmd_energy(args, config: dict) -> int:
    model = build_model(config["model"])
    target = Volume.of(parse_site(s) for s in args.target.split(";"))
    boundary = parse_configuration(args.boundary or "", model.alphabet)
    kernel = finite_conditional(model, target, boundary)
    e = transition_energy(kernel)
    gauge = (parse_configuration(args.gauge, model.alphabet) if args.gauge
             else enumerate_configurations(target, model.alphabet)[0])
    h = hamiltonian_from_energy(e, gauge)
    out = Path(config["out"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "energy.txt").write_text(energy_table_text(e, model.alphabet))
    h_lines = ["volume\t" + str(target), "gauge\t" + str(gauge)]
    for x, w in h.weights.items():
        name = model.alphabet.label_of(x.symbols)
        value = h.energy(x)
        rendered = "+inf" if value == float("inf") else (
            format_scalar(w, h.mode) if h.mode == RATIONAL else format(value, ".17g"))
        h_lines.append(f"{name}\t{rendered}")
    (out / "hamiltonian.txt").write_text("\n".join(h_lines) + "\n")
    payload = {
        "config": config,
        "target": str(target),
        "boundary": str(boundary),
        "gauge": str(gauge),
        "energy_ratios": {
            f"{x_i}|{u_i}": format_scalar(e.ratio(x, u), e.mode)
            for x_i, x in enumerate(e.configurations())
            for u_i, u in enumerate(e.configurations())
        },
    }
    path = write_json(config["out"], "energy.json", payload)
    say(f"energy: written {path}")
    return 0


def cmd_reconstruct(args, config: dict) -> int:
    table = read_distribution_file(args.table)
    model = table_field(table.volume, table.alphabet, table)
    target = Volume.of(parse_site(s) for s in args.target.split(";"))
    condition = parse_configuration(args.condition or "", model.alphabet)
    direct = finite_conditional(model, target, condition)
    reference = (parse_configuration(args.reference, model.alphabet)
                 if args.reference else None)
    rebuilt = reconstruct_from_one_point(
        one_point_from_model(model), target, condition, model.alphabet,
        reference=reference, mode=model.mode)
    agree = direct.table_equal(rebuilt)
    payload = {
        "config": config,
        "target": str(target),
        "condition": str(condition),
        "direct": {str(c): format_scalar(p, model.mode) for c, p in direct.items()},
        "reconstructed": {str(c): format_scalar(p, model.mode) for c, p in rebuilt.items()},
        "agree": agree,
    }
    path = write_json(config["out"], "reconstruct.json", payload)
    say(f"reconstruct: {'OK' if agree else 'MISMATCH'} ({path})")
    return 0 if agree else 1


# ---------------------------------------------------------------------------

FLAG_TYPES = {"tol": float, "gap_tol": float, "seed": int, "max_tuples": int}


def say(line: str) -> None:
    """Print a summary line; once the reader has gone, stdout is os.devnull."""
    try:
        print(line, flush=True)
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gfl", description="lattice random-field conditional-structure toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, fn, summary, *keys):
        # no prefix matching, so that "--mode" is not read as "--model"
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        # --config and --out, plus a flag for each config key the command reads
        for key in ("config", "out", *keys):
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=FLAG_TYPES.get(key))
        p.set_defaults(fn=fn)
        return p

    add_command("validate", cmd_validate, "run axiom validators for a model",
                "model", "tol", "seed", "max_tuples")
    add_command("diagnose", cmd_diagnose, "uniform-convergence diagnostics",
                "model", "site", "filtration", "family", "gap_tol", "seed")

    p_rep = add_command("reproduce", cmd_reproduce, "regenerate the worked-example reports")
    p_rep.add_argument("example", choices=["example1", "example2"])
    p_rep.add_argument("--check", action="store_true")
    p_rep.add_argument("--tau", type=int)

    p_energy = add_command("energy", cmd_energy, "dump energy and Hamiltonian tables", "model")
    p_energy.add_argument("--target", required=True)
    p_energy.add_argument("--boundary", default="")
    p_energy.add_argument("--gauge")

    p_rec = add_command("reconstruct", cmd_reconstruct, "one-point reconstruction on a table file")
    p_rec.add_argument("--table", required=True)
    p_rec.add_argument("--target", required=True)
    p_rec.add_argument("--condition", default="")
    p_rec.add_argument("--reference")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args, resolve(args, load_config(args.config)))
    except (ValueError, CapacityError, OSError, OverflowError) as err:
        print(f"gfl {args.command}: {type(err).__name__}: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
