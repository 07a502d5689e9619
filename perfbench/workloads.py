"""The three benchmark workloads and the meter that times their operations.

An operation is one call from the benchmark into a public gibbsfields
function, or one in-process ``gibbsfields.cli.main(argv)`` command. The
meter times each one, checks its result against the expected verdict,
golden or exit code, and counts the identity tuples it verified.

Every workload is built in two steps: its constructor (set-up: inputs
generated from the workload seed, models and tables built) and
``run_pass`` (one sweep of timed operations). A pass starts from fresh
model wrappers and kernel caches, so every pass does the same work.

gibbsfields is imported by the caller (worker.py) and reached only
through module attributes at call time, so that the tracer's wrappers
are seen.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import statistics
import zlib
from fractions import Fraction
from itertools import combinations
from math import comb
from pathlib import Path
from time import perf_counter

import gibbsfields as g
import gibbsfields.cli

TOL = 1e-12
# pass time between two timings of the reference kernel
REF_INTERVAL_S = 1.0
# relative to the checkout root, the working directory of every run, so
# that report bytes do not depend on where the checkout lives
OUT_DIR = Path("perfbench", "out")


def object_kernel(n: int = 2000) -> Fraction:
    """Fixed pure-Python work with the program's instruction mix: tuple keys,
    dict updates, small sorts and Fraction arithmetic."""
    counts: dict = {}
    total = Fraction(0)
    for i in range(n):
        key = (i % 31, i % 17)
        counts[key] = counts.get(key, 0) + 1
        total += Fraction(i % 7 + 1, i % 5 + 2)
        tuple(sorted((i % 3, i % 2, i % 5)))
    return total


def integer_kernel(n: int = 50000) -> int:
    """Fixed pure-Python integer arithmetic."""
    total = 0
    for i in range(n):
        total += i * i % 7
    return total


def reference_s() -> float:
    """Time of the reference kernel: the geometric mean of the median of
    three timings of each kernel, with the collector off so that the
    program's heap does not change it.

    When the host speeds up, the object kernel speeds up more than the
    workloads and the integer kernel less. Measured over 7 minutes on a
    shared 2-core host, the workloads' times scaled with the geometric
    mean with a slope of 0.98 to 1.04.
    """
    gc.disable()
    try:
        medians = []
        for kernel in (object_kernel, integer_kernel):
            times = []
            for _ in range(3):
                start = perf_counter()
                kernel()
                times.append(perf_counter() - start)
            medians.append(statistics.median(times))
    finally:
        gc.enable()
    return math.sqrt(medians[0] * medians[1])


class Meter:
    """Times operations, checks their results and counts verified tuples.

    A pass is cut into blocks of about REF_INTERVAL_S between operations.
    Each block records [seconds, operations, reference seconds]: the mean
    of the reference kernel's times before and after it, measured outside
    the block, so that the block's times can be converted to a fixed speed.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.digests: dict = {}
        self.notes: dict = {}
        self.start_pass()

    def start_pass(self) -> None:
        self.latencies = []
        self.tuples = 0
        self.harness_s = 0.0
        self.report_bytes = 0
        self.index = 0
        self.blocks = []
        self._ref = reference_s()
        self._block_ops = 0
        self._block_start = perf_counter()

    def end_pass(self) -> None:
        self._close_block()

    def _close_block(self) -> None:
        seconds = perf_counter() - self._block_start
        ref = reference_s()
        self.blocks.append([seconds, self._block_ops, (self._ref + ref) / 2])
        self._ref = ref
        self._block_ops = 0
        self._block_start = perf_counter()

    def op(self, check, fn, *args, tuples: int = 0, **kwargs):
        """Run fn(*args, **kwargs) as one operation; check(result) must hold."""
        try:
            return self._op(check, fn, args, kwargs, tuples)
        finally:
            self._block_ops += 1
            if perf_counter() - self._block_start >= REF_INTERVAL_S:
                self._close_block()

    def _op(self, check, fn, args, kwargs, tuples):
        self.index += 1
        self.attempted += 1
        start = perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args, **kwargs)
            else:
                result = self.tracer.op(fn, args, kwargs)
        except Exception as err:  # any raise is a failed operation, never a crash
            self.latencies.append(perf_counter() - start)
            self._fail(fn, f"raised {err!r}")
            return None
        end = perf_counter()
        self.latencies.append(end - start)
        try:
            ok = check(result)
        except Exception as err:  # a check that cannot run fails the operation
            ok = False
            result = err
        if ok:
            self.tuples += tuples
        else:
            self._fail(fn, f"unexpected result {str(result)[:200]}")
        self.harness_s += perf_counter() - end
        return result

    def cli(self, argv: list, expect_code: int, report: str):
        """One in-process gfl command; checks its exit code and report digest."""

        def check(code):
            data = (OUT_DIR / report).read_bytes()
            self.report_bytes += len(data)
            return code == expect_code and self.same_digest(data)

        with contextlib.redirect_stdout(io.StringIO()):
            return self.op(check, gibbsfields.cli.main, argv)

    def same_digest(self, data: bytes) -> bool:
        """True when data matches the digest first seen for this operation,
        identified by its position in the pass."""
        digest = hashlib.sha256(data).hexdigest()
        return self.digests.setdefault(self.index, digest) == digest

    def note(self, what: str) -> None:
        """Count an accepted outcome worth reporting, such as a known defect."""
        self.notes[what] = self.notes.get(what, 0) + 1

    def _fail(self, fn, why: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            name = getattr(fn, "__qualname__", repr(fn))
            self.failures.append(f"op {self.index} {name}: {why}")


def is_true(result) -> bool:
    return result is True


def is_false(result) -> bool:
    return result is False


def returned(result) -> bool:
    return result is not None


def kernels_equal(a, b) -> bool:
    return a is not None and b is not None and all(a[c] == b[c] for c in a.probs)


def all_conditions(window, target, alphabet):
    """Every configuration on every sub-volume of window minus target."""
    rest = (window - target).sites
    out = []
    for mask in range(2 ** len(rest)):
        chosen = [s for i, s in enumerate(rest) if mask >> i & 1]
        lam = g.Volume.of(chosen) if chosen else g.Volume.empty()
        out.extend(g.enumerate_configurations(lam, alphabet))
    return out


def volumes(window, sizes):
    return [g.Volume.of(sites) for size in sizes
            for sites in combinations(window.sites, size)]


# ---------------------------------------------------------------------------
# exact-identities: rational tables, every identity on every condition

class ExactIdentities:
    """Acceptance criteria 1 to 3 at a size that fits one run."""

    SIZES = {"full": (3, 4, 5), "tiny": (3,)}

    def __init__(self, seed: int, size: str, flip_controls: bool = False):
        self.flip = flip_controls
        self.alphabet = g.binary_alphabet()
        rng = random.Random(seed)
        self.tables = []
        for n in self.SIZES[size]:
            model = g.seeded_positive_table(g.line_window(n), self.alphabet,
                                            rng.randrange(2**31))
            self.tables.append((model.table, self._fixtures(model)))

    def _fixtures(self, model) -> dict:
        window, alphabet = model.window, self.alphabet
        n = len(window)
        pair = [(V, [I for size in range(1, len(V))
                     for I in volumes(V, [size])], all_conditions(window, V, alphabet))
                for V in volumes(window, range(2, n + 1))]
        sites = [(t, s, all_conditions(window, g.Volume.of([t, s]), alphabet))
                 for t, s in combinations(window.sites, 2)]
        targets = [(V, g.enumerate_configurations(V, alphabet),
                    all_conditions(window, V, alphabet))
                   for V in volumes(window, range(1, n + 1))]
        splits = []
        for V in volumes(window, (1, 2)):
            for I in volumes(window - V, (1, 2)):
                splits.append((V, I, all_conditions(window, V | I, alphabet)))
        # negative control: one ratio of a kernel-derived table perturbed
        V = g.Volume.of(window.sites[:2])
        kernel = g.finite_conditional(model, V, g.EMPTY_CONFIGURATION)
        ratios = {(x, u): kernel[x] / kernel[u] for x in kernel.probs for u in kernel.probs}
        good = g.TransitionEnergy.from_ratios(V, kernel.condition, ratios)
        x, u = list(kernel.probs)[:2]
        ratios[(x, u)] *= 2
        bad = g.TransitionEnergy.from_ratios(V, kernel.condition, ratios)
        return {"pair": pair, "sites": sites, "targets": targets, "splits": splits,
                "controls": (good, bad)}

    def run_pass(self, meter: Meter) -> None:
        alphabet = self.alphabet
        for table, fx in self.tables:
            m = meter.op(returned, g.table_field, table.volume, alphabet, table)
            kernels = meter.op(returned, g.KernelCache, m)
            for V, subsets, conditions in fx["pair"]:
                for z in conditions:
                    for I in subsets:
                        tuples = 2 ** (len(V) - len(I)) * comb(2 ** len(I), 2)
                        meter.op(is_true, g.check_pair_consistency, m, I, V, z, kernels,
                                 tuples=tuples)
            for t, s, conditions in fx["sites"]:
                for z in conditions:
                    meter.op(is_true, g.check_one_point_consistency, m, t, s, z, kernels,
                             tuples=16)
                    meter.op(is_true, g.check_one_point_exchange, m, t, s, z, kernels,
                             tuples=16)
            one_point = meter.op(returned, g.one_point_from_model, m)
            for V, refs, conditions in fx["targets"]:
                entries = len(refs)
                for z in conditions:
                    direct = meter.op(returned, g.finite_conditional, m, V, z)
                    meter.op(lambda k: kernels_equal(direct, k), g.reconstruct_from_one_point,
                             one_point, V, z, alphabet, tuples=entries)
                    k = meter.op(returned, kernels, V, z)
                    e = meter.op(returned, g.transition_energy, k)
                    meter.op(lambda back: kernels_equal(k, back), g.gibbs_form_from_energy,
                             e, refs[0], tuples=entries)
                    h = meter.op(returned, g.hamiltonian_from_energy, e, refs[-1])
                    meter.op(lambda back: kernels_equal(k, back), h.gibbs_kernel,
                             tuples=entries)
            for V, I, conditions in fx["splits"]:
                tuples = 4 ** len(V) * 4 ** len(I)
                for z in conditions:
                    meter.op(is_true, g.check_decomposition, m, V, I, z, kernels,
                             tuples=tuples)
            good, bad = fx["controls"]
            meter.op(is_true, g.check_cocycle, good, tuples=len(good.configurations()) ** 3)
            meter.op(is_true if self.flip else is_false, g.check_cocycle, bad)


# ---------------------------------------------------------------------------
# potential-validate: float mode, `gfl validate` on Ising models

# Violations that validate_tef reports for the corrupted energy field below
# (window 6, beta 0.4, every boundary of its exhaustive fixture set).
CONTROL_VIOLATIONS = 340


def corrupted_tef(beta: float, window, alphabet):
    """Energy field with about 10% of its (site, boundary) ratios rescaled.

    Each chosen ratio is multiplied by 1.5 ** (index(u) - index(x)), which
    keeps every per-site cocycle law but breaks the two-site exchange law.
    The choice is a CRC of the site and boundary text, so it does not
    depend on the hash seed.
    """
    good = g.tef_from_potential(g.ising_potential(beta), window, alphabet)
    index = {a: i for i, a in enumerate(alphabet.symbols)}

    def ratio(t, boundary, x, u):
        value = good.ratio_fn(t, boundary, x, u)
        if zlib.crc32(f"{t}|{boundary}".encode()) % 10 == 0:
            value *= 1.5 ** (index[u] - index[x])
        return value

    return g.OnePointTEF(window, alphabet, ratio, g.FLOAT, TOL, "corrupted")


def pair_tuples(n: int) -> int:
    """Identity tuples of validate_tef and validate_1spec on an exhaustive
    d=1 window of n binary sites: 48 and 16 per (t, s, boundary) fixture."""
    return comb(n, 2) * 2 ** (n - 2) * (48 + 16)


def split_tuples(n: int, max_volume: int = 3) -> int:
    """Identity tuples of validate_spec over every split with |V| <= 3."""
    total = 0
    for v in range(2, max_volume + 1):
        for i in range(1, v):
            splits = comb(n, v) * comb(v, i)
            total += splits * 2 ** (n - v) * 2 ** (v - i) * comb(2 ** i, 2)
    return total


class PotentialValidate:
    """`gfl validate` on Ising models: a beta sweep at d=1 with exhaustive
    fixtures, the 3x3 grid with a sampled fixture budget, and a corrupted
    energy field that must report exactly CONTROL_VIOLATIONS."""

    SIZES = {"full": {"d1": (4,) * 6 + (5,) * 3, "grid": 9, "grid_tuples": 2000},
             "tiny": {"d1": (3,) * 9, "grid": 4, "grid_tuples": 64}}

    def __init__(self, seed: int, size: str, flip_controls: bool = False):
        self.flip = flip_controls
        plan = self.SIZES[size]
        rng = random.Random(seed)
        self.commands = []
        for n in plan["d1"]:
            beta = round(rng.uniform(0.1, 1.0), 4)
            model = f"ising:beta={beta},d=1,window={n}"
            self.commands.append((model, None, pair_tuples(n) + split_tuples(n)))
        beta = round(rng.uniform(0.1, 1.0), 4)
        self.commands.append((f"ising:beta={beta},d=2,window={plan['grid']}",
                              plan["grid_tuples"], 0))
        self.out = OUT_DIR / "potential-validate"
        window = g.line_window(6)
        alphabet = g.spin_alphabet()
        self.control = corrupted_tef(0.4, window, alphabet)
        self.control_fixtures = g.pair_site_fixtures(window, alphabet)

    def run_pass(self, meter: Meter) -> None:
        for model, budget, tuples in self.commands:
            argv = ["validate", "--model", model, "--out", str(self.out)]
            if budget is not None:
                argv += ["--max-tuples", str(budget)]
            meter.cli(argv, 0, "potential-validate/validate.json")
            meter.tuples += tuples
        fixtures, meta = self.control_fixtures
        expected = CONTROL_VIOLATIONS + (1 if self.flip else 0)
        meter.op(lambda r: r is not None and not r.ok and len(r.violations) == expected,
                 g.validate_tef, self.control, fixtures, TOL, meta)


# ---------------------------------------------------------------------------
# diagnostics-sweep: big tables built at set-up, then every diagnostic

def markov_verdict_ok(meter: Meter, report, gap_tol: float) -> bool:
    """Uniform-convergence verdict of a Markov model, checked against the
    report's own documented ladder.

    Past the Markov radius every sup-gap is zero up to float rounding, so
    the last gap must be within gap_tol. The ladder then asks for a
    non-increasing tail of the last three gaps: rounding noise of 1e-16
    can break that and turn the verdict into "inconclusive". That outcome
    is what the ladder prescribes, so it is accepted, and every occurrence
    is counted in the run record as a known defect of the ladder.
    """
    gaps = [float(stage.sup_gap) for stage in report.stages]
    tail = gaps[-3:]
    if report.witness is not None or gaps[-1] > gap_tol:
        return False
    if all(a >= b for a, b in zip(tail, tail[1:])):
        return report.verdict == g.diagnostics.UNIFORM_EVIDENCE
    meter.note("uniform verdict lost to rounding noise in a non-increasing-tail test")
    return report.verdict == g.diagnostics.INCONCLUSIVE


class DiagnosticsSweep:
    """Diagnostics on an Ising table of 2**13 entries, a Bernoulli product
    and the example2 mixture, plus the reproduce and diagnose commands."""

    SIZES = {"full": {"window": 13, "sites": 3}, "tiny": {"window": 7, "sites": 1}}

    def __init__(self, seed: int, size: str, flip_controls: bool = False):
        self.flip = flip_controls
        plan = self.SIZES[size]
        rng = random.Random(seed)
        beta = round(rng.uniform(0.2, 0.6), 4)
        p = Fraction(rng.randint(1, 6), 7)
        self.ising = g.ising_demo(beta, window=plan["window"])
        self.ising_table = self.ising.marginal(self.ising.window)
        self.product = g.bernoulli_product(p, plan["window"])
        self.mixture = g.example2_model(1, g.line_window(325))
        # the sites closest to the centre, so that every box of the
        # filtration fits in the window and every seed does the same work
        radii = list(range(1, (plan["window"] - 1) // 2))
        self.targets = []
        for t in range(-(plan["sites"] // 2), plan["sites"] - plan["sites"] // 2):
            F = g.box_filtration(t, radii, self.ising.window)
            F2 = g.box_filtration(t, radii[1::2], self.ising.window)
            self.targets.append((t, F, F2))
        spin, binary = self.ising.alphabet, self.product.alphabet
        self.families = {
            "spin": g.mixed_family(spin, seeds=(rng.randrange(1000), rng.randrange(1000))),
            "binary": g.mixed_family(binary, seeds=(rng.randrange(1000), rng.randrange(1000))),
        }
        self.probes = {(t, a): g.locality_probe_family(a, F)
                       for t, F, _ in self.targets for a in (spin, binary)}
        self.mix_F = g.box_filtration(0, [6, 18, 54, 162], self.mixture.window)
        self.mix_families = [
            g.mixed_family(binary, include_oscillating=True, include_half=True),
            g.BoundaryFamily((g.oscillating_density_boundary(start="high"),
                              g.oscillating_density_boundary(start="low")),
                             "oscillating-density"),
            g.locality_probe_family(binary, self.mix_F),
        ]
        self.out = OUT_DIR / "diagnostics-sweep"

    def run_pass(self, meter: Meter) -> None:
        ising = self.ising
        fresh = meter.op(returned, g.table_field, ising.window, ising.alphabet,
                         self.ising_table)
        for t, F, F2 in self.targets:
            for model, fam_key in ((fresh, "spin"), (self.product, "binary")):
                family = self.families[fam_key]
                probe = self.probes[(t, model.alphabet)]
                entries = len(model.alphabet.symbols)
                self._report(meter, g.uniform_convergence_report, (model, t, F, family, TOL),
                             lambda r: markov_verdict_ok(meter, r, TOL),
                             len(family) * len(F) * entries)
                self._report(meter, g.quasilocality_report, (model, t, F, probe, TOL),
                             lambda r: r["verdict"] == g.diagnostics.QUASILOCAL_EVIDENCE, 0)
                self._report(meter, g.energy_criterion_report, (model, t, F, probe, TOL),
                             lambda r: r["verdict"] == g.diagnostics.QUASILOCAL_EVIDENCE, 0)
                self._report(meter, g.filtration_independence_check,
                             (model, t, F, F2, family, TOL), lambda r: r[0] is True,
                             len(family) * entries)
        mix = self.mixture
        for family in self.mix_families:
            self._report(meter, g.uniform_convergence_report, (mix, 0, self.mix_F, family, 1e-9),
                         lambda r: r.verdict == g.diagnostics.DIVERGENCE_WITNESS,
                         len(family) * len(self.mix_F) * 2)
        self._report(meter, g.quasilocality_report,
                     (mix, 0, self.mix_F, self.mix_families[-1], 1e-9),
                     lambda r: r["verdict"] == g.diagnostics.NONLOCALITY_WITNESS, 0)
        self._report(meter, g.non_gibbs_witness, (mix, 0, self.mix_F),
                     lambda r: r is not None, 2 * len(self.mix_F) * 2)
        out = str(self.out)
        for example in ("example1", "example2"):
            meter.cli(["reproduce", example, "--check", "--out", out], 0,
                      f"diagnostics-sweep/reproduce_{example}.json")
        meter.cli(["diagnose", "--model", "example2:tau=1,window=325", "--out", out],
                  0 if self.flip else 2, "diagnostics-sweep/diagnose.json")
        meter.cli(["diagnose", "--model", "ising:beta=0.4,window=9", "--out", out], 0,
                  "diagnostics-sweep/diagnose.json")

    @staticmethod
    def _report(meter: Meter, fn, args, verdict, tuples: int) -> None:
        """A diagnostic report: checks its verdict and the digest of its JSON."""
        def check(report):
            if report is None or not verdict(report):
                return False
            payload = report.to_json_dict() if hasattr(report, "to_json_dict") else report
            text = json.dumps(payload, sort_keys=True, default=str)
            return meter.same_digest(text.encode())

        meter.op(check, fn, *args, tuples=tuples)


WORKLOADS = {
    "exact-identities": ExactIdentities,
    "potential-validate": PotentialValidate,
    "diagnostics-sweep": DiagnosticsSweep,
}
