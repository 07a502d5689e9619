"""Names, units and directions of every metric the benchmark prints.

BENCHMARK.json lists the same names; selftest.py checks that they agree.
Each per-layer entry also names the end-to-end metric and workload it
should move, so a change that claims a gain can say which numbers it
expects to change before it is measured.
"""

# name: (unit, better, bound on the share of the parent's median it may worsen)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "run_s": ("s", "lower", 0.25),
    "checks_per_s": ("1/s", "higher", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_tail_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

EI, PV, DS = "exact-identities", "potential-validate", "diagnostics-sweep"

# name: (unit, better, what it should move)
PER_LAYER = {
    "lattice.concat.calls": ("count", "lower", f"run_s, op_p50_ms on {EI}"),
    "lattice.restrict.calls": ("count", "lower", f"run_s, op_p50_ms on {EI}"),
    "lattice.enumerate.calls": ("count", "lower", f"run_s, op_p50_ms on {EI}; setup_s on {DS}"),
    "lattice.enumerate.configs": ("count", "lower", f"run_s, op_p50_ms on {EI}; setup_s on {DS}"),
    "lattice.self_s": ("s", "lower", f"run_s, op_p50_ms on {EI}; setup_s on {DS}"),
    "fields.marginalize.calls": ("count", "lower", f"run_s, peak_rss_mb on {DS}"),
    "fields.marginalize.entries": ("count", "lower", f"run_s, peak_rss_mb on {DS}"),
    "fields.marginal.calls": ("count", "lower", f"run_s, peak_rss_mb on {DS}"),
    "fields.marginal.build_ratio": ("ratio", "lower", f"run_s, peak_rss_mb on {DS}"),
    "fields.largest_table": ("entries", "lower", f"peak_rss_mb on {DS}"),
    "fields.self_s": ("s", "lower", f"run_s, peak_rss_mb on {DS}"),
    "conditionals.finite_conditional.calls": ("count", "lower", f"checks_per_s on {EI}, {PV}"),
    "conditionals.kernel_cache.calls": ("count", "lower", f"checks_per_s on {EI}, {PV}"),
    "conditionals.kernel_cache.hit_ratio": ("ratio", "higher", f"checks_per_s on {EI}, {PV}"),
    "conditionals.reconstruct.calls": ("count", "lower", f"checks_per_s on {EI}, {PV}"),
    "conditionals.self_s": ("s", "lower", f"checks_per_s on {EI}, {PV}"),
    "energy.transition_energy.calls": ("count", "lower", f"op_p50_ms on {EI}"),
    "energy.ratio.calls": ("count", "lower", f"op_p50_ms on {EI}"),
    "energy.self_s": ("s", "lower", f"op_p50_ms on {EI}"),
    "specifications.tef_ratio.calls": ("count", "lower", f"checks_per_s on {PV}; setup_s on {DS}"),
    "specifications.hamiltonian.calls": ("count", "lower",
                                         f"checks_per_s on {PV}; setup_s on {DS}"),
    "specifications.tef_cache.hit_ratio": ("ratio", "higher", f"checks_per_s on {PV}"),
    "specifications.finite_volume_gibbs.configs": ("count", "lower", f"setup_s on {DS}"),
    "specifications.self_s": ("s", "lower", f"checks_per_s on {PV}; setup_s on {DS}"),
    "models.prob.calls": ("count", "lower", f"setup_s on {DS}"),
    "models.build_s": ("s", "lower", f"setup_s on {DS}"),
    "models.self_s": ("s", "lower", f"setup_s on {DS}"),
    "diagnostics.reports.calls": ("count", "lower", f"op_p50_ms on {DS}"),
    "diagnostics.generator_configs.calls": ("count", "lower", f"op_p50_ms on {DS}"),
    "diagnostics.self_s": ("s", "lower", f"op_p50_ms on {DS}"),
    "cli.commands.calls": ("count", "lower", f"run_s on {PV}"),
    "cli.report_bytes": ("bytes", "lower", f"run_s on {PV}"),
    "cli.self_s": ("s", "lower", f"run_s on {PV}"),
    "parallel.parallel_map.calls": ("count", "lower", "nothing at the default thread count"),
    "parallel.parallel_map.items": ("count", "lower", "nothing at the default thread count"),
    "parallel.self_s": ("s", "lower", "nothing at the default thread count"),
    "harness.self_s": ("s", "lower", "nothing: the benchmark's own checking time"),
    "trace.overhead_ratio": ("ratio", "lower", "nothing: traced / untraced pass time"),
    "trace.unattributed_ratio": ("ratio", "lower",
                                 "nothing: pass time outside spans and harness / pass time"),
}
