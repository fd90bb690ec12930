"""Metric catalog and the derivation of per-layer metrics from spans.

Every metric carries its unit, its direction and, for per-layer metrics, the
end-to-end metric it should move and on which workload.  ``BENCHMARK.json``
lists the same names, units and directions; ``test_bench.py`` keeps the two
in step.
"""

from __future__ import annotations

MODULES = ("kernels", "families", "poisson", "adaptation", "ledger", "rwm", "cli")
SCHEMES = ("constant", "rate", "mean", "rare")
ALL = "certify, ensemble-wide, chains-long"

# (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# (name, unit, better, should move)
PER_LAYER = (
    [(f"{m}.import_s", "s", "lower", f"setup_s on {ALL}") for m in MODULES]
    + [
        ("kernels.fit_ergodicity_constants.s", "s", "lower",
         "run_s on certify; about 0 elsewhere"),
        ("kernels.fit_ergodicity_constants.self_s", "s", "lower", "run_s on certify"),
        ("kernels.fit_ergodicity_constants.calls", "count", "lower", "run_s on certify"),
        ("kernels.sup_tv_to_pi_curve.s", "s", "lower", "run_s on certify"),
        ("kernels.sup_tv_to_pi_curve.calls", "count", "lower", "run_s on certify"),
        ("kernels.dobrushin_coefficient.s", "s", "lower", "run_s on certify"),
        ("kernels.dobrushin_coefficient.calls", "count", "lower", "run_s on certify"),
        ("kernels.validate_ergodicity_constants.s", "s", "lower", "run_s on certify"),
        ("kernels.stationary_distribution.s", "s", "lower", "run_s on certify"),
        ("kernels.max_tv_between_kernels.s", "s", "lower", "run_s on certify and chains-long"),
        ("kernels.cert_bound", "1", "lower", "nothing: a faster certificate must not get looser"),
        ("poisson.solve_poisson_exact.s", "s", "lower", f"run_s on {ALL}"),
        ("poisson.solve_poisson_exact.calls", "count", "lower", f"run_s on {ALL}"),
        ("poisson.solve_poisson_exact.calls_per_distinct_kernel", "1", "lower",
         "run_s on chains-long (repeated solves of one kernel)"),
        ("poisson.clt_variance.s", "s", "lower", "run_s on ensemble-wide"),
        ("rwm.build_discrete_rwm.s", "s", "lower", f"run_s on {ALL} (small share)"),
        ("rwm.build_discrete_rwm.calls", "count", "lower", f"run_s on {ALL} (small share)"),
        ("families.KernelFamily.s", "s", "lower", f"run_s on {ALL} (small share)"),
        ("ledger.clt_study.s", "s", "lower", "run_s on ensemble-wide"),
        ("ledger.ensemble.ns_per_step_rep.wide", "ns", "lower", "run_s on ensemble-wide"),
        ("ledger.lln_study.s", "s", "lower", "run_s on chains-long"),
        ("ledger.ensemble.ns_per_step_rep.narrow", "ns", "lower", "run_s on chains-long"),
    ]
    + [(f"ledger.run_adaptive_chain.us_per_step.{s}", "us", "lower", "run_s on chains-long")
       for s in SCHEMES]
    + [
        ("ledger.decompose.ns_per_step", "ns", "lower", "run_s on chains-long"),
        ("ledger.write_ledger_csv.us_per_row", "us", "lower", "run_s on chains-long"),
        ("ledger.martingale_check.ns_per_step", "ns", "lower",
         "run_s and peak_rss_mb on chains-long"),
    ]
    + [(f"adaptation.scheme_us_per_step.{s}", "us", "lower", "run_s on chains-long")
       for s in SCHEMES[1:]]
    + [("adaptation.waning_diagnostic.s", "s", "lower", "run_s on chains-long")]
    + [
        (f"cli.{cmd}.{part}", "s", "lower", f"run_s on {wl}")
        for cmd, wl in (("bounds", "certify"), ("kernel-info", "certify"),
                        ("clt", "ensemble-wide"), ("lln", "chains-long"))
        for part in ("s", "self_s")
    ]
    + [("trace.overhead_s", "s", "lower", "nothing: traced run_s minus untraced run_s")]
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}

# Functions the tracer wraps: (module, attribute, keyed).  The spans of a keyed
# function carry a content key of its kernel argument.
TRACED = [
    ("kernels", "fit_ergodicity_constants", False),
    ("kernels", "sup_tv_to_pi_curve", False),
    ("kernels", "dobrushin_coefficient", False),
    ("kernels", "validate_ergodicity_constants", False),
    ("kernels", "stationary_distribution", False),
    ("kernels", "max_tv_between_kernels", False),
    ("poisson", "solve_poisson_exact", True),
    ("poisson", "clt_variance", False),
    ("rwm", "build_discrete_rwm", False),
    ("families", "KernelFamily.__init__", False),
    ("ledger", "clt_study", False),
    ("ledger", "lln_study", False),
    ("ledger", "run_adaptive_chain", False),
    ("ledger", "decompose", False),
    ("ledger", "martingale_check", False),
    ("ledger", "write_ledger_csv", False),
    ("adaptation", "waning_diagnostic", False),
]


def _per(value: float, count: float, scale: float) -> float:
    return value / count * scale if count else 0.0


def layer_metrics(totals: dict, work: dict, extra: dict) -> dict:
    """Per-layer values of one traced iteration.

    ``totals`` maps span names to summed ``s``/``self_s``/``calls``/``keys``;
    ``work`` holds the iteration's work counts (steps, rows); ``extra`` holds
    values the workload computed itself.  A function the workload never calls
    reads 0.
    """
    zero = {"s": 0.0, "self_s": 0.0, "calls": 0, "keys": set()}

    def t(name):
        return totals.get(name, zero)

    out = {}
    for name in (
        "kernels.fit_ergodicity_constants", "kernels.sup_tv_to_pi_curve",
        "kernels.dobrushin_coefficient", "kernels.validate_ergodicity_constants",
        "kernels.stationary_distribution", "kernels.max_tv_between_kernels",
        "poisson.solve_poisson_exact", "poisson.clt_variance", "rwm.build_discrete_rwm",
        "families.KernelFamily", "ledger.clt_study", "ledger.lln_study",
        "adaptation.waning_diagnostic",
    ):
        out[f"{name}.s"] = t(name)["s"]
        out[f"{name}.self_s"] = t(name)["self_s"]
        out[f"{name}.calls"] = t(name)["calls"]
    solve = t("poisson.solve_poisson_exact")
    out["poisson.solve_poisson_exact.calls_per_distinct_kernel"] = _per(
        solve["calls"], len(solve["keys"]), 1.0)
    out["kernels.cert_bound"] = extra.get("cert_bound", 0.0)
    out["ledger.ensemble.ns_per_step_rep.wide"] = _per(
        t("ledger.clt_study")["self_s"], work.get("wide_step_reps", 0), 1e9)
    out["ledger.ensemble.ns_per_step_rep.narrow"] = _per(
        t("ledger.lln_study")["self_s"], work.get("narrow_step_reps", 0), 1e9)
    chain_steps = work.get("chain_steps", 0)
    for s in SCHEMES:
        out[f"ledger.run_adaptive_chain.us_per_step.{s}"] = _per(
            t(f"chain.{s}")["s"], chain_steps, 1e6)
    for s in SCHEMES[1:]:
        out[f"adaptation.scheme_us_per_step.{s}"] = (
            out[f"ledger.run_adaptive_chain.us_per_step.{s}"]
            - out["ledger.run_adaptive_chain.us_per_step.constant"])
    decomposed = work.get("decomposed_steps", 0)
    out["ledger.decompose.ns_per_step"] = _per(t("ledger.decompose")["self_s"], decomposed, 1e9)
    out["ledger.martingale_check.ns_per_step"] = _per(
        t("ledger.martingale_check")["self_s"], decomposed, 1e9)
    out["ledger.write_ledger_csv.us_per_row"] = _per(
        t("ledger.write_ledger_csv")["s"], work.get("ledger_rows", 0), 1e6)
    for cmd in ("bounds", "kernel-info", "clt", "lln"):
        out[f"cli.{cmd}.s"] = t(f"cli.{cmd}")["s"]
        out[f"cli.{cmd}.self_s"] = t(f"cli.{cmd}")["self_s"]
    return {k: v for k, v in out.items() if k in UNITS}
