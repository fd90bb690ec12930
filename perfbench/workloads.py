"""The benchmark's three workloads: inputs from a seed, the run, the checks.

Every workload drives only names exported from ``amcmc`` and CLI
subcommands (in-process, through ``amcmc.cli.main``), passes no
``--threads`` and writes into a fresh ``--out`` directory, so the same
benchmark runs on both sides of a refactor.

Work sizes do not depend on the seed.  The seed moves the proposal variances
by up to 3%, picks the chains' start index and the recomputed replicates, and
seeds every random stream; the cost of a run stays the same from seed to seed.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
import random

import numpy as np

DEFAULT_SEED = 1
WORKLOADS = ("certify", "ensemble-wide", "chains-long")

# "full" is what the benchmark measures; "toy" keeps the self-tests fast.
SIZES = {
    "full": {
        "certify": {"m": 200, "horizon": 12},
        "ensemble-wide": {"m": 400, "n": 1250, "replications": 1000},
        "chains-long": {"m": 300, "members": 12, "n": 50_000, "lln_seeds": 32,
                        "n_grid": [1000, 10_000, 100_000]},
    },
    "toy": {
        "certify": {"m": 24, "horizon": 8},
        "ensemble-wide": {"m": 40, "n": 200, "replications": 40},
        "chains-long": {"m": 30, "members": 4, "n": 2000, "lln_seeds": 4,
                        "n_grid": [1000, 10_000]},
    },
}

# Tolerances as in the tier-1 tests; never looser.
IDENTITY_TOL_PER_STEP = 1e-9
TELESCOPE_TOL = 1e-10
COND_MEAN_TOL = 1e-10
COND_VAR_TOL = 1e-10
LEDGER_HEADER = "k,x,s_index,delta,M,A,R,D,cond_var"


class Checks:
    """Named pass/fail results; their failed share is ``checks_failed_frac``."""

    def __init__(self):
        self.items: list[dict] = []

    def add(self, name: str, passed, detail=None) -> None:
        self.items.append({"name": name, "pass": bool(passed), "detail": detail})


def canonical_hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _jitter(rng: random.Random, values, share: float = 0.03) -> list:
    return [round(v * (1.0 + share * (2.0 * rng.random() - 1.0)), 6) for v in values]


def _rwm_family_spec(m: int, sigmas: list) -> dict:
    return {
        "kind": "rwm-grid",
        "target": {"d": 1, "bounds": [[-3.0, 3.0]], "m": m,
                   "density": {"kind": "truncated-gaussian"}},
        "a": 0.01,
        "b": 10.0,
        "sigmas": sigmas,
    }


def make_inputs(workload: str, size: str, seed: int) -> dict:
    """Configs and parameters of one workload, a pure function of the seed."""
    p = SIZES[size][workload]
    rng = random.Random(f"{workload}:{seed}")
    m = p["m"]
    if workload == "certify":
        cfg = {
            "family": _rwm_family_spec(m, _jitter(rng, [0.5, 1.0, 1.5, 2.0])),
            "phi": {"kind": "indicator", "state": m // 2},
            "horizon": p["horizon"],
        }
        return {"configs": {"certify": cfg}, "seed": seed}
    if workload == "ensemble-wide":
        # Indicator of the central half of the grid: the clt variance ratio of a
        # one-state indicator is heavy-tailed enough to leave the CLI's band on
        # about one seed in ten.
        centers = -3.0 + (np.arange(m) + 0.5) * 6.0 / m
        cfg = {
            "family": _rwm_family_spec(m, _jitter(rng, [0.5, 1.0, 1.5, 2.0])),
            "phi": {"kind": "table", "values": [float(abs(c) < 0.674) for c in centers]},
            "scheme": {"kind": "converging"},
            "n": p["n"],
            "replications": p["replications"],
            "x0": m // 2,
        }
        picks = sorted(rng.sample(range(p["replications"]), 3))
        return {"configs": {"clt": cfg}, "seed": seed, "recheck": picks}
    if workload == "chains-long":
        sigmas = _jitter(rng, list(np.geomspace(0.1, 3.0, p["members"])))
        family = _rwm_family_spec(m, sigmas)
        lln = {
            "family": {"kind": "iid"},
            "phi": {"kind": "indicator", "state": 0},
            "n_grid": p["n_grid"],
            "seeds": {"count": p["lln_seeds"]},
        }
        chains = {"family": family, "phi_state": m // 2, "x0": m // 2,
                  "s0": rng.randrange(p["members"] // 4, 3 * p["members"] // 4),
                  "n": p["n"], "rare": {"kind": "bernoulli-log", "c": 1.0, "epsilon": 0.1}}
        return {"configs": {"chains": chains, "lln": lln}, "seed": seed}
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(inputs: dict, out: str) -> dict:
    paths = {}
    for name, cfg in inputs["configs"].items():
        paths[name] = os.path.join(out, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(cfg, fh, sort_keys=True)
    return paths


def _cli(amcmc, tracer, checks, cmd: str, config: str, out: str, seed: int) -> str:
    """Run one subcommand in-process; return its artifact directory."""
    with tracer.span(f"cli.{cmd}"):
        code = amcmc.cli.main([cmd, "--config", config, "--out", out, "--seed", str(seed)])
    checks.add(f"cli.{cmd}.exit_code", code == 0, code)
    found = glob.glob(os.path.join(out, f"{cmd}-*"))
    return found[0] if len(found) == 1 else os.path.join(out, f"{cmd}-missing")


def _read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _rwm_family(amcmc, spec: dict):
    """The ``rwm-grid`` family of a config and its target, built from exported
    names only, exactly as the CLI builds them."""
    t = spec["target"]
    target = amcmc.truncated_gaussian_target(np.asarray(t["bounds"], dtype=np.float64), t["m"])
    params = [amcmc.RwmParameter.from_scalar(float(s), spec["a"], spec["b"])
              for s in spec["sigmas"]]
    kernels = tuple(amcmc.build_discrete_rwm(target, q) for q in params)
    family = amcmc.KernelFamily(kernels=kernels, pi=target.grid_distribution(),
                                params=tuple(float(s) for s in spec["sigmas"]))
    return family, target


def run_certify(amcmc, inputs, paths, out, tracer, checks) -> dict:
    seed = inputs["seed"]
    cfg = inputs["configs"]["certify"]
    size = len(cfg["family"]["sigmas"])
    bounds_dir = _cli(amcmc, tracer, checks, "bounds", paths["certify"], out, seed)
    info_dir = _cli(amcmc, tracer, checks, "kernel-info", paths["certify"], out, seed)

    reports = _read_json(os.path.join(bounds_dir, "reports.json"))
    checks.add("bounds.report_count", len(reports) == size + size * (size - 1) // 2, len(reports))
    checks.add("bounds.all_reports_pass", all(r["pass"] for r in reports),
               min(r["margin"] for r in reports))
    consts = _read_json(os.path.join(bounds_dir, "summary.json"))["constants"]
    osc = 1.0  # oscillation of an indicator
    cert_bound = consts["C"] * osc / (1.0 - consts["rho"])
    checks.add("bounds.cert_bound_finite", math.isfinite(cert_bound) and cert_bound > 0,
               cert_bound)

    info = _read_json(os.path.join(info_dir, "summary.json"))["kernels"]
    checks.add("kernel_info.kernel_count", len(info) == size, len(info))
    checks.add("kernel_info.dobrushin_in_unit_interval",
               all(0.0 <= k["dobrushin"] <= 1.0 for k in info))
    curve = _read_csv(os.path.join(info_dir, "ergodicity.csv"))
    checks.add("kernel_info.curve_rows", len(curve) == 1 + size * cfg["horizon"], len(curve))
    return {"work": {}, "extra": {"cert_bound": cert_bound}, "digests": {}}


def run_ensemble_wide(amcmc, inputs, paths, out, tracer, checks) -> dict:
    seed = inputs["seed"]
    cfg = inputs["configs"]["clt"]
    n, reps = cfg["n"], cfg["replications"]
    clt_dir = _cli(amcmc, tracer, checks, "clt", paths["clt"], out, seed)
    rows = _read_csv(os.path.join(clt_dir, "clt_replicates.csv"))
    checks.add("clt.replicate_rows", len(rows) == reps + 1, len(rows))
    replicates = {int(r[0]): float(r[1]) for r in rows[1:]}

    # The lockstep ensemble must visit exactly the states single chains visit
    # on the same streams, so a few replicates are recomputed one at a time.
    family, _ = _rwm_family(amcmc, cfg["family"])
    phi = amcmc.TestFunction.from_values(cfg["phi"]["values"], family.pi)
    schedule, _ = amcmc.converging_index_schedule(family, s0=0, n=n, c=0.5, exponent=1.5)
    indices = schedule.index_array(n)
    for r in inputs["recheck"]:
        traj = amcmc.run_adaptive_chain(
            family, amcmc.ScheduleScheme(indices), cfg["x0"], int(indices[0]), n,
            np.random.SeedSequence(entropy=seed, spawn_key=(r,)))
        phi_sum = float(np.sum(phi.values[traj.X[1:]]))
        scaled = float(np.sqrt(n) * (phi_sum / n - phi.mean_under_pi))
        checks.add(f"clt.replicate_{r}_matches_single_chain", replicates.get(r) == scaled,
                   [replicates.get(r), scaled])
    return {"work": {"wide_step_reps": n * reps}, "extra": {}, "digests": {}}


def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<i8").tobytes())
    return h.hexdigest()


def run_chains_long(amcmc, inputs, paths, out, tracer, checks) -> dict:
    seed = inputs["seed"]
    cfg = inputs["configs"]["chains"]
    n = cfg["n"]
    family, target = _rwm_family(amcmc, cfg["family"])
    phi = amcmc.TestFunction.indicator(cfg["phi_state"], family.pi)
    grid = target.grid_points()[:, 0]
    rare = cfg["rare"]
    schemes = {
        "constant": amcmc.ConstantScheme(),
        "rate": amcmc.RateTargetScheme(family),
        "mean": amcmc.MeanTrackingScheme(family, grid**2),
        "rare": amcmc.RareCycleScheme(
            family, lambda: amcmc.bernoulli_log_schedule(rare["c"], rare["epsilon"])),
    }
    xs, ss = [], []
    prefixes = np.arange(1, n + 1, dtype=np.float64)
    for i, (name, scheme) in enumerate(schemes.items()):
        with tracer.span(f"chain.{name}"):
            traj = amcmc.run_adaptive_chain(
                family, scheme, cfg["x0"], cfg["s0"], n,
                np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        xs.append(traj.X)
        ss.append(traj.S)
        ledger = amcmc.decompose(traj, family, phi)
        mc = amcmc.martingale_check(traj, ledger, family)
        ident = ledger.identity_residuals()
        checks.add(f"{name}.identity_residual",
                   bool(np.all(ident <= IDENTITY_TOL_PER_STEP * prefixes)),
                   float(np.max(ident / prefixes)))
        tele = float(ledger.telescope_residuals(traj).max())
        checks.add(f"{name}.telescope_residual", tele <= TELESCOPE_TOL, tele)
        checks.add(f"{name}.max_abs_cond_mean", mc["max_abs_cond_mean"] <= COND_MEAN_TOL,
                   mc["max_abs_cond_mean"])
        checks.add(f"{name}.max_abs_cond_var_gap", mc["max_abs_cond_var_gap"] <= COND_VAR_TOL,
                   mc["max_abs_cond_var_gap"])
        if name == "rate":
            path = os.path.join(out, "ledger_rate.csv")
            amcmc.write_ledger_csv(path, traj, ledger)
            with open(path) as fh:
                header = fh.readline().strip()
                rows = sum(1 for _ in fh)
            checks.add("rate.ledger_csv_header", header == LEDGER_HEADER, header)
            checks.add("rate.ledger_csv_rows", rows == n, rows)
        if name == "rare":
            report = amcmc.waning_diagnostic(ledger.D, 1.0)
            checks.add("rare.waning_statistic_finite", bool(np.all(np.isfinite(report.statistic))))
        del ledger

    lln_dir = _cli(amcmc, tracer, checks, "lln", paths["lln"], out, seed)
    lln_rows = _read_csv(os.path.join(lln_dir, "lln.csv"))[1:]
    lln_cfg = inputs["configs"]["lln"]
    checks.add("lln.rows", len(lln_rows) == len(lln_cfg["n_grid"]) * lln_cfg["seeds"]["count"],
               len(lln_rows))
    # pi(phi) = 1/2 and every n is even, so n * error = |sum phi - n/2| is an integer
    deviations = sorted((int(r[0]), int(r[1]), round(float(r[2]) * int(r[0]))) for r in lln_rows)
    lln_steps = max(lln_cfg["n_grid"]) * lln_cfg["seeds"]["count"]
    return {
        "work": {"chain_steps": n, "decomposed_steps": n * len(schemes), "ledger_rows": n,
                 "narrow_step_reps": lln_steps},
        "extra": {},
        "digests": {"chains.X": _digest(xs), "chains.S": _digest(ss),
                    "lln.phi_sums": _digest([np.asarray(deviations).reshape(-1)])},
    }


RUNNERS = {"certify": run_certify, "ensemble-wide": run_ensemble_wide,
           "chains-long": run_chains_long}


def check_digests(checks: Checks, digests: dict, reference: dict | None) -> None:
    """Compare integer-trajectory digests against the committed reference."""
    for key, value in sorted(digests.items()):
        expected = (reference or {}).get(key)
        checks.add(f"digest.{key}", value == expected, {"got": value, "expected": expected})
