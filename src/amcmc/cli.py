"""Config-driven experiment runner.

Each subcommand loads a declarative JSON config (flags override config
fields, environment variables with the ``AMCMC_`` prefix sit between) and
runs one named experiment.  A command only computes: it returns its tables,
a summary and an exit code, and :func:`_finish` writes them as plot-ready
CSV/JSON artifacts plus a run record keyed by the config hash.  The exit
code is 0 when every embedded check passes, 2 when an expected failure was
demonstrated, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from . import adaptation, families, kernels, ledger, poisson, rwm
from .errors import AmcmcError, ConfigError
from .kernels import Distribution
from .poisson import TestFunction

ENV_PREFIX = "AMCMC_"

EXIT_PASS = 0
EXIT_UNEXPECTED = 1
EXIT_EXPECTED_FAILURE = 2

# Upper bounds on size fields: (largest value, the budget it keeps a run
# within), measured on one core of a 2.0 GHz Xeon.
# A certificate walks one matrix power per unit of horizon and member;
# ``fit_ergodicity_constants`` spends about 7.5 ms a power at 200 states.
HORIZON_CAP = (1024, "about 8 s of matrix powers per 200-state member")
# ``waning`` holds its series, 8 bytes a step; at the cap bernoulli-log took
# 5.6-6.1 s and rare-log 1.1-1.3 s here, each peaking at 116 MB RSS.
D_SERIES_CAP = (10_000_000, "about 0.12 GB and 8 s of steps")
# An ensemble (``clt``'s replications, ``lln``'s seeds.count) holds 256 rows
# of uniforms at 10**4 replications, 20 MB; ``clt`` peaks at 78 MB RSS here.
ENSEMBLE_CAP = (10_000, "about 80 MB and 0.4 ms a step on 400 states")
# A run length (``clt``'s n, an ``lln`` n_grid entry) sets a schedule of 8 bytes a step.
RUN_LENGTH_CAP = (10_000_000, "about 80 MB of schedule and 3 us a step for 32 chains on 3 "
                              "states, 0.06 ms for 1000 on 400")
# An ensemble's steps times its replications (``clt``'s n * replications,
# ``lln``'s max(n_grid) * len(seeds)); on 400 states ``clt`` took 40 to 60 ns
# a step and replication at 10**4 and 1000 replications.  Below that, fixed
# per-step costs dominate and the run-length cap bounds a run.
STEP_REPLICATION_CAP = (1_000_000_000, "about 60 s of lockstep steps for 1000 or more "
                                       "replications on 400 states")
# A family's count sets ``bounds``' count**2 / 2 Lipschitz reports; at 300
# members ``bounds`` takes 3 s and peaks at 105 MB RSS here, at 1000 19 s and 0.8 GB.
FAMILY_COUNT_CAP = (300, "about 45000 reports, 3 s and 0.1 GB of bounds")
# An explicit family's state count (an ``iid`` or ``random-metropolis`` ``pi``,
# a kernel file's ``n``) has the ``rwm-grid`` lane's measured cap.
STATE_CAP = (rwm.DEFAULT_STATE_CAP, rwm.STATE_CAP_BUDGET)


# ---------------------------------------------------------------------------
# configuration plumbing


@dataclass
class RunConfig:
    """Validated experiment configuration."""

    experiment: str
    raw: dict
    seed: int
    out: Path
    fmt: str

    @property
    def hash(self) -> str:
        """SHA-256 of the canonical JSON of the config, experiment, seed and format."""
        payload = {**self.raw, "experiment": self.experiment, "seed": self.seed, "format": self.fmt}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def require(self, key):
        if key not in self.raw:
            raise ConfigError(f"config field {key!r} is required for {self.experiment}")
        return self.raw[key]

    def scalar(self, name: str, kind: type, default=None, least=None, choices=None, below=None,
               cap=None):
        """Field ``name`` converted by ``kind`` (``int``, ``float``, ``str``
        or ``bool``) and checked by :func:`_typed` against ``least``,
        ``choices``, ``below`` and ``cap``.

        A dotted name such as ``"d_series.n"`` reads a field of a nested
        object.  A missing field gives ``default``, or is an error when
        there is none; so is a value ``kind`` cannot convert.
        """
        *parents, key = name.split(".")
        obj = self.raw
        for depth, part in enumerate(parents):
            obj = obj.get(part, {})
            if not isinstance(obj, dict):
                where = ".".join(parents[: depth + 1])
                raise ConfigError(f"config field {where!r} must be an object")
        if key not in obj:
            if default is None:
                raise ConfigError(f"config field {name!r} is required for {self.experiment}")
            return default
        return _typed(name, obj[key], kind, least, choices, below, cap)


def _typed(name: str, value, kind: type, least=None, choices=None, below=None, cap=None):
    """``kind(value)``, with a failed conversion or a broken range rule
    reported as a ConfigError.

    A ``bool`` or ``str`` must be given as one, and a number never as a
    bool.  An ``int`` must be integral (``7``, ``7.0`` or ``"7"``, never
    ``2.9`` or ``1e400``), ``>= least`` and, given ``below`` (the bound a
    family sets on a state or member index), ``< below``, and given ``cap``
    (a size's largest value and the budget it stands for), ``<= cap[0]``.
    A ``float`` must be finite, and ``> least`` when one is given.
    ``choices`` lists the allowed values.
    """
    if kind is bool and not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    if (
        kind is str and not isinstance(value, str)
        or kind is not bool and isinstance(value, bool)
        or kind is int and isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    try:
        v = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}") from exc
    if choices is not None and v not in choices:
        raise ConfigError(f"{name} must be one of {'|'.join(choices)}, got {value!r}")
    if below is not None and not least <= v < below:
        raise ConfigError(f"{name}={v} outside [{least}, {below})")
    if kind is int and not (least is None or least <= v):
        raise ConfigError(f"{name} must be >= {least}, got {v}")
    if cap is not None and v > cap[0]:
        raise ConfigError(f"{name}={v} exceeds {cap[0]}, the budget of {cap[1]}")
    if kind is float and not (math.isfinite(v) and (least is None or least < v)):
        rule = "finite" if least is None else f"> {least} and finite"
        raise ConfigError(f"{name} must be {rule}, got {v}")
    return v


def _typed_list(name: str, value, kind: type, least=None, below=None, cap=None) -> list:
    """A non-empty list field, each entry checked by :func:`_typed`."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{name} must be a list of one or more {kind.__name__}s, got {value!r}")
    return [_typed(name, v, kind, least, below=below, cap=cap) for v in value]


def _fields(name: str, spec: dict, *fields: str) -> None:
    """Refuse a key of ``spec`` outside ``fields``, such as a misspelt one."""
    unknown = [key for key in spec if key not in fields]
    if unknown:
        name += f" {spec['kind']!r}" if "kind" in fields else ""
        raise ConfigError(f"{name} has no field {unknown[0]!r}; it reads {', '.join(fields)}")


def _interval(name: str, value) -> tuple:
    """``[lo, hi]``: two finite numbers with ``lo < hi``, kept as given."""
    ok = (
        isinstance(value, list)
        and len(value) == 2
        and all(type(v) in (int, float) and -math.inf < v < math.inf for v in value)
        and value[0] < value[1]
    )
    if not ok:
        raise ConfigError(f"{name} must be [lo, hi] with finite lo < hi, got {value!r}")
    return value[0], value[1]


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8 text, or not JSON
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    return cfg


def _setting(flag, name: str, cfg: dict, default):
    """``flag`` when given, else ``AMCMC_<NAME>``, else config field ``name``."""
    value = flag if flag is not None else os.environ.get(ENV_PREFIX + name.upper())
    return cfg.get(name, default) if value is None else value


def build_run_config(args, experiment: str) -> RunConfig:
    cfg = _load_config_file(args.config)
    _fields("config", cfg, *sorted(CONFIG_FIELDS))
    return RunConfig(
        experiment=experiment,
        raw=cfg,
        seed=_typed("seed", _setting(args.seed, "seed", cfg, 0), int, least=0),
        out=Path(_typed("out", _setting(args.out, "out", cfg, "runs"), str)),
        fmt=_typed("format", _setting(args.format, "format", cfg, "csv"), str,
                   choices=("csv", "json")),
    )


# ---------------------------------------------------------------------------
# config specs -> objects


def _spec_errors(what: str):
    """Report a builder's plain ValueError/KeyError/TypeError, or an OSError
    from reading a file it names, as a ConfigError.

    Errors from this package keep their own type, so library failures such
    as a reducible kernel file stay distinguishable from malformed specs.
    """

    def wrap(builder):
        @functools.wraps(builder)
        def build(*args, **kwargs):
            try:
                return builder(*args, **kwargs)
            except AmcmcError:
                raise
            except KeyError as exc:
                raise ConfigError(f"{what} spec is missing field {exc.args[0]!r}") from exc
            except (ValueError, TypeError, OSError) as exc:
                raise ConfigError(f"{what} spec: {exc}") from exc

        return build

    return wrap


@_spec_errors("family")
def build_family(spec: dict) -> families.KernelFamily:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("family spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "cyclic-pair":
        _fields("family", spec, "kind")
        return families.cyclic_pair()
    if kind == "iid":
        _fields("family", spec, "kind", "pi")
        pi = _typed_list("family.pi", spec.get("pi", [0.5, 0.25, 0.25]), float)
        _typed("len(family.pi)", len(pi), int, cap=STATE_CAP)
        return families.iid_family(Distribution(pi))
    if kind == "mixture":
        _fields("family", spec, "kind", "count")
        base = families.cyclic_pair()
        count = _typed("family.count", spec.get("count", 10), int, least=2, cap=FAMILY_COUNT_CAP)
        return families.mixture_family(base.kernels[0], base.kernels[1], base.pi, count)
    if kind == "smoothed-cyclic":
        _fields("family", spec, "kind", "epsilon")
        eps = _typed("family.epsilon", spec.get("epsilon", 0.2), float, least=0)
        return families.smoothed_family(families.cyclic_pair(), eps)
    if kind == "random-metropolis":
        _fields("family", spec, "kind", "pi", "count", "seed")
        pi = _typed_list("family.pi", spec.get("pi", [0.4, 0.3, 0.2, 0.1]), float)
        _typed("len(family.pi)", len(pi), int, cap=STATE_CAP)
        return families.random_metropolis_family(
            Distribution(pi),
            count=_typed("family.count", spec.get("count", 2), int, least=1,
                         cap=FAMILY_COUNT_CAP),
            seed=_typed("family.seed", spec.get("seed", 7), int, least=0),
        )
    if kind == "file":
        _fields("family", spec, "kind", "paths")
        paths = _typed_list("family.paths", spec.get("paths"), str)
        # a file's n is capped before its rows become an array
        loaded = [kernels.read_kernel_json(p, check_n=functools.partial(
            _typed, f"family.paths[{i}].n", kind=int, least=1, cap=STATE_CAP))
            for i, p in enumerate(paths)]
        pi = next((p for _, p in loaded if p is not None), None)
        if pi is None:
            pi = kernels.stationary_distribution(loaded[0][0])
        return families.KernelFamily(kernels=tuple(P for P, _ in loaded), pi=pi)
    if kind == "rwm-grid":
        _fields("family", spec, "kind", "target", "a", "b", "sigmas")
        a = _typed("family.a", spec.get("a", 0.1), float, least=0)
        b = _typed("family.b", spec.get("b", 10.0), float, least=0)
        sigmas = _typed_list("family.sigmas", spec.get("sigmas"), float, least=0)
        _typed("len(family.sigmas)", len(sigmas), int, cap=FAMILY_COUNT_CAP)
        target = build_target(spec["target"])
        _typed("target.m**target.d", target.n_states, int, cap=STATE_CAP)
        # each entry is a variance: the isotropic covariance v * I_d
        params = [rwm.RwmParameter(Sigma=v * np.eye(target.d), a=a, b=b) for v in sigmas]
        mats = tuple(rwm.build_discrete_rwm(target, p) for p in params)
        pi = target.grid_distribution()
        return families.KernelFamily(kernels=mats, pi=pi, params=tuple(sigmas))
    raise ConfigError(f"unknown family kind {kind!r}")


@_spec_errors("target")
def build_target(spec: dict) -> rwm.CompactTarget:
    """The target of an ``rwm-grid`` family: ``{"d", "bounds": [[lo, hi], ...],
    "m", "density": {"kind": "uniform" | "truncated-gaussian" | "bimodal-mixture"
    | "table", ...}}``.  A truncated Gaussian's ``mean`` and ``sd`` are one
    number or one per axis; a bimodal mixture's ``centers`` are points of
    ``d`` coordinates, with one entry of ``weights`` per center; a table
    gives each grid cell's weight, row-major."""
    d = _typed("target.d", spec["d"], int, least=1)
    _fields("target", spec, "d", "bounds", "m", "density")
    bounds = [_interval("target.bounds", pair) for pair in spec["bounds"]]
    if len(bounds) != d:
        raise ConfigError(f"target.bounds must hold d={d} [lo, hi] pairs, got {len(bounds)}")
    m = _typed("target.m", spec["m"], int, least=2)
    density = spec["density"]
    kind = density["kind"]
    if kind == "uniform":
        _fields("density", density, "kind")
        return rwm.uniform_target(bounds, m)
    if kind == "truncated-gaussian":
        _fields("density", density, "kind", "mean", "sd")
        mean, sd = density.get("mean", 0.0), density.get("sd", 1.0)
        mean = _typed_list("density.mean", mean if isinstance(mean, list) else [mean], float)
        sd = _typed_list("density.sd", sd if isinstance(sd, list) else [sd], float, least=0)
        return rwm.truncated_gaussian_target(bounds, m, mean=mean, sd=sd)
    if kind == "bimodal-mixture":
        _fields("density", density, "kind", "centers", "sd", "weights")
        centers = [_typed_list("density.centers", c, float) for c in density["centers"]]
        sd = _typed("density.sd", density.get("sd", 0.5), float, least=0)
        weights = density.get("weights")
        if weights is not None:
            weights = _typed_list("density.weights", weights, float, least=0)
        return rwm.bimodal_mixture_target(bounds, m, centers, sd=sd, weights=weights)
    if kind == "table":
        _fields("density", density, "kind", "values")
        return rwm.table_target(bounds, m, _typed_list("density.values", density["values"], float))
    raise ConfigError(f"unknown density kind {kind!r}")


@_spec_errors("phi")
def build_phi(spec: dict, family: families.KernelFamily) -> TestFunction:
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("phi spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "indicator":
        _fields("phi", spec, "kind", "state")
        state = _typed("phi.state", spec.get("state", 0), int, least=0, below=family.n_states)
        return TestFunction.indicator(state, family.pi)
    if kind == "table":
        _fields("phi", spec, "kind", "values")
        return TestFunction.from_values(_typed_list("phi.values", spec["values"], float), family.pi)
    raise ConfigError(f"unknown phi kind {kind!r}")


@_spec_errors("scheme")
def build_scheme(spec: dict, family: families.KernelFamily, n: int) -> adaptation.ScheduleScheme:
    """Exogenous (fixed index sequence) scheme for the lockstep studies."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("scheme spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind in ("constant", "converging"):
        s0 = _typed("scheme.s0", spec.get("s0", 0), int, least=0, below=family.size)
    if kind == "constant":
        _fields("scheme", spec, "kind", "s0")
        return adaptation.ScheduleScheme(np.full(n + 1, s0))
    if kind == "alternating":
        _fields("scheme", spec, "kind", "s0")
        return adaptation.ScheduleScheme(np.arange(n + 1) % family.size)
    if kind == "schedule":
        _fields("scheme", spec, "kind", "s0", "indices")
        rule = f"scheme 'schedule' needs {n + 1} indices: scheme.indices"
        indices = _typed_list(rule, spec["indices"], int, least=0, below=family.size)
        if len(indices) < n + 1:
            raise ConfigError(f"{rule} has {len(indices)}")
        return adaptation.ScheduleScheme(indices)
    if kind == "converging":
        _fields("scheme", spec, "kind", "s0", "c", "exponent")
        scheme, _ = adaptation.converging_index_schedule(
            family,
            s0=s0,
            n=n,
            c=_typed("scheme.c", spec.get("c", 0.5), float),
            exponent=_typed("scheme.exponent", spec.get("exponent", 1.5), float, least=1),
        )
        return scheme
    raise ConfigError(f"unknown scheme kind {kind!r}")


# ---------------------------------------------------------------------------
# artifact writers


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_table(path: Path, table) -> None:
    """Write a ``(header, columns)`` table in the format ``path``'s suffix
    names, CSV by :func:`ledger.write_csv` or JSON records keyed by the
    header; a table given as text, such as a kernel file, is written as is."""
    if isinstance(table, str):
        path.write_text(table)
        return
    header, columns = table
    if path.suffix == ".json":
        rows = zip(*(np.asarray(c).tolist() for c in columns), strict=True)
        _write_json(path, [dict(zip(header, row, strict=True)) for row in rows])
        return
    ledger.write_csv(path, header, columns)


def _ergodicity_table(curves: dict) -> tuple:
    """The ``s,k,sup_tv`` table of each member's ``e(k)`` curve (``k`` from 1)."""
    lengths = [len(curve) for curve in curves.values()]
    ks = [np.arange(1, h + 1) for h in lengths]
    return ["s", "k", "sup_tv"], [np.repeat(list(curves), lengths), np.concatenate(ks),
                                  np.concatenate(list(curves.values()))]


def _finish(cfg: RunConfig, tables: dict, summary: dict, exit_code: int) -> int:
    """Write a finished run under ``OUT/<experiment>-<hash12>/``.

    ``tables`` maps a name to a table.  A name with a suffix, such as
    ``reports.json``, keeps that fixed format; the others take ``--format``.
    A prior record that cannot be read counts as a prior run without a date.
    """
    out_dir = cfg.out / f"{cfg.experiment}-{cfg.hash[:12]}"
    out_dir.mkdir(parents=True, exist_ok=True)
    files = [name if "." in name else f"{name}.{cfg.fmt}" for name in tables]
    for name, table in zip(files, tables.values()):
        _write_table(out_dir / name, table)
    record_path = out_dir / "record.json"
    prior = record_path.exists()
    if prior:
        try:
            created = json.loads(record_path.read_text()).get("created_utc")
        except (OSError, ValueError, AttributeError):
            created = None
        print(f"prior run detected: {record_path} (created {created})")
    record = {
        "config_hash": cfg.hash,
        "experiment": cfg.experiment,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "artifacts": files,
        "summary": summary,
        "prior_run": prior,
        "exit_code": exit_code,
    }
    _write_json(record_path, record)
    _write_json(out_dir / "summary.json", summary)
    status = {EXIT_PASS: "pass", EXIT_EXPECTED_FAILURE: "expected-failure-demonstrated"}.get(
        exit_code, "FAIL"
    )
    print(f"{cfg.experiment}: {status} (artifacts in {out_dir})")
    return exit_code


# ---------------------------------------------------------------------------
# commands: each returns (tables, summary, exit code) for _finish and
# writes no file


def cmd_counterexample(cfg: RunConfig) -> tuple:
    """Reproduce the alternating-kernel failure of the law of large numbers."""
    family = families.cyclic_pair()
    pi = family.pi
    phi = TestFunction.indicator(0, pi)
    checks: dict[str, bool] = {}

    residuals = [kernels.invariance_residual(pi, P) for P in family.kernels]
    checks["invariance"] = max(residuals) <= kernels.STATIONARY_TOL

    # alternating schedule: the transition producing X_k uses the forward
    # cycle for odd k, which pins the orbit to 2, 3, 2, 3, ... (1-based)
    n_orbit = 64
    indices = np.arange(n_orbit + 1) % 2
    X = ledger.run_adaptive_chain(
        family, adaptation.ScheduleScheme(indices), x0=1, s0=0, n=n_orbit, seed=cfg.seed
    ).X
    labels = X + 1
    checks["orbit"] = list(labels[:5]) == [2, 3, 2, 3, 2]
    prefix_avgs = np.cumsum(phi.values[X[1:]]) / np.arange(1, n_orbit + 1)
    checks["pinned_average"] = float(np.abs(prefix_avgs).max()) == 0.0

    curves = {}
    certificates = {}
    lln = {}
    n_mc = 100_000
    for s_idx, (name, P) in enumerate(zip(("forward", "backward"), family.kernels)):
        consts = kernels.fit_ergodicity_constants([P], pi, horizon=32)
        curves[name] = consts.curves[0]
        certificates[name] = {
            "C": consts.C,
            "rho": consts.rho,
            "beta": consts.beta,
            "horizon": consts.horizon,
        }
        sigma2 = poisson.clt_variance(P, pi, phi)
        Xs = ledger.run_adaptive_chain(
            family, adaptation.ConstantScheme(), x0=1, s0=s_idx, n=n_mc, seed=cfg.seed
        ).X
        avg = float(phi.values[Xs[1:]].mean())
        band = 3.0 * np.sqrt(sigma2 / n_mc)
        lln[name] = {
            "average": avg,
            "target": phi.mean_under_pi,
            "band_3se": float(band),
            "within_band": bool(abs(avg - phi.mean_under_pi) <= band),
        }
        checks[f"lln_{name}"] = lln[name]["within_band"]

    tables = {
        "orbit": (["k", "state_label"], [np.arange(n_orbit + 1), labels]),
        "ergodicity.csv": _ergodicity_table(curves),
    }
    for name, P in zip(("forward", "backward"), family.kernels):
        tables[f"kernel_{name}.json"] = kernels.kernel_json_text(P, pi)

    demonstrated = checks["orbit"] and checks["pinned_average"]
    sane = all(checks.values())
    summary = {
        "checks": checks,
        "invariance_residuals": residuals,
        "certificates": certificates,
        "single_kernel_lln": lln,
        "pinned_average": 0.0,
        "pi_phi": phi.mean_under_pi,
        "expected_failure_demonstrated": demonstrated,
    }
    code = EXIT_EXPECTED_FAILURE if (demonstrated and sane) else EXIT_UNEXPECTED
    return tables, summary, code


def cmd_lln(cfg: RunConfig) -> tuple:
    n_grid = _typed_list("n_grid", cfg.get("n_grid", [1000, 10000, 100000]), int, least=1,
                         cap=RUN_LENGTH_CAP)
    seeds_spec = cfg.get("seeds", {"count": 16})
    if isinstance(seeds_spec, dict):
        _fields("seeds", seeds_spec, "count")
        count = cfg.scalar("seeds.count", int, 16, least=1, cap=ENSEMBLE_CAP)
        seeds = [cfg.seed + i for i in range(count)]
    else:
        seeds = _typed_list("seeds", seeds_spec, int, least=0)
        _typed("len(seeds)", len(seeds), int, cap=ENSEMBLE_CAP)
    _typed("max(n_grid) * len(seeds)", max(n_grid) * len(seeds), int, cap=STEP_REPLICATION_CAP)
    expect = cfg.scalar("expect", str, "converge", choices=("converge", "fail"))
    fail_threshold = cfg.scalar("fail_threshold", float, 0.1)
    family = build_family(cfg.require("family"))
    phi = build_phi(cfg.require("phi"), family)
    scheme = build_scheme(cfg.get("scheme", {"kind": "constant"}), family, max(n_grid))
    x0 = cfg.scalar("x0", int, 0, least=0, below=family.n_states)
    study = ledger.lln_study(family, scheme, phi, n_grid, seeds, x0=x0)

    grid = study["n_grid"]
    tables = {
        "lln": (["n", "seed", "error"], [np.repeat(grid, len(seeds)), np.tile(seeds, len(grid)),
                                        study["errors"].ravel()]),
        "lln_medians": (["n", "median_error"], [grid, study["medians"]]),
    }
    medians = study["medians"]
    converged = medians[-1] < medians[0] and study["slope"] < -0.2
    pinned = medians[-1] > fail_threshold
    summary = {
        "n_grid": study["n_grid"],
        "medians": medians,
        "slope": study["slope"],
        "expect": expect,
        "converged": bool(converged),
        "non_convergence_flagged": bool(pinned),
    }
    if expect == "fail":
        code = EXIT_EXPECTED_FAILURE if pinned else EXIT_UNEXPECTED
    else:
        code = EXIT_PASS if converged else EXIT_UNEXPECTED
    return tables, summary, code


def cmd_clt(cfg: RunConfig) -> tuple:
    n = cfg.scalar("n", int, 10000, least=1, cap=RUN_LENGTH_CAP)
    replications = cfg.scalar("replications", int, 1000, least=2, cap=ENSEMBLE_CAP)
    _typed("n * replications", n * replications, int, cap=STEP_REPLICATION_CAP)
    lo, hi = _interval("ratio_band", cfg.get("ratio_band", [0.85, 1.15]))
    family = build_family(cfg.require("family"))
    phi = build_phi(cfg.require("phi"), family)
    x0 = cfg.scalar("x0", int, 0, least=0, below=family.n_states)
    scheme = build_scheme(cfg.get("scheme", {"kind": "constant"}), family, n)
    study = ledger.clt_study(family, scheme, phi, n, replications, cfg.seed, x0=x0)
    tables = {
        "clt_replicates": (
            ["replication", "scaled_error"], [np.arange(replications), study["replicates"]]
        )
    }
    in_band = study["sigma2_oracle"] == 0.0 or (lo <= study["ratio"] <= hi)
    summary = {
        "empirical_var": study["empirical_var"],
        "sigma2_oracle": study["sigma2_oracle"],
        "ratio": study["ratio"],
        "ks_stat": study["ks_stat"],
        "ks_pvalue": study["ks_pvalue"],
        "ratio_band": [lo, hi],
        "in_band": bool(in_band),
        "n": n,
        "replications": replications,
        "limit_index": study["limit_index"],
    }
    return tables, summary, EXIT_PASS if in_band else EXIT_UNEXPECTED


def cmd_bounds(cfg: RunConfig) -> tuple:
    horizon = cfg.scalar("horizon", int, 32, least=2, cap=HORIZON_CAP)
    family = build_family(cfg.require("family"))
    phi = build_phi(cfg.require("phi"), family)
    consts = kernels.fit_ergodicity_constants(list(family.kernels), family.pi, horizon)
    sols = [poisson.solve_poisson_exact(P, family.pi, phi) for P in family.kernels]
    reports = [poisson.check_poisson_bound(sol, consts, phi) for sol in sols]
    for i in range(family.size):
        for j in range(i + 1, family.size):
            D = kernels.max_tv_between_kernels(family.kernel(i), family.kernel(j))
            reports.append(poisson.check_lipschitz_bound(sols[i], sols[j], D, consts, phi))
    table = (
        ["quantity", "value", "bound", "pass", "margin"],
        list(zip(*((r.quantity, r.value, r.bound, r.passed, r.margin) for r in reports))),
    )
    all_pass = all(r.passed for r in reports)
    summary = {
        "constants": {"C": consts.C, "rho": consts.rho, "beta": consts.beta},
        "n_reports": len(reports),
        "all_pass": bool(all_pass),
    }
    return {"reports.json": table}, summary, EXIT_PASS if all_pass else EXIT_UNEXPECTED


# d_series kind -> (schedule builder, default c)
RARE_SCHEDULES = {
    "rare-log": (adaptation.log_increment_schedule, 2.0),
    "bernoulli-log": (adaptation.bernoulli_log_schedule, 1.0),
}


def cmd_waning(cfg: RunConfig) -> tuple:
    kind = cfg.scalar("d_series.kind", str)
    n = cfg.scalar("d_series.n", int, 100_000, least=1, cap=D_SERIES_CAP)
    p = cfg.scalar("p", float, 1.0, least=0)
    expect = cfg.scalar("expect_waning", bool, True)
    if kind in RARE_SCHEDULES:
        _fields("d_series", cfg.get("d_series"), "kind", "n", "c", "epsilon")
        build, c = RARE_SCHEDULES[kind]
        sched = build(cfg.scalar("d_series.c", float, c, least=0),
                      cfg.scalar("d_series.epsilon", float, 0.1, least=0))
        # D_k is 1 exactly at the steps where the schedule adapts
        D = np.fromiter(islice(sched.run(ledger.ChainStream(cfg.seed)), n), np.float64, n)
    elif kind == "constant":
        _fields("d_series", cfg.get("d_series"), "kind", "n", "value")
        D = np.full(n, cfg.scalar("d_series.value", float, 0.05))
    else:
        raise ConfigError(f"unknown d_series kind {kind!r}")
    report = adaptation.waning_diagnostic(D, p)
    tables = {
        "waning": (
            ["n", "statistic", "weighted_sum"],
            [report.checkpoints, report.statistic, report.weighted_sums],
        )
    }
    matched = report.waning == expect
    summary = {
        "p": p,
        "checkpoints": [int(c) for c in report.checkpoints],
        "statistic": [float(s) for s in report.statistic],
        "tail_increment": report.tail_increment,
        "waning": report.waning,
        "expect_waning": expect,
        "matched": bool(matched),
    }
    return tables, summary, EXIT_PASS if matched else EXIT_UNEXPECTED


def cmd_poisson(cfg: RunConfig) -> tuple:
    tol = cfg.scalar("tol", float, 1e-9, least=0)
    horizon = cfg.scalar("horizon", int, 32, least=2, cap=HORIZON_CAP)
    family = build_family(cfg.require("family"))
    member = cfg.scalar("member", int, 0, least=0, below=family.size)
    phi = build_phi(cfg.require("phi"), family)
    P = family.kernel(member)
    sol = poisson.solve_poisson_exact(P, family.pi, phi)
    consts = kernels.fit_ergodicity_constants([P], family.pi, horizon)
    series = poisson.solve_poisson_neumann(P, family.pi, phi, tol, consts)
    gap = float(np.abs(sol.g - series.g).max())
    checks = {
        "residual": sol.residual_inf_norm <= poisson.RESIDUAL_TOL,
        "centering": abs(sol.pi_mean) <= poisson.CENTERING_TOL,
        "series_agreement": gap <= 2 * tol,
    }
    summary = {
        "residual_inf_norm": sol.residual_inf_norm,
        "pi_mean": sol.pi_mean,
        "sup_norm": sol.sup_norm,
        "series_gap": gap,
        "tol": tol,
        "checks": checks,
    }
    tables = {"solution.csv": (["state", "g"], [np.arange(P.n), sol.g])}
    return tables, summary, EXIT_PASS if all(checks.values()) else EXIT_UNEXPECTED


def cmd_kernel_info(cfg: RunConfig) -> tuple:
    horizon = cfg.scalar("horizon", int, 16, least=1, cap=HORIZON_CAP)
    family = build_family(cfg.require("family"))
    info = []
    curves = {}
    for idx, P in enumerate(family.kernels):
        d = kernels.stationary_distribution(P)
        beta = kernels.dobrushin_coefficient(P)
        curves[str(idx)] = kernels.sup_tv_to_pi_curve(P, family.pi, horizon)
        info.append({"index": idx, "n": P.n, "dobrushin": beta, "stationary": d.weights.tolist()})
        print(f"kernel {idx}: n={P.n} dobrushin={beta:.6f}")
    return {"ergodicity.csv": _ergodicity_table(curves)}, {"kernels": info}, EXIT_PASS


COMMANDS = {
    "counterexample": cmd_counterexample,
    "lln": cmd_lln,
    "clt": cmd_clt,
    "bounds": cmd_bounds,
    "waning": cmd_waning,
    "poisson": cmd_poisson,
    "kernel-info": cmd_kernel_info,
}

# A config's top-level fields: any command's, so that one config can serve
# several (``bounds`` and ``kernel-info``), and the settings.
CONFIG_FIELDS = frozenset({"seed", "out", "format", "family", "phi", "scheme", "x0", "horizon",
                           "member", "tol", "n", "replications", "ratio_band", "n_grid", "seeds",
                           "expect", "fail_threshold", "d_series", "p", "expect_waning"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="amcmc",
        description="Adaptive MCMC experiments with exact finite-state diagnostics.",
        epilog=(
            "Flags override AMCMC_SEED / AMCMC_OUT / AMCMC_FORMAT "
            "environment variables, which override config fields. "
            "Exit codes: 0 all checks pass, 2 expected failure demonstrated, "
            "1 unexpected failure."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root seed (U64)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--format", choices=("csv", "json"), default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = build_run_config(args, args.command)
        code = _finish(cfg, *COMMANDS[args.command](cfg))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_UNEXPECTED
    except (AmcmcError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_UNEXPECTED
    except MemoryError as exc:  # numpy raises a private subclass
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        code = EXIT_UNEXPECTED
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
