"""Benchmark of amcmc: three workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 3          # every workload, untraced and traced

Each iteration of a workload runs in a fresh interpreter (``worker.py``), one
at a time: a closed loop with one client and BLAS pinned to one thread.
Iterations repeat until ``--seconds`` would be exceeded and the medians are
reported.  With ``--trace 0`` the result line holds the end-to-end metrics;
with ``--trace 1`` untraced and traced iterations alternate, and the result
line holds the per-layer metrics from the traced ones plus the tracing
overhead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
DIGESTS = HERE / "digests.json"
BLAS_THREADS = "1"
IMPORTTIME_REPEATS = 3
# Every run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 165.0


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, broken import)."""


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("AMCMC_")}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def l3_cache() -> str:
    try:
        out = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                             text=True, timeout=10).stdout.strip()
        return f"{int(out) // 1024} KiB" if out and int(out) > 0 else "unknown"
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return "unknown"


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def environment(root: Path, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "l3_cache": l3_cache(),
        "git_commit": git_commit(root),
        "seed": seed,
    }


class Runner:
    """Spawns workers under one deadline and collects their records."""

    def __init__(self, root: Path, seed: int, size: str, digests: Path):
        self.root = root
        self.seed = seed
        self.size = size
        self.digests = digests
        self.env = child_env(root)
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.work = root / ".perfbench"
        self.work.mkdir(exist_ok=True)

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def warm_up(self) -> None:
        """Compile bytecode and fill the file cache once, untimed."""
        proc = subprocess.run([sys.executable, "-c", "import amcmc.cli"], env=self.env,
                              cwd=self.root, capture_output=True, text=True,
                              timeout=self._timeout())
        if proc.returncode != 0:
            raise BenchError("import amcmc.cli failed:\n" + proc.stderr.strip())

    def import_times(self) -> dict:
        """Median cumulative import time of each amcmc module, from -X importtime."""
        samples: dict[str, list] = {m: [] for m in metrics.MODULES}
        for _ in range(IMPORTTIME_REPEATS):
            # amcmc first, so that cli's line counts only what cli itself adds
            proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                   "import amcmc; import amcmc.cli"],
                                  env=self.env, cwd=self.root, capture_output=True, text=True,
                                  timeout=self._timeout())
            for line in proc.stderr.splitlines():
                parts = [p.strip() for p in line.split("|")]
                if len(parts) == 3 and parts[2].startswith("amcmc."):
                    mod = parts[2][len("amcmc."):]
                    if mod in samples:
                        samples[mod].append(int(parts[1]) * 1e-6)
        return {f"{m}.import_s": statistics.median(v) if v else 0.0 for m, v in samples.items()}

    def iteration(self, workload: str, traced: bool) -> dict:
        out = tempfile.mkdtemp(prefix=f"{workload}-", dir=self.work)
        try:
            spec = {"workload": workload, "size": self.size, "seed": self.seed,
                    "trace": int(traced), "out": out, "digests": str(self.digests),
                    "result": os.path.join(out, "result.json")}
            spec["t0"] = time.monotonic()
            proc = subprocess.run([sys.executable, str(WORKER), json.dumps(spec)], env=self.env,
                                  cwd=self.root, capture_output=True, text=True,
                                  timeout=self._timeout())
            if proc.returncode != 0 or not os.path.exists(spec["result"]):
                return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
            with open(spec["result"]) as fh:
                return json.load(fh)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def measure(self, workload: str, seconds: float, trace: bool) -> dict:
        """Iterate until the next iteration would overrun ``seconds``."""
        self.warm_up()
        imports = self.import_times() if trace else {}
        plain, traced = [], []
        start = time.monotonic()
        while True:
            if trace and len(plain) % 2:
                traced.append(self.iteration(workload, True))
                plain.append(self.iteration(workload, False))
            elif trace:
                plain.append(self.iteration(workload, False))
                traced.append(self.iteration(workload, True))
            else:
                plain.append(self.iteration(workload, False))
            elapsed = time.monotonic() - start
            per = elapsed / len(plain)
            if elapsed + per > seconds or time.monotonic() + 2 * per > self.deadline:
                break
        return summarize(workload, plain, traced, imports)


# The host's CPU speed moves by up to 1.9x for seconds at a time and only ever
# slows a run down, so times are reported as the best iteration of the run;
# the medians are printed next to them.
STATISTIC = {"setup_s": min, "run_s": min, "peak_rss_mb": statistics.median}


def stat_of(records: list, key: str) -> float:
    values = [r[key] for r in records if key in r]
    return STATISTIC[key](values) if values else float("nan")


def summarize(workload: str, plain: list, traced: list, imports: dict) -> dict:
    records = plain + traced
    good = [r for r in records if "error" not in r]
    attempted = sum(len(r["checks"]) for r in good) + (len(records) - len(good))
    failed = sum(not c["pass"] for r in good for c in r["checks"]) + (len(records) - len(good))
    plain_good = [r for r in plain if "error" not in r]
    e2e = {name: stat_of(plain_good, name) for name, _, _ in metrics.END_TO_END}
    layers = {}
    traced_good = [r for r in traced if "error" not in r]
    if traced_good:
        layers = dict(imports)
        for name in traced_good[0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in traced_good)
        layers["trace.overhead_s"] = stat_of(traced_good, "run_s") - e2e["run_s"]
    return {
        "workload": workload,
        "iterations": {"untraced": len(plain), "traced": len(traced)},
        "attempted": attempted,
        "failed": failed,
        "errors": [r["error"] for r in records if "error" in r],
        "failed_checks": sorted({c["name"] for r in good for c in r["checks"] if not c["pass"]}),
        "end_to_end": e2e,
        "per_layer": layers,
        "missing": sorted({m for r in traced_good for m in r.get("missing", [])}),
        "samples": {name: [r[name] for r in plain_good] for name, _, _ in metrics.END_TO_END},
        "traced_run_s_samples": [r["run_s"] for r in traced_good],
        "spans": [sp for r in traced_good for sp in r["spans"]],
        "config_hashes": good[0]["config_hashes"] if good else {},
        "openblas": good[0]["openblas"] if good else "unknown",
        "digests": good[0]["digests"] if good else {},
    }


def print_report(summary: dict) -> None:
    w = summary["workload"]
    frac = summary["failed"] / summary["attempted"] if summary["attempted"] else 1.0
    print(f"== {w}: {summary['iterations']} iterations, "
          f"checks_failed_frac {frac:.4g} ({summary['failed']}/{summary['attempted']})")
    for name in summary["failed_checks"]:
        print(f"   FAILED check {name}")
    for err in summary["errors"]:
        print(f"   ERROR {err}")
    for name, value in summary["end_to_end"].items():
        samples = summary["samples"].get(name) or [float("nan")]
        print(f"   {name:<58} {value:14.6g} {metrics.UNITS[name]:<6} "
              f"({STATISTIC[name].__name__} of {len(samples)}; median "
              f"{statistics.median(samples):.6g}, max {max(samples):.6g})")
    moves = {name: m for name, _, _, m in metrics.PER_LAYER}
    for name, value in summary["per_layer"].items():
        print(f"   {name:<58} {value:14.6g} {metrics.UNITS[name]:<6} moves {moves[name]}")
    if summary["per_layer"]:
        base = summary["end_to_end"]["run_s"]
        print(f"   tracing overhead: {summary['per_layer']['trace.overhead_s']:.4g} s "
              f"of untraced run_s {base:.4g} s")
    for name in summary["missing"]:
        print(f"   helper missing on this commit, its metric reads 0: {name}")


def result_line(summaries: list, trace: int | None) -> dict:
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    out = {}
    for s in summaries:
        chosen = {0: s["end_to_end"], 1: s["per_layer"]}.get(
            trace, {**s["end_to_end"], **s["per_layer"]})
        for name, value in chosen.items():
            key = name if len(summaries) == 1 else f"{s['workload']}/{name}"
            out[key] = {"value": value, "unit": metrics.UNITS[name]}
    return {"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed,
            "metrics": out}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics; default both")
    p.add_argument("--size", choices=("full", "toy"), default="full",
                   help="toy sizes are for the benchmark's own tests")
    p.add_argument("--digests", type=Path, default=DIGESTS,
                   help="reference digests of the integer trajectories")
    return p.parse_args(argv)


def main(argv=None) -> int:
    # On SIGTERM, unwind so that subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "amcmc" / "__init__.py").is_file():
        print("perfbench: src/amcmc not found; run from the repository root", file=sys.stderr)
        return 2
    selected = WORKLOADS if args.workload == "all" else (args.workload,)
    env = environment(root, args.seed)
    summaries = []
    try:
        for workload in selected:
            runner = Runner(root, args.seed, args.size, args.digests)
            summaries.append(runner.measure(workload, args.seconds, trace=args.trace != 0))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for s in summaries:
        if not s["samples"]["run_s"] or (args.trace != 0 and not s["per_layer"]):
            print(f"perfbench: every iteration of {s['workload']} failed:\n"
                  + "\n".join(s["errors"]), file=sys.stderr)
            return 1
        if s["spans"]:
            path = root / ".perfbench" / f"spans-{s['workload']}-seed{args.seed}.json"
            path.write_text(json.dumps(s["spans"]))
    for s in summaries:
        env.setdefault("openblas", s["openblas"])
        env.setdefault("config_hashes", {})[s["workload"]] = s["config_hashes"]
    print("environment " + json.dumps(env, sort_keys=True))
    for s in summaries:
        print_report(s)
        print("record " + json.dumps({k: s[k] for k in (
            "workload", "iterations", "samples", "traced_run_s_samples", "digests")},
            sort_keys=True))
    print(json.dumps(result_line(summaries, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
