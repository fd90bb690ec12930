"""One iteration of one workload, in a fresh interpreter.

Started by ``run.py`` with a single JSON argument.  ``setup_s`` runs from the
parent's clock reading just before the spawn until ``import amcmc.cli``
returns, so it holds interpreter start and the import cost every CLI call
pays.  ``run_s`` runs from inputs written until every artifact is written and
every check has run.  The result goes to the JSON file the argument names.
"""

import json
import os
import resource
import sys
import time
import traceback


def openblas_version() -> str:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):  # the layout differs across versions
        return "unknown"


def main() -> None:
    spec = json.loads(sys.argv[1])
    import amcmc.cli  # the timed set-up

    setup_s = time.monotonic() - spec["t0"]

    import metrics
    import workloads
    from tracer import NullTracer, Tracer, kernel_key

    workload, size, seed, out = spec["workload"], spec["size"], spec["seed"], spec["out"]
    traced = bool(spec["trace"])
    tracer = Tracer(run_id=os.path.basename(out)) if traced else NullTracer()
    if traced:
        tracer.install("amcmc", [(m, a, kernel_key if keyed else None)
                                 for m, a, keyed in metrics.TRACED])
    with open(spec["digests"]) as fh:
        reference = json.load(fh).get(f"{size}/{workload}/seed={seed}")

    inputs = workloads.make_inputs(workload, size, seed)
    paths = workloads.write_configs(inputs, out)
    checks = workloads.Checks()
    result = {"work": {}, "extra": {}, "digests": {}}
    start = time.perf_counter()
    try:
        result = workloads.RUNNERS[workload](amcmc, inputs, paths, out, tracer, checks)
        if seed == workloads.DEFAULT_SEED and result["digests"]:
            workloads.check_digests(checks, result["digests"], reference)
    except Exception:  # a crash of the program under test is a failed check
        checks.add("workload.completed", False, traceback.format_exc(limit=8))
    run_s = time.perf_counter() - start

    record = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks.items,
        "digests": result["digests"],
        "config_hashes": {k: workloads.canonical_hash(v) for k, v in inputs["configs"].items()},
        "openblas": openblas_version(),
    }
    if traced:
        record["layers"] = metrics.layer_metrics(tracer.totals(), result["work"], result["extra"])
        record["missing"] = tracer.missing
        record["spans"] = [
            {"name": sp.name, "start": sp.start, "end": sp.end, "parent": sp.parent,
             "run_id": sp.run_id, **sp.attrs}
            for sp in tracer.spans
        ]
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
