"""Self-tests of the benchmark at toy sizes.

Run from the repository root:  python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "toy", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_its_unit(workload, trace):
    out = result_of(bench("--workload", workload, "--seed", str(DEFAULT_SEED),
                          "--trace", str(trace)))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = metrics.END_TO_END if trace == 0 else metrics.PER_LAYER
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m[0]: m[1] for m in expected}
    if trace == 0:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_corrupted_reference_digest_fails_a_check(tmp_path):
    digests = json.loads((HERE / "digests.json").read_text())
    entry = digests[f"toy/chains-long/seed={DEFAULT_SEED}"]
    entry["chains.X"] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests))
    out = result_of(bench("--workload", "chains-long", "--seed", str(DEFAULT_SEED),
                          "--trace", "0", "--digests", str(corrupted)))
    assert out["correct"] is False
    assert out["failed"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
