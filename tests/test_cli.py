import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import amcmc
from amcmc import kernels
from amcmc.cli import (
    CONFIG_FIELDS,
    D_SERIES_CAP,
    ENSEMBLE_CAP,
    FAMILY_COUNT_CAP,
    HORIZON_CAP,
    RUN_LENGTH_CAP,
    STATE_CAP,
    STEP_REPLICATION_CAP,
    RunConfig,
    _write_table,
    build_family,
    build_scheme,
    build_target,
    main,
)
from amcmc.errors import ConfigError, NonPositiveDensity
from amcmc.families import cyclic_pair, smoothed_family
from amcmc.ledger import _CSV_BLOCK
from amcmc.rwm import DEFAULT_STATE_CAP, RwmParameter, build_discrete_rwm, table_target
from test_ledger import CSV_FLOATS, csv_writer_bytes, runs_of

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(amcmc.__file__).resolve().parent.parent


def run(argv):
    return main(argv)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_subprocess(argv, **env):
    return subprocess.run(
        [sys.executable, "-m", "amcmc", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR), **env),
    )


# a small valid rwm-grid family spec, for rows that break one of its fields
RWM_GRID = {"kind": "rwm-grid", "sigmas": [0.5, 1.0],
            "target": {"d": 1, "bounds": [[-3.0, 3.0]], "m": 8,
                       "density": {"kind": "truncated-gaussian"}}}


# mixes at rate 0.1, so a long horizon takes the curve's rounding floor
# over rho**k
FAST_MIXING = {"kind": "smoothed-cyclic", "epsilon": 0.9}


def only_run_dir(out_dir, experiment):
    dirs = [p for p in Path(out_dir).iterdir() if p.name.startswith(experiment)]
    assert len(dirs) == 1
    return dirs[0]


class TestCounterexample:
    def test_demonstrates_expected_failure(self, tmp_path):
        code = run(["counterexample", "--out", str(tmp_path), "--seed", "1"])
        assert code == 2
        run_dir = only_run_dir(tmp_path, "counterexample")
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["expected_failure_demonstrated"]
        assert max(summary["invariance_residuals"]) <= 1e-12
        assert summary["pinned_average"] == 0.0
        assert summary["pi_phi"] == 0.5
        orbit = (run_dir / "orbit.csv").read_text().strip().splitlines()
        labels = [int(line.split(",")[1]) for line in orbit[1:6]]
        assert labels == [2, 3, 2, 3, 2]

    def test_byte_identical_rerun_and_prior_detection(self, tmp_path):
        run(["counterexample", "--out", str(tmp_path), "--seed", "1"])
        run_dir = only_run_dir(tmp_path, "counterexample")
        first = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.suffix == ".csv"}
        code = run(["counterexample", "--out", str(tmp_path), "--seed", "1"])
        assert code == 2
        record = json.loads((run_dir / "record.json").read_text())
        assert record["prior_run"]
        for name, blob in first.items():
            assert (run_dir / name).read_bytes() == blob

    def test_seed_changes_run_directory_hash(self, tmp_path):
        run(["counterexample", "--out", str(tmp_path), "--seed", "1"])
        run(["counterexample", "--out", str(tmp_path), "--seed", "2"])
        dirs = [p for p in tmp_path.iterdir() if p.name.startswith("counterexample")]
        assert len(dirs) == 2


class TestLln:
    def test_iid_converges(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"kind": "iid"},
                "phi": {"kind": "indicator", "state": 0},
                "n_grid": [500, 5000, 50000],
                "seeds": {"count": 16},
            },
        )
        code = run(["lln", "--config", cfg, "--out", str(tmp_path / "runs"), "--seed", "3"])
        assert code == 0

    def test_study_artifacts_byte_identical_across_reruns(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"kind": "iid"},
                "phi": {"kind": "indicator", "state": 0},
                "n_grid": [200, 2000],
                "seeds": {"count": 6},
            },
        )
        out = str(tmp_path / "runs")
        run(["lln", "--config", cfg, "--out", out, "--seed", "3"])
        run_dir = only_run_dir(tmp_path / "runs", "lln")
        blobs = {p.name: p.read_bytes() for p in run_dir.iterdir() if p.suffix == ".csv"}
        assert blobs
        run(["lln", "--config", cfg, "--out", out, "--seed", "3"])
        for name, blob in blobs.items():
            assert (run_dir / name).read_bytes() == blob

    def test_counterexample_schedule_flags_failure(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"kind": "cyclic-pair"},
                "phi": {"kind": "indicator", "state": 0},
                "scheme": {"kind": "alternating"},
                "n_grid": [100, 1000],
                "seeds": [1, 2, 3],
                "x0": 1,
                "expect": "fail",
            },
        )
        code = run(["lln", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 2
        run_dir = only_run_dir(tmp_path / "runs", "lln")
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["non_convergence_flagged"]
        assert summary["medians"] == [0.5, 0.5]


class TestClt:
    def test_iid_ratio_in_band(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"kind": "iid"},
                "phi": {"kind": "indicator", "state": 0},
                "n": 2000,
                "replications": 800,
            },
        )
        code = run(["clt", "--config", cfg, "--out", str(tmp_path / "runs"), "--seed", "9"])
        assert code == 0
        run_dir = only_run_dir(tmp_path / "runs", "clt")
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["sigma2_oracle"] == pytest.approx(0.25, abs=1e-12)
        assert summary["in_band"]

    @pytest.mark.parametrize(
        "band",
        [5, [1.0], [0.8, 1.2, 1.5], [1.2, 0.8], [1.0, 1.0], ["0.8", 1.2], [True, 2],
         [float("nan"), 1.2], [0.8, float("inf")], None],
    )
    def test_malformed_ratio_band_is_config_error(self, tmp_path, capsys, band):
        cfg = write_config(
            tmp_path,
            {
                "family": {"kind": "iid"},
                "phi": {"kind": "indicator", "state": 0},
                "n": 10,
                "replications": 4,
                "ratio_band": band,
            },
        )
        code = run(["clt", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 1
        assert "ratio_band" in capsys.readouterr().err


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


class TestStrictJson:
    @pytest.mark.parametrize("command, payload, field", [
        # one run length has no slope
        ("lln", {"family": {"kind": "iid"}, "n_grid": [100], "seeds": {"count": 4}}, "slope"),
        # a one-state chain has oracle variance 0 and no ratio
        ("clt", {"family": {"kind": "iid", "pi": [1.0]}, "n": 10, "replications": 4}, "ratio"),
    ])
    def test_a_value_that_does_not_exist_is_null(self, tmp_path, command, payload, field):
        cfg = write_config(tmp_path, {**payload, "phi": {"kind": "indicator", "state": 0}})
        run([command, "--config", cfg, "--out", str(tmp_path / "runs")])
        run_dir = only_run_dir(tmp_path / "runs", command)
        summary = json.loads((run_dir / "summary.json").read_text(), parse_constant=refuse_constant)
        record = json.loads((run_dir / "record.json").read_text(), parse_constant=refuse_constant)
        assert summary[field] is None and record["summary"] == summary


class TestBounds:
    def test_mixture_family_all_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"kind": "mixture", "count": 6},
                "phi": {"kind": "indicator", "state": 0},
                "horizon": 32,
            },
        )
        code = run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = only_run_dir(tmp_path / "runs", "bounds")
        reports = json.loads((run_dir / "reports.json").read_text())
        assert reports and all(r["pass"] for r in reports)
        assert set(reports[0]) == {"quantity", "value", "bound", "pass", "margin"}

    def test_cyclic_pair_all_pass(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"family": {"kind": "cyclic-pair"}, "phi": {"kind": "indicator", "state": 0}},
        )
        code = run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = only_run_dir(tmp_path / "runs", "bounds")
        reports = json.loads((run_dir / "reports.json").read_text())
        kinds = {r["quantity"] for r in reports}
        assert kinds == {"poisson_sup_norm", "poisson_solution_gap"}
        assert all(r["pass"] for r in reports)

    @pytest.mark.parametrize("horizon", [16, 24, 32])
    def test_a_rate_rounded_to_zero_sets_no_rho(self, tmp_path, horizon):
        # beta(P^m) = 0.25**m for the two-step kernel P0 P1 of smoothed-cyclic
        # at epsilon 0.5; at horizon 32 beta(P^28) rounds to 0, whose rate of
        # 0 admits no C while a curve value is positive
        fam = build_family({"kind": "smoothed-cyclic", "epsilon": 0.5})
        P = kernels.StochasticMatrix(fam.kernels[0].rows @ fam.kernels[1].rows)
        path = tmp_path / "two_step.json"
        path.write_text(kernels.kernel_json_text(P, fam.pi))
        cfg = write_config(tmp_path, {"family": {"kind": "file", "paths": [str(path)]},
                                      "phi": {"kind": "indicator", "state": 0},
                                      "horizon": horizon})
        assert run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        consts = kernels.fit_ergodicity_constants([P], fam.pi, horizon)
        assert 0.0 < consts.rho < 0.251 and consts.C == 1.0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_reports_are_written_once_as_json(self, tmp_path, fmt):
        cfg = write_config(
            tmp_path,
            {"family": {"kind": "cyclic-pair"}, "phi": {"kind": "indicator", "state": 0}},
        )
        code = run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs"), "--format", fmt])
        assert code == 0
        run_dir = only_run_dir(tmp_path / "runs", "bounds")
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "record.json", "reports.json", "summary.json"]
        reports = json.loads((run_dir / "reports.json").read_text())
        assert reports and all(r["pass"] is True for r in reports)
        record = json.loads((run_dir / "record.json").read_text())
        assert record["artifacts"] == ["reports.json"]

    def test_two_dimensional_rwm_grid_takes_isotropic_covariances(self, tmp_path):
        # each variance v of a d = 2 grid is the covariance v * I_2, not a 1 x 1 one
        family = {"kind": "rwm-grid", "a": 0.1, "b": 10.0, "sigmas": [0.5, 2.0],
                  "target": {"d": 2, "bounds": [[-3.0, 3.0], [-3.0, 3.0]], "m": 6,
                             "density": {"kind": "truncated-gaussian"}}}
        cfg = write_config(tmp_path, {"family": family, "phi": {"kind": "indicator", "state": 0}})
        assert run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")]) == 0
        target = build_target(family["target"])
        built = build_family(family)
        assert built.n_states == 36
        for v, P in zip(family["sigmas"], built.kernels):
            expected = build_discrete_rwm(target, RwmParameter(Sigma=v * np.eye(2), a=0.1, b=10.0))
            assert np.array_equal(P.rows, expected.rows)

    def test_grid_over_the_state_cap_is_refused_before_any_covariance(self, monkeypatch, tmp_path):
        def unreachable(*args, **kwargs):
            raise AssertionError("a covariance was built before the grid was capped")

        monkeypatch.setattr(amcmc.rwm, "RwmParameter", unreachable)
        over = int(DEFAULT_STATE_CAP**0.5) + 1
        family = {"kind": "rwm-grid", "sigmas": [0.5],
                  "target": {"d": 2, "bounds": [[-3.0, 3.0], [-3.0, 3.0]], "m": over,
                             "density": {"kind": "uniform"}}}
        with pytest.raises(ConfigError, match=rf"target.m\*\*target.d={over**2} exceeds"):
            build_family(family)


class TestWaning:
    def test_rare_log_schedule_wanes(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"d_series": {"kind": "rare-log", "c": 2.0, "epsilon": 0.1, "n": 20000}, "p": 1.0},
        )
        code = run(["waning", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0

    def test_constant_flagged_non_waning(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "d_series": {"kind": "constant", "value": 0.05, "n": 20000},
                "p": 1.0,
                "expect_waning": False,
            },
        )
        code = run(["waning", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = only_run_dir(tmp_path / "runs", "waning")
        summary = json.loads((run_dir / "summary.json").read_text())
        assert not summary["waning"]


class TestPoisson:
    def test_solution_artifacts(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"kind": "cyclic-pair"},
                "phi": {"kind": "indicator", "state": 0},
                "member": 0,
                "tol": 1e-9,
            },
        )
        code = run(["poisson", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        run_dir = only_run_dir(tmp_path / "runs", "poisson")
        lines = (run_dir / "solution.csv").read_text().strip().splitlines()
        assert lines[0] == "state,g"
        assert len(lines) == 1 + build_family({"kind": "cyclic-pair"}).n_states


class TestKernelInfo:
    def test_prints_and_exports(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"family": {"kind": "cyclic-pair"}, "horizon": 5})
        code = run(["kernel-info", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel 0" in out and "dobrushin" in out
        run_dir = only_run_dir(tmp_path / "runs", "kernel-info")
        lines = (run_dir / "ergodicity.csv").read_text().strip().splitlines()
        assert lines[0] == "s,k,sup_tv"
        assert len(lines) == 1 + build_family({"kind": "cyclic-pair"}).size * 5


class TestKernelFileFamilies:
    def test_exported_kernels_reload_through_file_family(self, tmp_path):
        run(["counterexample", "--out", str(tmp_path), "--seed", "1"])
        run_dir = only_run_dir(tmp_path, "counterexample")
        paths = [str(run_dir / "kernel_forward.json"), str(run_dir / "kernel_backward.json")]
        cfg = write_config(
            tmp_path,
            {"family": {"kind": "file", "paths": paths}, "phi": {"kind": "indicator", "state": 0}},
        )
        code = run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 0

    def test_missing_kernel_file_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "family": {"kind": "file", "paths": [str(tmp_path / "absent.json")]},
                "phi": {"kind": "indicator", "state": 0},
            },
        )
        code = run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 1


class TestShippedConfigs:
    @pytest.mark.parametrize(
        "command,name,expected",
        [
            ("bounds", "bounds_mixture.json", 0),
            ("bounds", "bounds_rwm_grid.json", 0),
            ("bounds", "bounds_rwm_grid_2d.json", 0),
            ("kernel-info", "bounds_rwm_grid.json", 0),
            ("kernel-info", "poisson_cyclic.json", 0),
            ("waning", "waning_rare.json", 0),
            ("waning", "waning_constant_control.json", 0),
            ("poisson", "poisson_cyclic.json", 0),
            ("lln", "lln_counterexample.json", 2),
            ("clt", "clt_iid.json", 0),
            ("clt", "clt_rwm_grid.json", 0),
            ("lln", "lln_iid.json", 0),
        ],
    )
    def test_config_runs_with_documented_exit_code(self, tmp_path, command, name, expected):
        code = run(
            [command, "--config", str(CONFIG_DIR / name), "--out", str(tmp_path), "--seed", "1"]
        )
        assert code == expected


class TestPinnedArtifacts:
    """sha256 of the artifacts of shipped configs (and of the counterexample)
    at seed 1, so any change to the sampled streams, the lockstep step or a
    file format shows up byte for byte."""

    @pytest.mark.parametrize(
        "command,name,digests",
        [
            ("kernel-info", "bounds_mixture.json", {
                "ergodicity.csv":
                    "74478ceb87e14987b76e6fd6233e6083da1571c9cc4d3f3513299da511f5ad67"}),
            ("poisson", "poisson_cyclic.json", {
                "solution.csv":
                    "ad57c12ccad64b950572a6053dc9f45cd2f5b8252d589a5f0331f509ad723558"}),
            ("bounds", "bounds_mixture.json", {
                "reports.json":
                    "a7ee8151c56151e287ac80aba00d305a3181a5c38784c221dede1eec82ced2be"}),
            ("bounds", "bounds_rwm_grid.json", {
                "reports.json":
                    "40a167ca9bb1a1a1e40d5a73d65077c00f77ae672283922277e365e25fb5785b"}),
            ("bounds", "bounds_rwm_grid_2d.json", {
                "reports.json":
                    "d8db18ac8d16a93c3864a2494703c318781527e28dca75550acc0ed34c36f9e7"}),
            ("waning", "waning_rare.json", {
                "waning.csv": "1dedb2dc77f695f42054b33b726700b373020cde406a1ec17e29b38edf6c5027"}),
            ("waning", "waning_constant_control.json", {
                "waning.csv": "3ac8018234dc0a84bb4901c7ce2062eb1d05df1511ed7a2ede20227bd2ffe3de"}),
            ("counterexample", None, {
                "orbit.csv": "6170b229a50c35acf75dc118022f78c0dd6a2276faeba184ea4af742c4c126ac",
                "ergodicity.csv":
                    "8d9100a23891bc48e40a174bbf16ddb391b38ed878a9de0f7a04ca6c8fb8fc1e",
                "kernel_forward.json":
                    "bae11272add0331380e7aa69b86f36e1734f18b2b41e19e159806ff28883b512",
                "kernel_backward.json":
                    "229fd41bf9ac717abaca6d3c923eb7eb76581e6dd635a8b415f32ca387c0d173"}),
            ("clt", "clt_iid.json", {
                "clt_replicates.csv":
                    "58f093cf0c9ba6b83db22059121039a851ff8fbfa8d4a621a1aafd8562551573"}),
            ("clt", "clt_rwm_grid.json", {
                "clt_replicates.csv":
                    "e64089c9659af7e04ea3476ee65315789d00b9f5124a27bca8282bdaddbef2d6"}),
            ("lln", "lln_iid.json", {
                "lln.csv": "fbcad5d198cb9f9a06a85a19c8e661630edb1ec61364a31f97c5caee93a3bb0b",
                "lln_medians.csv":
                    "59d156688d7c472cc9d2810eba635591d20ba5e3d74dd8a2e4c4258ad097d48b"}),
            ("lln", "lln_counterexample.json", {
                "lln.csv": "b3c9625e7a25abec9d97c8543d0aec0f734f9760c6da4c942f2e60ebb3f58f36",
                "lln_medians.csv":
                    "c2a743c650df34b9ee71b47e540f8b637b30bbbf9ced5d71ff9bd23d04544dea"}),
            ("waning", {"d_series": {"kind": "bernoulli-log", "n": 100000, "c": 1.0,
                                     "epsilon": 0.1}, "p": 1.0}, {
                "waning.csv": "92650c9f291b732f4c590525881414e7119fb7300f356284c7fd077c9813e7d4"}),
        ],
    )
    def test_study_tables_match_pinned_sha256(self, tmp_path, command, name, digests):
        """``name`` is a shipped config, an inline config or None (no config)."""
        if isinstance(name, dict):
            config = ["--config", write_config(tmp_path, name)]
        else:
            config = ["--config", str(CONFIG_DIR / name)] if name else []
        self.check(tmp_path, [command, *config], digests)

    @pytest.mark.parametrize(
        "command,name,digests",
        [
            ("clt", "clt_iid.json", {
                "clt_replicates.json":
                    "11eb5ac16c180c0979caf80a8ddca99aaceeb984e48e204440ca6ae9b64f302a"}),
            ("lln", "lln_iid.json", {
                "lln.json": "24d775589792f0ef2cdff28c248c7bcdc09b13b1c72de48fbd97c3743cce71fd",
                "lln_medians.json":
                    "13648d268eda68e4f7f74f4211220da601891eb2e17d43f9ec8e6f70d04bc1bc"}),
            ("waning", "waning_rare.json", {
                "waning.json": "36de91fbe32e63472ad4aae1056b0148b54040ba17fc10f90352ffbca74811d7"}),
            ("counterexample", None, {
                "orbit.json": "008bc53dd83a754e0306b218ec2ce0ae0325c3aa57a15948d72cbf96605c6a08"}),
        ],
    )
    def test_json_study_tables_match_pinned_sha256(self, tmp_path, command, name, digests):
        config = ["--config", str(CONFIG_DIR / name)] if name else []
        self.check(tmp_path, [command, *config, "--format", "json"], digests)

    @staticmethod
    def check(tmp_path, argv, digests):
        run([*argv, "--out", str(tmp_path), "--seed", "1"])
        run_dir = only_run_dir(tmp_path, argv[0])
        for artifact, digest in digests.items():
            assert hashlib.sha256((run_dir / artifact).read_bytes()).hexdigest() == digest


class TestTargetSpecFile:
    def test_builtin_kinds(self):
        for spec in (
            {"d": 1, "bounds": [[-1, 1]], "m": 8, "density": {"kind": "uniform"}},
            {"d": 1, "bounds": [[-2, 2]], "m": 8, "density": {"kind": "truncated-gaussian"}},
            {
                "d": 1,
                "bounds": [[-2, 2]],
                "m": 8,
                "density": {"kind": "bimodal-mixture", "centers": [[-1.0], [1.0]]},
            },
        ):
            target = build_target(spec)
            assert target.n_states == 8
            build_discrete_rwm(target, RwmParameter.from_scalar(0.5, 0.05, 5.0))

    def test_table_density(self):
        values = np.linspace(1.0, 2.0, 8)
        spec = {
            "d": 1,
            "bounds": [[0, 1]],
            "m": 8,
            "density": {"kind": "table", "values": values.tolist()},
        }
        for target in (build_target(spec), table_target([[0, 1]], 8, values)):
            w = target.grid_distribution().weights
            assert np.allclose(w, values / values.sum(), atol=1e-12)

    def test_table_rejects_non_positive(self):
        values = [1.0, 0.0, 1.0, 1.0]
        spec = {
            "d": 1,
            "bounds": [[0, 1]],
            "m": 4,
            "density": {"kind": "table", "values": values},
        }
        with pytest.raises(NonPositiveDensity):
            build_target(spec)
        with pytest.raises(NonPositiveDensity):
            table_target([[0, 1]], 4, values)


class TestRunConfigScalar:
    @staticmethod
    def config(raw):
        return RunConfig(experiment="waning", raw=raw, seed=0, out=Path("."), fmt="csv")

    def test_converts_top_level_and_dotted_fields(self):
        cfg = self.config({"p": "2.5", "d_series": {"n": 7.0, "kind": "constant"}})
        assert cfg.scalar("p", float) == 2.5
        assert cfg.scalar("d_series.n", int) == 7
        assert cfg.scalar("d_series.kind", str) == "constant"

    def test_missing_field_gives_default(self):
        cfg = self.config({"d_series": {}})
        assert cfg.scalar("p", float, 1.0) == 1.0
        assert cfg.scalar("d_series.n", int, 100) == 100
        assert cfg.scalar("seeds.count", int, 16) == 16

    def test_missing_field_without_default_names_it(self):
        with pytest.raises(ConfigError, match="'d_series.kind' is required for waning"):
            self.config({"d_series": {}}).scalar("d_series.kind", str)

    def test_bad_conversion_names_the_dotted_field(self):
        with pytest.raises(ConfigError, match="d_series.n must be int, got 'abc'"):
            self.config({"d_series": {"n": "abc"}}).scalar("d_series.n", int)

    def test_cap_admits_its_bound_and_names_its_budget(self):
        cfg = self.config({"d_series": {"n": 10}, "horizon": "11"})
        assert cfg.scalar("d_series.n", int, cap=(10, "ten steps")) == 10
        with pytest.raises(ConfigError, match="^horizon=11 exceeds 10, the budget of ten powers$"):
            cfg.scalar("horizon", int, cap=(10, "ten powers"))

    def test_non_object_parent_names_it(self):
        with pytest.raises(ConfigError, match="'seeds' must be an object"):
            self.config({"seeds": [1, 2]}).scalar("seeds.count", int, 16)


# (dtype, cells of a column of that dtype); a str cell needs no quoting
COLUMN_POOLS = st.one_of(
    st.tuples(st.just(np.float64),
              st.lists(st.one_of(st.sampled_from(CSV_FLOATS), st.floats()), min_size=1, max_size=6)),
    st.tuples(st.just(np.float32), st.lists(st.floats(width=32), min_size=1, max_size=6)),
    st.tuples(st.just(np.int64),
              st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=6)),
    st.tuples(st.just(np.bool_), st.lists(st.booleans(), min_size=1, max_size=6)),
    st.tuples(st.just(np.str_), st.lists(st.from_regex(r"[a-z_][a-z0-9_]{0,12}", fullmatch=True),
                                         min_size=1, max_size=6)),
)


class TestWriteTable:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1]),
        pools=st.lists(COLUMN_POOLS, min_size=0, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bytes_are_the_writers_over_rendered_cells(self, tmp_path_factory, n, pools, seed):
        # every example has a float column that draws from all of CSV_FLOATS
        pools.insert(seed % (len(pools) + 1), (np.float64, CSV_FLOATS))
        columns = [runs_of(pool, n, seed + i, dtype) for i, (dtype, pool) in enumerate(pools)]
        header = [f"c{i}" for i in range(len(columns))]
        out = tmp_path_factory.mktemp("table")
        _write_table(out / "table.csv", (header, columns))
        _write_table(out / "table.json", (header, columns))
        assert (out / "table.csv").read_bytes() == csv_writer_bytes(header, columns)
        records = [{h: column[i].item() for h, column in zip(header, columns)} for i in range(n)]
        text = json.dumps(records, indent=2, sort_keys=True) + "\n"
        assert (out / "table.json").read_text() == text

    @pytest.mark.parametrize("name", ["table.csv", "table.json"])
    @pytest.mark.parametrize("columns", [[[1, 2], [0.5]], [[1], [0.5, 0.25]]])
    def test_refuses_columns_of_unequal_length(self, tmp_path, name, columns):
        with pytest.raises(ValueError):
            _write_table(tmp_path / name, (["a", "b"], columns))


class TestDependencies:
    def test_cli_import_leaves_scipy_unloaded(self):
        probe = (
            "import sys, amcmc.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        code = run(["lln", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1

    @pytest.mark.parametrize(
        "where,contents,message",
        [
            ("config", None, "Is a directory"),
            ("config", b"\xff{}", "can't decode byte 0xff"),
            ("config", b'{"seed": 1,}', "line 1"),
            ("kernel", None, "family spec: [Errno 21] Is a directory"),
        ],
    )
    def test_unreadable_file_is_one_line_and_leaves_no_run_dir(
        self, tmp_path, where, contents, message
    ):
        path = tmp_path / "unreadable"
        if contents is None:
            path.mkdir()
        else:
            path.write_bytes(contents)
        if where == "kernel":
            path = write_config(tmp_path, {"family": {"kind": "file", "paths": [str(path)]},
                                           "phi": {"kind": "indicator", "state": 0}})
        out = tmp_path / "runs"
        proc = run_subprocess(["bounds", "--config", str(path), "--out", str(out)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:") and message in lines[0]
        assert not out.exists()

    def test_missing_required_field(self, tmp_path):
        cfg = write_config(tmp_path, {"phi": {"kind": "indicator", "state": 0}})
        code = run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert code == 1

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AMCMC_OUT", str(tmp_path / "env_runs"))
        code = run(["counterexample", "--seed", "4"])
        assert code == 2
        assert (tmp_path / "env_runs").exists()

    def test_library_error_is_one_line_and_exit_1(self, tmp_path):
        # the identity kernel is reducible, so its stationary solve fails
        kernel = tmp_path / "identity.json"
        kernel.write_text(json.dumps({"n": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}))
        cfg = write_config(
            tmp_path,
            {"family": {"kind": "file", "paths": [str(kernel)]},
             "phi": {"kind": "indicator", "state": 0}},
        )
        proc = run_subprocess(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and "NotIrreducible" in lines[0]

    @pytest.mark.parametrize(
        "family, horizon, message",
        [
            # rho = 0.1: C = e(k) / rho**k is finite, but C**2 is not
            (FAST_MIXING, 200, "bound 4 C**2 osc D / (1 - rho)**2 overflows: C=2.220e+184, "
                               "rho=0.1 at horizon=200"),
            # rho**k underflows to 0 before the horizon
            (FAST_MIXING, 1024, "C = max e(k) / rho**k overflows: rho=0.1 at horizon=1024"),
            ({"kind": "random-metropolis", "count": 2}, 1024,
             "bound 4 C**2 osc D / (1 - rho)**2 overflows"),
        ],
    )
    def test_certificate_overflow_is_one_line_and_leaves_no_run_dir(
        self, tmp_path, family, horizon, message
    ):
        cfg = write_config(tmp_path, {"family": family, "horizon": horizon,
                                      "phi": {"kind": "indicator", "state": 0}})
        out = tmp_path / "runs"
        proc = run_subprocess(["bounds", "--config", cfg, "--out", str(out)],
                              PYTHONWARNINGS="error::RuntimeWarning")
        assert proc.returncode == 1
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: CertificateOverflow: ") and message in lines[0]
        assert f"horizon={horizon}" in lines[0]
        assert not out.exists()

    def test_memory_error_is_one_line_and_exit_1(self, tmp_path, monkeypatch, capsys):
        # what numpy raises when a 20 000-state kernel does not fit in memory
        def out_of_memory(pi):
            raise MemoryError("Unable to allocate 2.98 GiB for an array with shape "
                              "(20000, 20000) and data type float64")

        monkeypatch.setattr(amcmc.families, "iid_family", out_of_memory)
        cfg = write_config(tmp_path, {"family": {"kind": "iid"},
                                      "phi": {"kind": "indicator", "state": 0}})
        out = tmp_path / "runs"
        assert run(["clt", "--config", cfg, "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines == ["error: MemoryError: Unable to allocate 2.98 GiB for an array with "
                         "shape (20000, 20000) and data type float64"]
        assert not out.exists()

    def test_violated_certificate_is_one_line_and_leaves_no_run_dir(
        self, tmp_path, monkeypatch, capsys
    ):
        # a tolerance below every margin: no fitted certificate can be built
        monkeypatch.setattr(kernels, "BOUND_TOL", -1.0)
        out = tmp_path / "runs"
        code = run(["bounds", "--config", str(CONFIG_DIR / "bounds_mixture.json"),
                    "--out", str(out)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: NotSimultaneouslyErgodic: certificate violated by")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,payload,message",
        [
            ("clt", {"family": {"kind": "iid", "pi": [0.5, 0.6]}}, "must sum to 1"),
            ("bounds", {"family": {"kind": "rwm-grid", "sigmas": [0.5, 1.0]}},
             "missing field 'target'"),
            ("clt", {"family": {"kind": "iid"}, "n": 10, "replications": 4, "ratio_band": 5},
             "ratio_band"),
            ("lln", {"family": {"kind": "iid"}, "x0": -1}, "x0=-1"),
            ("clt", {"family": {"kind": "iid"}, "n": 10,
                     "scheme": {"kind": "schedule", "indices": [0, 0]}}, "needs 11 indices"),
            ("clt", {"family": {"kind": "iid"}, "n": 2,
                     "scheme": {"kind": "schedule", "indices": [0, 5, 0]}}, "needs 3 indices"),
            ("lln", {"family": {"kind": "mixture", "count": 3},
                     "scheme": {"kind": "constant", "s0": 3}}, "s0=3"),
            ("lln", {"family": {"kind": "mixture", "count": 3},
                     "scheme": {"kind": "converging", "s0": -1}}, "s0=-1"),
            ("clt", {"family": {"kind": "iid"}, "n": "abc"}, "n must be int, got 'abc'"),
            ("clt", {"family": {"kind": "iid"}, "n": 10, "replications": 1},
             "replications must be >= 2"),
            ("waning", {"d_series": 5}, "'d_series' must be an object"),
            ("waning", {"d_series": {"kind": "constant", "n": 0}}, "d_series.n must be >= 1"),
            ("waning", {"d_series": {"kind": "constant", "n": 100}, "p": -1}, "p must be > 0"),
            ("bounds", {"family": {"kind": "cyclic-pair"}, "horizon": [3]}, "horizon must be int"),
            ("bounds", {"family": {"kind": "cyclic-pair"}, "horizon": 0}, "horizon must be >= 2"),
            ("poisson", {"family": {"kind": "cyclic-pair"}, "member": 7}, "member=7"),
            ("poisson", {"family": {"kind": "cyclic-pair"}, "tol": -1}, "tol must be"),
            ("lln", {"family": {"kind": "iid"}, "n_grid": "abc"}, "n_grid must be a list"),
            ("lln", {"family": {"kind": "iid"}, "n_grid": [10, "x"]}, "n_grid must be int, got 'x'"),
            ("lln", {"family": {"kind": "iid"}, "seeds": 5}, "seeds must be a list"),
            ("lln", {"family": {"kind": "iid"}, "seeds": ["x"]}, "seeds must be int, got 'x'"),
            ("waning", {"d_series": {"kind": "rare-log", "n": 100, "c": -1}},
             "d_series.c must be > 0 and finite"),
            ("waning", {"d_series": {"kind": "bernoulli-log", "n": 100, "epsilon": 0}},
             "d_series.epsilon must be > 0 and finite"),
            ("waning", {"d_series": {"kind": "rare-log", "n": 100, "c": float("nan")}},
             "d_series.c must be > 0 and finite, got nan"),
            ("waning", {"d_series": {"kind": "constant", "n": 100, "value": float("nan")}},
             "d_series.value must be finite, got nan"),
            ("lln", {"family": {"kind": "iid"}, "fail_threshold": float("nan")},
             "fail_threshold must be finite, got nan"),
            ("clt", {"family": {"kind": "mixture", "count": 3}, "n": 10, "replications": 4,
                     "scheme": {"kind": "converging", "c": float("nan")}},
             "scheme.c must be finite, got nan"),
            ("clt", {"family": {"kind": "mixture", "count": 3}, "n": 10, "replications": 4,
                     "scheme": {"kind": "converging", "exponent": 1}},
             "scheme.exponent must be > 1 and finite"),
            ("waning", {"d_series": {"kind": "constant", "n": 100}, "p": float("inf")},
             "p must be > 0 and finite"),
            ("waning", {"d_series": {"kind": "constant", "n": 100}, "expect_waning": "false"},
             "expect_waning must be true or false"),
            ("poisson", {"family": {"kind": "cyclic-pair"}, "tol": float("inf")},
             "tol must be > 0 and finite"),
            ("lln", {"family": {"kind": "iid"}, "seeds": [3, -1]}, "seeds must be >= 0"),
            ("lln", {"family": {"kind": "iid"}, "expect": "fails"},
             "expect must be one of converge|fail"),
            ("bounds", {"family": {**RWM_GRID, "sigmas": "abc"}},
             "family.sigmas must be a list of one or more floats, got 'abc'"),
            ("bounds", {"family": {**RWM_GRID, "sigmas": []}},
             "family.sigmas must be a list of one or more floats"),
            ("bounds", {"family": {**RWM_GRID, "sigmas": [0.5, float("nan")]}},
             "family.sigmas must be > 0 and finite, got nan"),
            ("bounds", {"family": {**RWM_GRID, "sigmas": [0.5, "x"]}},
             "family.sigmas must be float, got 'x'"),
            ("bounds", {"family": {**RWM_GRID, "a": float("nan")}},
             "family.a must be > 0 and finite, got nan"),
            ("bounds", {"family": {**RWM_GRID, "b": float("inf")}},
             "family.b must be > 0 and finite, got inf"),
            # 1e400 parses as inf: no integer field may overflow into a traceback
            ("bounds", {"family": {"kind": "mixture", "count": 1e400}},
             "family.count must be int, got inf"),
            ("bounds", {"family": {"kind": "cyclic-pair"},
                        "phi": {"kind": "indicator", "state": 1e400}},
             "phi.state must be int, got inf"),
            ("clt", {"family": {"kind": "mixture", "count": 3}, "n": 10, "replications": 4,
                     "scheme": {"kind": "constant", "s0": 1e400}},
             "scheme.s0 must be int, got inf"),
            ("clt", {"family": {"kind": "mixture", "count": 3}, "n": 2, "replications": 4,
                     "scheme": {"kind": "schedule", "indices": [0, 1, 1e400]}},
             "scheme.indices must be int, got inf"),
            ("bounds", {"family": {**RWM_GRID, "target": {**RWM_GRID["target"], "m": 1e400}}},
             "target.m must be int, got inf"),
            # a size beyond its cap is refused, naming the budget the cap keeps
            ("bounds", {"family": {"kind": "cyclic-pair"}, "horizon": 10**30},
             f"horizon={10**30} exceeds {HORIZON_CAP[0]}, the budget of {HORIZON_CAP[1]}"),
            ("bounds", {"family": {"kind": "cyclic-pair"}, "horizon": 1e30},
             f"exceeds {HORIZON_CAP[0]}, the budget of {HORIZON_CAP[1]}"),
            ("poisson", {"family": {"kind": "cyclic-pair"}, "horizon": HORIZON_CAP[0] + 1},
             f"horizon={HORIZON_CAP[0] + 1} exceeds {HORIZON_CAP[0]}"),
            ("kernel-info", {"family": {"kind": "cyclic-pair"}, "horizon": 10**30},
             f"exceeds {HORIZON_CAP[0]}, the budget of {HORIZON_CAP[1]}"),
            ("waning", {"d_series": {"kind": "rare-log", "n": 10**30}},
             f"d_series.n={10**30} exceeds {D_SERIES_CAP[0]}, the budget of {D_SERIES_CAP[1]}"),
            ("waning", {"d_series": {"kind": "constant", "n": D_SERIES_CAP[0] + 1, "value": 0.5}},
             f"d_series.n={D_SERIES_CAP[0] + 1} exceeds {D_SERIES_CAP[0]}"),
            ("clt", {"family": {"kind": "iid"}, "replications": ENSEMBLE_CAP[0] + 1},
             f"replications={ENSEMBLE_CAP[0] + 1} exceeds {ENSEMBLE_CAP[0]}, "
             f"the budget of {ENSEMBLE_CAP[1]}"),
            ("lln", {"family": {"kind": "iid"}, "seeds": {"count": 10**30}},
             f"seeds.count={10**30} exceeds {ENSEMBLE_CAP[0]}, the budget of {ENSEMBLE_CAP[1]}"),
            ("lln", {"family": {"kind": "iid"}, "n_grid": [10],
                     "seeds": list(range(ENSEMBLE_CAP[0] + 1))},
             f"len(seeds)={ENSEMBLE_CAP[0] + 1} exceeds {ENSEMBLE_CAP[0]}, "
             f"the budget of {ENSEMBLE_CAP[1]}"),
            # a family's count sets the number of bounds' Lipschitz reports
            ("bounds", {"family": {"kind": "mixture", "count": 1e12}},
             f"family.count={10**12} exceeds {FAMILY_COUNT_CAP[0]}, "
             f"the budget of {FAMILY_COUNT_CAP[1]}"),
            ("bounds", {"family": {"kind": "random-metropolis", "count": 10**9}},
             f"family.count={10**9} exceeds {FAMILY_COUNT_CAP[0]}, "
             f"the budget of {FAMILY_COUNT_CAP[1]}"),
            ("lln", {"family": {"kind": "mixture", "count": FAMILY_COUNT_CAP[0] + 1}},
             f"family.count={FAMILY_COUNT_CAP[0] + 1} exceeds {FAMILY_COUNT_CAP[0]}"),
            # a run length sets the schedule's size before any step runs
            ("clt", {"family": {"kind": "iid"}, "n": 1e12},
             f"n={10**12} exceeds {RUN_LENGTH_CAP[0]}, the budget of {RUN_LENGTH_CAP[1]}"),
            ("lln", {"family": {"kind": "iid"}, "n_grid": [1000, 1e12]},
             f"n_grid={10**12} exceeds {RUN_LENGTH_CAP[0]}, the budget of {RUN_LENGTH_CAP[1]}"),
            # so does an ensemble's steps times its replications, each within its cap
            ("clt", {"family": {"kind": "iid"}, "n": 10**7, "replications": 10**4},
             f"n * replications={10**11} exceeds {STEP_REPLICATION_CAP[0]}, "
             f"the budget of {STEP_REPLICATION_CAP[1]}"),
            ("lln", {"family": {"kind": "iid"}, "n_grid": [10**5 + 1, 1000],
                     "seeds": {"count": 10**4}},
             f"max(n_grid) * len(seeds)={10**9 + 10**4} exceeds {STEP_REPLICATION_CAP[0]}, "
             f"the budget of {STEP_REPLICATION_CAP[1]}"),
            # nor may a non-integral value be truncated into a run
            ("bounds", {"family": {"kind": "mixture", "count": 2.9}},
             "family.count must be int, got 2.9"),
            ("bounds", {"family": {"kind": "cyclic-pair"},
                        "phi": {"kind": "indicator", "state": 0.7}},
             "phi.state must be int, got 0.7"),
            ("clt", {"family": {"kind": "mixture", "count": 3}, "n": 2, "replications": 4,
                     "scheme": {"kind": "schedule", "indices": [0.9, 1.9, 2.5]}},
             "scheme.indices must be int, got 0.9"),
            # a bimodal center has d coordinates and weights one entry per center
            ("bounds", {"family": {**RWM_GRID, "target": {
                **RWM_GRID["target"],
                "density": {"kind": "bimodal-mixture", "centers": [[-1.0, 1.0]]}}}},
             "each center must be a list of d=1 coordinates"),
            ("bounds", {"family": {**RWM_GRID, "target": {
                **RWM_GRID["target"], "d": 2, "bounds": [[-3.0, 3.0], [-3.0, 3.0]],
                "density": {"kind": "bimodal-mixture", "centers": [[-1.0, 0.0, 1.0, 0.0]]}}}},
             "each center must be a list of d=2 coordinates"),
            ("bounds", {"family": {**RWM_GRID, "target": {
                **RWM_GRID["target"],
                "density": {"kind": "bimodal-mixture", "centers": [[-1.0], [1.0]],
                            "weights": [1.0]}}}},
             "weights must give one value per center (2)"),
            # a key that the object's kind does not read is named, not ignored
            ("lln", {"family": {"kind": "iid"}, "seeds": {"a": 1}},
             "seeds has no field 'a'; it reads count"),
            ("waning", {"d_series": {"kind": "constant", "n": 1000, "valu": 0.5}},
             "d_series 'constant' has no field 'valu'"),
            ("waning", {"d_series": {"kind": "rare-log", "n": 1000, "value": 0.5}},
             "d_series 'rare-log' has no field 'value'"),
            ("bounds", {"family": {"kind": "mixture", "cout": 3}},
             "family 'mixture' has no field 'cout'"),
            ("bounds", {"family": {**RWM_GRID, "target": {**RWM_GRID["target"], "n": 8}}},
             "target has no field 'n'"),
            ("bounds", {"family": {**RWM_GRID, "target": {
                **RWM_GRID["target"], "density": {"kind": "uniform", "sd": 1.0}}}},
             "density 'uniform' has no field 'sd'"),
            ("bounds", {"family": {"kind": "cyclic-pair"},
                        "phi": {"kind": "indicator", "sate": 1}},
             "phi 'indicator' has no field 'sate'"),
            ("clt", {"family": {"kind": "mixture", "count": 3}, "n": 10, "replications": 4,
                     "scheme": {"kind": "converging", "expnent": 3.0}},
             "scheme 'converging' has no field 'expnent'; it reads kind, s0, c, exponent"),
            ("clt", {"family": {"kind": "mixture", "count": 3}, "n": 10, "replications": 4,
                     "scheme": {"kind": "constant", "s00": 3}},
             "scheme 'constant' has no field 's00'; it reads kind, s0"),
            # so is a top-level field that no command reads
            ("clt", {"family": {"kind": "iid"}, "replicatons": 5},
             "config has no field 'replicatons'; it reads d_series, expect, expect_waning,"),
            ("lln", {"family": {"kind": "iid"}, "seed_count": 4},
             "config has no field 'seed_count'"),
            ("bounds", {"family": {"kind": "cyclic-pair"}, "horizion": 8},
             "config has no field 'horizion'"),
            ("waning", {"d_series": {"kind": "constant", "n": 100}, "expect_wanning": False},
             "config has no field 'expect_wanning'"),
            ("poisson", {"family": {"kind": "cyclic-pair"}, "tolerance": 1e-9},
             "config has no field 'tolerance'"),
            ("kernel-info", {"family": {"kind": "cyclic-pair"}, "Horizon": 5},
             "config has no field 'Horizon'"),
            ("counterexample", {"sed": 1}, "config has no field 'sed'"),
        ],
    )
    def test_config_error_is_one_line_and_leaves_no_run_dir(
        self, tmp_path, command, payload, message
    ):
        cfg = write_config(tmp_path, {"phi": {"kind": "indicator", "state": 0}, **payload})
        out = tmp_path / "runs"
        proc = run_subprocess([command, "--config", cfg, "--out", str(out)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:") and message in lines[0]
        assert not out.exists()

    def test_explicit_family_sizes_are_capped(self, tmp_path):
        # an iid or random-metropolis pi, a kernel file's n (its rows are never
        # read) and an rwm-grid's variances are refused before any kernel is built
        over, members = DEFAULT_STATE_CAP + 1, FAMILY_COUNT_CAP[0] + 1
        kernel = tmp_path / "big.json"
        kernel.write_text(json.dumps({"n": over, "rows": []}))
        states = f"={over} exceeds {STATE_CAP[0]}, the budget of {STATE_CAP[1]}"
        cases = [
            ({"kind": "iid", "pi": [1.0 / over] * over}, "len(family.pi)" + states),
            ({"kind": "random-metropolis", "pi": [1.0 / over] * over}, "len(family.pi)" + states),
            ({"kind": "file", "paths": [str(kernel)]}, "family.paths[0].n" + states),
            ({**RWM_GRID, "sigmas": [0.5] * members},
             f"len(family.sigmas)={members} exceeds {FAMILY_COUNT_CAP[0]}, "
             f"the budget of {FAMILY_COUNT_CAP[1]}"),
        ]
        assert STATE_CAP[0] == DEFAULT_STATE_CAP
        out = tmp_path / "runs"
        for family, message in cases:
            cfg = write_config(tmp_path, {"family": family, "phi": {"kind": "indicator", "state": 0}})
            proc = run_subprocess(["bounds", "--config", cfg, "--out", str(out)])
            assert proc.returncode == 1
            assert proc.stderr.splitlines() == [f"config error: {message}"]
            assert not out.exists()

    @pytest.mark.parametrize("command", ["bounds", "poisson"])
    def test_pi_admitted_by_family_but_not_fit_is_one_line(self, tmp_path, command):
        # pi moves by about 1e-11, beyond the 1e-12 that the family, like the
        # fit, allows: building the family already refuses it
        kernel = tmp_path / "near.json"
        kernel.write_text(json.dumps({
            "n": 3, "rows": [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]],
            "pi": [0.25 + 3e-11, 0.5 - 3e-11, 0.25]}))
        cfg = write_config(tmp_path, {"family": {"kind": "file", "paths": [str(kernel)]},
                                      "phi": {"kind": "indicator", "state": 0}})
        out = tmp_path / "runs"
        proc = run_subprocess([command, "--config", cfg, "--out", str(out)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: NotInvariant: kernel 0 does not leave pi invariant")
        assert not out.exists()

    def test_zero_weight_random_metropolis_bounds_warns_nothing(self, tmp_path):
        # the zero-weight state accepts every proposal, with no 0/0 warning
        cfg = write_config(tmp_path, {"family": {"kind": "random-metropolis",
                                                 "pi": [0.5, 0.5, 0.0]},
                                      "phi": {"kind": "indicator", "state": 0}})
        proc = run_subprocess(["bounds", "--config", cfg, "--out", str(tmp_path / "runs")],
                              PYTHONWARNINGS="error::RuntimeWarning")
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize("seed,message", [("abc", "seed must be int"), ("-1", "seed must be >= 0")])
    def test_bad_seed_is_one_line_and_leaves_no_run_dir(self, tmp_path, seed, message):
        out = tmp_path / "runs"
        proc = run_subprocess(["counterexample", "--out", str(out)], AMCMC_SEED=seed)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:") and message in lines[0]
        assert not out.exists()

    def test_out_naming_a_file_is_one_line(self, tmp_path):
        cfg = write_config(tmp_path, {"family": {"kind": "cyclic-pair"},
                                      "phi": {"kind": "indicator", "state": 0}})
        out = tmp_path / "runs"
        out.write_text("")
        proc = run_subprocess(["bounds", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: NotADirectoryError: ")
        assert out.read_text() == ""

    @pytest.mark.parametrize("contents", [b"{", b"\xff", b"[1]", b""])
    def test_unreadable_prior_record_counts_as_a_prior_run(self, tmp_path, contents):
        cfg = write_config(tmp_path, {"family": {"kind": "cyclic-pair"},
                                      "phi": {"kind": "indicator", "state": 0}})
        out = tmp_path / "runs"
        assert run(["bounds", "--config", cfg, "--out", str(out)]) == 0
        record_path = only_run_dir(out, "bounds") / "record.json"
        record_path.write_bytes(contents)
        proc = run_subprocess(["bounds", "--config", cfg, "--out", str(out)])
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert f"prior run detected: {record_path} (created None)" in proc.stdout
        record = json.loads(record_path.read_text())
        assert record["prior_run"] and record["exit_code"] == 0

    @pytest.mark.parametrize(
        "scheme,expected",
        [
            ({"kind": "alternating", "s0": 7}, [0, 1, 2]),
            ({"kind": "schedule", "indices": [1, 0, 1], "s0": -2}, [1, 0, 1]),
        ],
    )
    def test_scheme_kinds_without_start_ignore_s0(self, scheme, expected):
        family = build_family({"kind": "mixture", "count": 3})
        built = build_scheme(scheme, family, 2)
        assert built.index_array(2).tolist() == expected

    def test_format_gets_its_own_run_directory(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, {"d_series": {"kind": "constant", "n": 100}, "p": 1.0,
                                      "expect_waning": False})
        out = tmp_path / "runs"
        assert run(["waning", "--config", cfg, "--out", str(out), "--format", "csv"]) == 0
        monkeypatch.setenv("AMCMC_FORMAT", "json")
        assert run(["waning", "--config", cfg, "--out", str(out)]) == 0
        records = {}
        for run_dir in out.iterdir():
            record = json.loads((run_dir / "record.json").read_text())
            assert not record["prior_run"]
            assert sorted(p.name for p in run_dir.iterdir()) == sorted(
                ["record.json", "summary.json", *record["artifacts"]]
            )
            records[run_dir.name] = record["artifacts"]
        assert sorted(records.values()) == [["waning.csv"], ["waning.json"]]

    def test_json_format_flag(self, tmp_path):
        code = run(
            ["counterexample", "--out", str(tmp_path), "--seed", "1", "--format", "json"]
        )
        assert code == 2
        run_dir = only_run_dir(tmp_path, "counterexample")
        orbit = json.loads((run_dir / "orbit.json").read_text())
        assert orbit[0]["state_label"] == 2


# the shipped configs at toy size: n <= 1000, replications <= 20, m <= 40
# stand for a small kernel file and one whose n is past the state cap,
# written beside each fuzzed config
KERNEL_FILE = "<kernel file>"
OVERSIZED_FILE = "<oversized kernel file>"
SMOOTHED_KERNEL = smoothed_family(cyclic_pair(), 0.2).kernels[0]
TOY_CONFIGS = [
    ("bounds", "bounds_mixture.json", {}),
    ("bounds", "bounds_rwm_grid.json", {}),
    ("bounds", "bounds_mixture.json",
     {"family": {"kind": "random-metropolis", "pi": [0.4, 0.3, 0.2, 0.1], "count": 2}}),
    ("bounds", "bounds_mixture.json", {"family": {"kind": "file", "paths": [KERNEL_FILE]}}),
    ("clt", "clt_iid.json",
     {"family": {"kind": "iid", "pi": [0.5, 0.25, 0.25]}, "n": 1000, "replications": 20}),
    ("kernel-info", "bounds_mixture.json", {}),
    ("clt", "clt_iid.json", {"n": 1000, "replications": 20}),
    ("lln", "lln_counterexample.json", {"n_grid": [100, 1000]}),
    ("lln", "lln_iid.json", {"n_grid": [100, 1000], "seeds": {"count": 4}}),
    ("poisson", "poisson_cyclic.json", {}),
    ("waning", "waning_rare.json",
     {"d_series": {"kind": "rare-log", "c": 2.0, "epsilon": 0.1, "n": 1000}}),
    ("waning", "waning_constant_control.json",
     {"d_series": {"kind": "constant", "value": 0.05, "n": 1000}}),
]
# stands for the JSON number 1e400, which json.dumps cannot write
OVERFLOW = "<1e400>"
# the edit that renames a top-level field instead of setting one
MISSPELT = ("<misspelt>",)
# a wrong type, a bool, NaN, +-inf, an overflow, a negative or a non-integral number
BAD_VALUES = ["x", [1], {"a": 1}, None, True, False, float("nan"), float("inf"),
              float("-inf"), OVERFLOW, -1, -3.5, 2.5, 0.7]


def oversized(path) -> list:
    """Sizes just above the cap that the field at ``path`` meets: a grid's
    ``m``, an explicit ``pi``'s length, a kernel file's ``n`` and the number
    of an rwm-grid's variances."""
    over = DEFAULT_STATE_CAP + 1
    return {
        ("target", "m"): [over],
        ("family", "pi"): [[1.0 / over] * over],
        ("paths", 0): [OVERSIZED_FILE],
        ("family", "sigmas"): [[0.5] * (FAMILY_COUNT_CAP[0] + 1)],
    }.get(tuple(path[-2:]), [])


def field_paths(obj, prefix=()):
    """The path of every field and list entry of a parsed JSON object."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        yield (*prefix, key)
        if isinstance(value, (dict, list)):
            yield from field_paths(value, (*prefix, key))


class TestCliFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_one_bad_field_ends_in_a_run_or_one_line(self, data):
        """A config with one field set to a bad value either runs, writing
        its run directory, or fails with exit 1, one stderr line and no
        directory.  A valid value can still fail a check (exit 1 with its
        run written); no example may raise out of ``main``.  A misspelt
        top-level field is always that one-line config error."""
        command, name, toy = data.draw(st.sampled_from(TOY_CONFIGS))
        cfg = json.loads(json.dumps({**json.loads((CONFIG_DIR / name).read_text()), **toy}))
        *parents, key = path = data.draw(st.sampled_from([MISSPELT, *field_paths(cfg)]))
        misspelt = None
        if path == MISSPELT:
            # a top-level field renamed by one inserted letter
            key = data.draw(st.sampled_from(sorted(cfg)))
            at = data.draw(st.integers(0, len(key)))
            misspelt = key[:at] + data.draw(st.sampled_from("aesx_")) + key[at:]
            assume(misspelt not in CONFIG_FIELDS)
            cfg[misspelt] = cfg.pop(key)
        else:
            obj = cfg
            for part in parents:
                obj = obj[part]
            obj[key] = data.draw(st.sampled_from(BAD_VALUES + oversized(path)))
        with tempfile.TemporaryDirectory() as tmp:
            files = {KERNEL_FILE: Path(tmp) / "kernel.json", OVERSIZED_FILE: Path(tmp) / "big.json"}
            files[KERNEL_FILE].write_text(kernels.kernel_json_text(SMOOTHED_KERNEL))
            files[OVERSIZED_FILE].write_text(json.dumps({"n": DEFAULT_STATE_CAP + 1, "rows": []}))
            text = json.dumps(cfg).replace(json.dumps(OVERFLOW), "1e400")
            for name, file in files.items():
                text = text.replace(json.dumps(name), json.dumps(str(file)))
            config = Path(tmp) / "config.json"
            config.write_text(text)
            out = Path(tmp) / "runs"
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(config), "--out", str(out)])
            assert code in (0, 1, 2)
            lines = err.getvalue().strip().splitlines()
            run_dirs = list(out.iterdir()) if out.exists() else []
            if misspelt:
                assert lines and lines[0].startswith(
                    f"config error: config has no field {misspelt!r};")
            if lines:
                assert code == 1 and len(lines) == 1
                assert lines[0].startswith(("config error:", "error:"))
                assert "Traceback" not in lines[0]
                assert not run_dirs
            else:
                assert len(run_dirs) == 1
                record = json.loads((run_dirs[0] / "record.json").read_text())
                assert record["exit_code"] == code
