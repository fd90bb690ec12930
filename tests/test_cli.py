import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import amcmc
from amcmc.cli import RunConfig, build_family, build_scheme, main
from amcmc.errors import ConfigError

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

    def test_json_format_keeps_boolean_pass_listed_once(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"family": {"kind": "cyclic-pair"}, "phi": {"kind": "indicator", "state": 0}},
        )
        code = run(["bounds", "--config", cfg, "--out", str(tmp_path / "runs"), "--format", "json"])
        assert code == 0
        run_dir = only_run_dir(tmp_path / "runs", "bounds")
        reports = json.loads((run_dir / "reports.json").read_text())
        assert reports and all(r["pass"] is True for r in reports)
        record = json.loads((run_dir / "record.json").read_text())
        assert record["artifacts"] == ["reports.json"]


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
            ("waning", "waning_rare.json", 0),
            ("waning", "waning_constant_control.json", 0),
            ("poisson", "poisson_cyclic.json", 0),
            ("lln", "lln_counterexample.json", 2),
            ("clt", "clt_iid.json", 0),
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
                    "733cc95848016d46054ca66625e8e02f3f09b1d2bfffd1a96a31e3afd19b2758"}),
            ("bounds", "bounds_mixture.json", {
                "reports.csv": "28d92a41aa89bd59bbbc9ea175e16ec983a9bba08a45ec56f90c9638b63fdc55",
                "reports.json":
                    "d392af2c14ed4113d234f8c6738bb3f61bc796079f0427b2b80db209b68755b1"}),
            ("waning", "waning_rare.json", {
                "waning.csv": "1dedb2dc77f695f42054b33b726700b373020cde406a1ec17e29b38edf6c5027"}),
            ("waning", "waning_constant_control.json", {
                "waning.csv": "3ac8018234dc0a84bb4901c7ce2062eb1d05df1511ed7a2ede20227bd2ffe3de"}),
            ("counterexample", None, {
                "orbit.csv": "6170b229a50c35acf75dc118022f78c0dd6a2276faeba184ea4af742c4c126ac",
                "kernel_forward.json":
                    "bae11272add0331380e7aa69b86f36e1734f18b2b41e19e159806ff28883b512",
                "kernel_backward.json":
                    "229fd41bf9ac717abaca6d3c923eb7eb76581e6dd635a8b415f32ca387c0d173"}),
            ("clt", "clt_iid.json", {
                "clt_replicates.csv":
                    "58f093cf0c9ba6b83db22059121039a851ff8fbfa8d4a621a1aafd8562551573"}),
            ("lln", "lln_iid.json", {
                "lln.csv": "fbcad5d198cb9f9a06a85a19c8e661630edb1ec61364a31f97c5caee93a3bb0b",
                "lln_medians.csv":
                    "59d156688d7c472cc9d2810eba635591d20ba5e3d74dd8a2e4c4258ad097d48b"}),
            ("lln", "lln_counterexample.json", {
                "lln.csv": "b3c9625e7a25abec9d97c8543d0aec0f734f9760c6da4c942f2e60ebb3f58f36",
                "lln_medians.csv":
                    "c2a743c650df34b9ee71b47e540f8b637b30bbbf9ced5d71ff9bd23d04544dea"}),
        ],
    )
    def test_study_tables_match_pinned_sha256(self, tmp_path, command, name, digests):
        config = ["--config", str(CONFIG_DIR / name)] if name else []
        run([command, *config, "--out", str(tmp_path), "--seed", "1"])
        run_dir = only_run_dir(tmp_path, command)
        for artifact, digest in digests.items():
            assert hashlib.sha256((run_dir / artifact).read_bytes()).hexdigest() == digest


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

    def test_non_object_parent_names_it(self):
        with pytest.raises(ConfigError, match="'seeds' must be an object"):
            self.config({"seeds": [1, 2]}).scalar("seeds.count", int, 16)


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path):
        code = run(["lln", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1

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
             "d_series spec: c and epsilon must be positive"),
            ("waning", {"d_series": {"kind": "bernoulli-log", "n": 100, "epsilon": 0}},
             "d_series spec: c and epsilon must be positive"),
            ("waning", {"d_series": {"kind": "constant", "n": 100}, "p": float("inf")},
             "p must be > 0 and finite"),
            ("waning", {"d_series": {"kind": "constant", "n": 100}, "expect_waning": "false"},
             "expect_waning must be true or false"),
            ("poisson", {"family": {"kind": "cyclic-pair"}, "tol": float("inf")},
             "tol must be > 0 and finite"),
            ("lln", {"family": {"kind": "iid"}, "seeds": [3, -1]}, "seeds must be >= 0"),
            ("lln", {"family": {"kind": "iid"}, "expect": "fails"},
             "expect must be one of converge|fail"),
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

    @pytest.mark.parametrize("seed,message", [("abc", "seed must be int"), ("-1", "seed must be >= 0")])
    def test_bad_seed_is_one_line_and_leaves_no_run_dir(self, tmp_path, seed, message):
        out = tmp_path / "runs"
        proc = run_subprocess(["counterexample", "--out", str(out)], AMCMC_SEED=seed)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:") and message in lines[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "scheme,expected",
        [
            ({"kind": "alternating", "s0": 7}, [0, 1, 2]),
            ({"kind": "schedule", "indices": [1, 0, 1], "s0": -2}, [1, 0, 1]),
        ],
    )
    def test_scheme_kinds_without_start_ignore_s0(self, scheme, expected):
        family = build_family({"kind": "mixture", "count": 3})
        built, limit = build_scheme(scheme, family, 2)
        assert limit is None
        assert built.index_array(2).tolist() == expected

    def test_json_format_flag(self, tmp_path):
        code = run(
            ["counterexample", "--out", str(tmp_path), "--seed", "1", "--format", "json"]
        )
        assert code == 2
        run_dir = only_run_dir(tmp_path, "counterexample")
        orbit = json.loads((run_dir / "orbit.json").read_text())
        assert orbit[0]["state_label"] == 2
