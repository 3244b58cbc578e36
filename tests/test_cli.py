"""Tests for the command-line interface: parsing, outputs, exit codes."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

import qmengine as qm
from qmengine import cli


def run_cli(args: list[str]) -> int:
    return cli.main(args)


def load_csv(path) -> dict[str, np.ndarray]:
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(names)}


class TestParsing:
    def test_flags_build_valid_config(self):
        parser = cli.build_parser()
        args = parser.parse_args(
            ["continuous", "--nbar", "0", "--tau", "1", "--t-final", "1", "--seed", "7"]
        )
        config = cli.parse_config(args)
        assert (config.tau1, config.tau2) == (1.0, 1.0)
        assert config.seed == 7
        assert config.policy == "terminal"  # documented default
        assert config.n_traj == 10_000

    def test_default_step_is_hundredth_of_tau(self):
        parser = cli.build_parser()
        args = parser.parse_args(["continuous", "--tau", "0.5"])
        config = cli.parse_config(args)
        assert config.resolved_dt == 0.005

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "base.json"
        cfg_file.write_text(json.dumps({"nbar": 2.0, "seed": 5, "n_traj": 123}))
        parser = cli.build_parser()
        args = parser.parse_args(
            ["continuous", "--config", str(cfg_file), "--nbar", "1"]
        )
        config = cli.parse_config(args)
        assert config.nbar == 1.0  # flag wins
        assert config.seed == 5  # file value kept
        assert config.n_traj == 123

    def test_repeated_flag_last_wins(self):
        parser = cli.build_parser()
        args = parser.parse_args(["continuous", "--nbar", "1", "--nbar", "2"])
        assert cli.parse_config(args).nbar == 2.0

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text(json.dumps({"nbarr": 2.0}))
        assert run_cli(["continuous", "--config", str(cfg_file)]) == 1

    def test_missing_subcommand_is_usage_error(self):
        assert run_cli([]) == 1

    def test_out_of_domain_value_is_usage_error(self, tmp_path):
        assert run_cli(["continuous", "--nbar", "-1", "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "flags,config_file,key",
        [
            (["--nbar", "nan"], None, "nbar"),
            (["--dt", "nan"], None, "dt"),
            ([], {"nbar": "abc"}, "nbar"),
            (["--t-final", "inf"], None, "t_final"),
            ([], {"n_traj": 1.5}, "n_traj"),
            ([], {"output_path": 3}, "output_path"),
            ([], [1, 2], "JSON object"),
            (
                ["--nbar", "1000", "--tau", "0.001", "--dt", "0.0001"],
                None,
                "uncertainty",
            ),
        ],
        ids=[
            "nbar-nan", "dt-nan", "nbar-string-in-file", "t-final-inf",
            "n-traj-float-in-file", "output-path-number-in-file", "file-not-an-object",
            "covariance-step-too-coarse",
        ],
    )
    def test_bad_value_exits_one_with_one_line(
        self, tmp_path, monkeypatch, capsys, flags, config_file, key
    ):
        monkeypatch.chdir(tmp_path)  # no --output-dir: it would mask output_path
        if config_file is not None:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(config_file))
            flags = flags + ["--config", str(path)]
        code = run_cli(["continuous", *flags])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 1
        assert len(err) == 1 and key in err[0]

    def test_asymmetric_ito_rejected(self, tmp_path):
        code = run_cli(
            ["continuous", "--tau1", "1", "--tau2", "0.9", "--scheme", "ito",
             "--output-dir", str(tmp_path)]
        )
        assert code == 1


@pytest.fixture(scope="module")
def continuous_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("cont")
    code = run_cli(
        ["continuous", "--nbar", "0", "--tau", "1", "--t-final", "1",
         "--n-traj", "2000", "--seed", "7", "--output-dir", str(out)]
    )
    return code, out


class TestOutputs:
    def test_exit_zero_and_expected_files(self, continuous_run):
        code, out = continuous_run
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {"trajectory.csv", "work_samples.csv", "summary.json", "manifest.json"}

    def test_trajectory_csv_round_trips_the_record(self, continuous_run):
        _, out = continuous_run
        table = load_csv(out / "trajectory.csv")
        cfg = qm.EngineConfig(nbar=0.0, t_final=1.0, n_traj=2000, seed=7)
        rec = qm.run_trajectory(cfg, qm.NoiseSource(7, 0))
        assert table["q1"].shape == rec.q1.shape
        assert np.array_equal(table["q1"], rec.q1)  # 17 digits round-trip exactly
        assert np.array_equal(table["r1"][1:], rec.r1)
        assert np.array_equal(table["W_cum"][1:], rec.ledger.cumulative)

    def test_summary_is_machine_checkable(self, continuous_run):
        _, out = continuous_run
        summary = json.loads((out / "summary.json").read_text())
        assert summary["all_checks_passed"] is True
        assert set(summary["checks"]) == {
            "mean_work_within_3se",
            "work_distribution_ks_pass_1pct",
        }
        assert all(isinstance(v, bool) for v in summary["checks"].values())

    def test_manifest_checksums_match_files(self, continuous_run):
        _, out = continuous_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifact"] == "qmengine"
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_byte_identical_reruns(self, tmp_path):
        args = ["continuous", "--nbar", "0.5", "--t-final", "0.5", "--n-traj", "500",
                "--seed", "3"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli(args + ["--output-dir", str(out_a)]) == 0
        assert run_cli(args + ["--output-dir", str(out_b)]) == 0
        for name in ("trajectory.csv", "work_samples.csv", "summary.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_nothing_written_outside_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "only-here"
        assert run_cli(
            ["single-shot", "--nbar", "1", "--n-traj", "5000", "--seed", "1",
             "--output-dir", str(out)]
        ) == 0
        assert {p.name for p in tmp_path.iterdir()} == {"only-here"}


class TestFamilies:
    def test_single_shot(self, tmp_path):
        assert run_cli(
            ["single-shot", "--nbar", "1", "--n-traj", "20000", "--seed", "2",
             "--output-dir", str(tmp_path)]
        ) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["mean_work_within_3se"]
        assert summary["results"]["expected_mean_work"] == 2.0

    def test_binary(self, tmp_path):
        assert run_cli(
            ["binary", "--nbar", "0", "--r0", "1", "--n-traj", "100000", "--seed", "2",
             "--output-dir", str(tmp_path)]
        ) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["binary_mean_within_1pct"]
        assert summary["results"]["mean_work_closed_form"] == pytest.approx(
            0.8498918380799311, rel=1e-12
        )

    def test_classical(self, tmp_path):
        assert run_cli(
            ["classical", "--kbt", "2", "--n-traj", "50000", "--seed", "2",
             "--output-dir", str(tmp_path)]
        ) == 0
        assert run_cli(
            ["classical", "--kbt", "0", "--n-traj", "1000", "--seed", "2",
             "--output-dir", str(tmp_path / "t0")]
        ) == 0
        summary = json.loads((tmp_path / "t0" / "summary.json").read_text())
        assert summary["checks"]["zero_work_at_zero_temperature"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("family", ["single-shot", "binary", "classical"])
    def test_single_sample_summary_is_strict_json(self, tmp_path, family):
        code = run_cli(
            [family, "--n-traj", "1", "--seed", "3", "--output-dir", str(tmp_path)]
        )
        assert code in (0, 2)

        def reject(constant):
            raise ValueError(f"summary.json holds {constant}")

        json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)

    def test_per_step_continuous(self, tmp_path):
        assert run_cli(
            ["continuous", "--policy", "per-step", "--t-final", "1", "--n-traj", "2000",
             "--seed", "4", "--output-dir", str(tmp_path)]
        ) == 0


class TestPresets:
    def test_figure_2b_histogram_overlay(self, tmp_path):
        assert run_cli(
            ["presets", "figure-2b", "--n-traj", "2000", "--seed", "7",
             "--output-dir", str(tmp_path)]
        ) == 0
        table = load_csv(tmp_path / "histogram.csv")
        widths = np.diff(np.unique(table["bin_center"])).mean()
        assert table["count"].sum() == 2000
        assert np.all(table["exact_pdf"] >= 0.0)
        # histogram densities integrate to one
        assert float((table["density"] * widths).sum()) == pytest.approx(1.0, rel=0.02)

    def test_figure_2c_columns(self, tmp_path):
        assert run_cli(
            ["presets", "figure-2c", "--n-traj", "2000", "--dt", "0.0025", "--seed", "8",
             "--output-dir", str(tmp_path)]
        ) == 0
        table = load_csv(tmp_path / "mean_work.csv")
        assert list(table["t"]) == [0.5, 1.0, 2.5, 5.0]
        assert np.all(np.diff(table["sigma_over_tau"]) > 0.0)

    def test_figure_2f_power_curve(self, tmp_path):
        assert run_cli(
            ["presets", "figure-2f", "--seed", "9", "--output-dir", str(tmp_path)]
        ) == 0
        table = load_csv(tmp_path / "power.csv")
        assert table["J_tau"][0] > table["J_tau"][-1]
        assert table["J_tau"][-1] == pytest.approx(0.25, abs=1e-3)

    def test_figure_s2_grid(self, tmp_path):
        assert run_cli(
            ["presets", "figure-S2", "--seed", "10", "--output-dir", str(tmp_path)]
        ) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert 0.84 <= summary["results"]["grid_max_efficiency"] <= 0.86

    def test_figure_s3_three_series(self, tmp_path):
        assert run_cli(
            ["presets", "figure-S3", "--n-traj", "1500", "--seed", "11",
             "--output-dir", str(tmp_path)]
        ) == 0
        table = load_csv(tmp_path / "efficiency_series.csv")
        for tag in ("eta_ratio_1", "eta_ratio_0p9", "eta_ratio_1p2"):
            assert tag in table
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"]["efficiency_ordering"]


class TestExitCodes:
    def test_failing_check_exits_two(self, tmp_path, monkeypatch):
        def failing_runner(config, run):
            return {"results": {}, "checks": {"always_fails": False}}

        monkeypatch.setitem(cli._PRESET_RUNNERS, "figure-2f", failing_runner)
        code = run_cli(["presets", "figure-2f", "--output-dir", str(tmp_path)])
        assert code == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_checks_passed"] is False
