"""Tests for the command-line interface: parsing, outputs, exit codes."""

from __future__ import annotations

import ast
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
from decimal import Decimal
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmengine as qm
from qmengine import cli, ensembles, feedback
from qmengine.config import MAX_ENERGY, MAX_N_STEPS


def run_cli(args: list[str]) -> int:
    return cli.main(args)


def assert_strict_outputs(out: Path) -> None:
    """summary.json holds no NaN, and no infinity outside its config echo,
    where tau = inf is a valid input; no CSV cell reads nan."""

    def reject_nan(constant):
        if constant == "NaN":
            raise ValueError("summary.json holds NaN")
        return float(constant)

    summary = json.loads((out / "summary.json").read_text(), parse_constant=reject_nan)
    json.dumps({k: v for k, v in summary.items() if k != "config"}, allow_nan=False)
    for path in out.glob("*.csv"):
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert "nan" not in {c for row in rows for c in row.split(",")}, path.name


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

    def test_default_step_divides_the_horizon(self, tmp_path):
        # min(tau, 1)/100 = 0.007 does not divide t_final = 1; the step count
        # stays round(1/0.007) = 143 and the horizon stays on the grid
        config = qm.EngineConfig(tau1=0.7, tau2=0.7)
        assert config.n_steps == 143 and config.resolved_dt == 1.0 / 143
        assert config.step_index(1.0) == 143
        code = run_cli(
            ["continuous", "--tau", "0.7", "--n-traj", "200", "--output-dir", str(tmp_path)]
        )
        assert code in (0, 2)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert set(summary["checks"]) == {
            "mean_work_within_3se", "work_distribution_ks_pass_1pct",
        }

    def test_step_count_is_capped(self):
        with pytest.raises(ValueError, match=r"t_final=1.0 with dt=1e-09 needs 1e\+09 steps"):
            qm.EngineConfig(dt=1e-9).validate()
        qm.EngineConfig(dt=1e-6).validate()  # exactly the cap

    def test_off_grid_step_exits_one_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["continuous", "--dt", "0.003", "--n-traj", "50", "--output-dir", str(out)]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "step grid" in err[0]
        assert not out.exists()
        # the same step is valid on a horizon it divides
        assert run_cli(argv + ["--t-final", "0.999"]) == 0
        assert (out / "summary.json").exists()

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
            (["--dt", "1e-300"], None, "steps"),
            (["--seed", "-1"], None, "seed"),
        ],
        ids=[
            "nbar-nan", "dt-nan", "nbar-string-in-file", "t-final-inf",
            "n-traj-float-in-file", "output-path-number-in-file", "file-not-an-object",
            "covariance-step-too-coarse", "dt-too-fine", "seed-negative",
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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [["binary", "--r0", "1e300"], ["single-shot", "--nbar", "1e308"],
         ["binary", "--nbar", "1e308"], ["classical", "--kbt", "1e300"]],
        ids=["r0-squared-overflows", "work-sum-overflows", "binary-variance-overflows",
             "classical-variance-overflows"],
    )
    def test_overflow_exits_one_with_one_line(self, tmp_path, capsys, argv):
        code = run_cli([*argv, "--n-traj", "10", "--output-dir", str(tmp_path)])
        assert code == 1
        assert len(capsys.readouterr().err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["continuous"], ["presets", "figure-2b"]])
    def test_readout_weight_overflow_exits_one_with_one_line(self, tmp_path, capsys, argv):
        # dt = t_final = 1e-300 and tau/dt = 1e311: sqrt(tau/dt) is inf, and
        # the ensemble would turn NaN
        out = tmp_path / "out"
        code = run_cli([*argv, "--tau", "1e11", "--t-final", "1e-300", "--output-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: tau1=100000000000.0 with dt=1e-300: the readout noise weight "
            "sqrt(tau1/dt) overflows"
        ]
        assert not out.exists()

    def test_readout_weight_overflow_names_the_channel(self):
        # at and beyond NO_MEASUREMENT_TAU = 1e12 a channel is off and has no
        # readout weight; just below it, tau/dt = 9.99e311 overflows
        for tau2 in (1e12, math.inf):
            qm.EngineConfig(tau2=tau2, t_final=1e-300).validate()
        message = r"^tau2=999000000000\.0 with dt=1e-300: .* sqrt\(tau2/dt\) overflows$"
        with pytest.raises(ValueError, match=message):
            qm.EngineConfig(tau2=9.99e11, t_final=1e-300).validate()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["continuous"], ["presets", "figure-2b"]])
    def test_unmonitored_channel_has_no_readout_weight_to_overflow(self, tmp_path, argv):
        # tau = inf switches both channels off: the same horizon runs and passes
        code = run_cli([*argv, "--tau", "inf", "--t-final", "1e-300", "--n-traj", "200",
                        "--output-dir", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "summary.json").read_text())["results"]["mean_work"] == 0.0

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


class TestStartup:
    def test_cli_import_loads_no_scipy(self):
        # numpy is the only runtime dependency
        code = (
            "import qmengine.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'numpy.'))))"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qm.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            check=True, timeout=60,
        )
        loaded = ast.literal_eval(proc.stdout.strip())
        assert not [m for m in loaded if m == "scipy" or m.startswith("scipy.")]
        # numpy submodules the runs use are loaded with the package, not in a run
        assert {"numpy.random", "numpy.ma"} <= set(loaded)


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
        rec = qm.run_trajectory(cfg)
        # every column, row 0 (the start) included; 17 digits round-trip exactly
        columns = {
            "t": np.arange(cfg.n_steps + 1) * cfg.resolved_dt,
            "q1": rec.q1, "q2": rec.q2,
            "q3": rec.cov[:, :1], "q4": rec.cov[:, 1:2], "q5": rec.cov[:, 2:],
            "r1": rec.r1, "r2": rec.r2, "dW": rec.increment, "W_cum": rec.ledger,
        }
        assert list(table) == list(columns)
        for name, want in columns.items():
            assert table[name].shape == (cfg.n_steps + 1,), name
            assert np.array_equal(table[name], np.ravel(want)), name

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

    def test_manifest_records_workers(self, continuous_run):
        _, out = continuous_run
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = qm.EngineConfig(nbar=0.0, t_final=1.0, n_traj=2000, seed=7)
        assert manifest["workers"] == feedback.ensemble_layout(cfg)["workers"] >= 1

    @pytest.mark.parametrize(
        "argv, workers, scratch_bytes",
        [
            (["continuous", "--n-traj", "200"], 1, None),  # one block
            (["continuous", "--n-traj", "600"], 2, None),
            # 500 steps: chunks of 256 and 344 trajectories, within
            # FREE_WIDTH; each worker maps their noise and _free's scratch,
            # a 2**20-byte noise copy and twenty rows
            (["presets", "figure-2c", "--n-traj", "600"], 2,
             sum(16 * m * 500 + 2**20 + 160 * m for m in (256, 344))),
            # 2500 steps: per-step chunks of one tile, 8 trajectories; each
            # worker maps their noise, seven tile buffers and two rows, which
            # the three ensembles share: 2,880,256 bytes
            (["presets", "figure-S3", "--n-traj", "600"], 2,
             2 * (16 * 8 * 2500 + 8 * (7 * 20_000 + 2 * 8))),
            (["single-shot", "--n-traj", "500"], 0, 0),  # no ensemble
            (["presets", "figure-2f"], 0, 0),
        ],
    )
    def test_manifest_records_the_workers_used(self, tmp_path, argv, workers, scratch_bytes):
        # two CPUs: as many workers as the ensemble's blocks allow, up to two
        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            run_cli(argv + ["--output-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["workers"] == workers
        if scratch_bytes is not None:
            assert manifest["scratch_bytes"] == scratch_bytes
        assert (manifest["scratch_bytes"] > 0) == (workers > 0)

    def test_manifest_records_stream_layout_and_versions(self, continuous_run):
        _, out = continuous_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["version"] == qm.__version__ == "0.3.0"
        assert manifest["noise_streams"] == {
            "bit_generator": "PCG64",
            "seeding": "SeedSequence(seed, spawn_key=(block,))",
            "stream_block": 256,
            "order": "trajectory-major within a block",
        }
        versions = manifest["versions"]
        assert set(versions) == {"python", "numpy"}
        assert versions["numpy"] == np.__version__
        assert all(isinstance(v, str) and v for v in versions.values())

    @pytest.mark.parametrize(
        "argv",
        [
            ["single-shot", "--n-traj", "5000"],
            ["binary", "--n-traj", "5000"],
            ["classical", "--n-traj", "5000"],
            ["presets", "figure-2b", "--n-traj", "500"],
        ],
        ids=lambda argv: argv[-3],
    )
    def test_manifest_digests_match_files_on_disk(self, tmp_path, argv):
        assert run_cli(argv + ["--seed", "1", "--output-dir", str(tmp_path)]) in (0, 2)
        listed = json.loads((tmp_path / "manifest.json").read_text())["files"]
        on_disk = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()
            if p.name != "manifest.json"
        }
        assert listed == on_disk

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


def reference_csv(comments: list[str], columns: dict) -> bytes:
    """The cell-by-cell writer that the block writer replaced."""

    def fmt(x) -> str:
        if isinstance(x, (bool, np.bool_)):
            return str(bool(x))
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return "%.17g" % float(x)

    lines = [f"# {c}" for c in comments]
    lines.append(",".join(columns))
    n_rows = len(next(iter(columns.values())))
    cols = list(columns.values())
    for i in range(n_rows):
        lines.append(",".join(fmt(col[i]) for col in cols))
    return ("\n".join(lines) + "\n").encode()


SMALL_BLOCK = 4
EDGE_FLOATS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
    1.7976931348623157e308, 3.0, -2.0, 1e16, 0.1,
]
EDGE_INTS = [0, -1, 2**53 + 1, -(2**53) - 3, 2**63 - 1, -(2**63)]


@st.composite
def csv_column(draw, n_rows: int):
    kind = draw(st.sampled_from(["float", "int64", "uint64", "bool", "float64 list"]))
    if kind in ("float", "float64 list"):
        cells = st.sampled_from(EDGE_FLOATS) | st.floats()
    elif kind == "int64":
        cells = st.sampled_from(EDGE_INTS) | st.integers(-(2**63), 2**63 - 1)
    elif kind == "uint64":
        cells = st.sampled_from([0, 2**53 + 1, 2**64 - 1]) | st.integers(0, 2**64 - 1)
    else:
        cells = st.booleans()
    values = draw(st.lists(cells, min_size=n_rows, max_size=n_rows))
    if kind == "float64 list":
        return [np.float64(v) for v in values]
    dtype = {"float": np.float64, "int64": np.int64, "uint64": np.uint64, "bool": bool}[kind]
    return np.array(values, dtype=dtype)


class TestCsvWriter:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "n_rows", [0, SMALL_BLOCK - 1, SMALL_BLOCK, SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 2]
    )
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_bytes_match_the_cell_by_cell_writer(self, n_rows, workers, data):
        n_cols = data.draw(st.integers(1, 4), label="n_cols")
        columns = {f"c{i}": data.draw(csv_column(n_rows)) for i in range(n_cols)}
        comments = ["unit line", "second comment"]
        expected = reference_csv(comments, columns)
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(cli, "_CSV_BLOCK_ROWS", SMALL_BLOCK), \
                mock.patch.object(feedback, "worker_threads", lambda: workers):
            path = Path(tmp) / "out.csv"
            digest = cli._write_csv(path, comments, columns)
            written = path.read_bytes()
        assert written == expected
        assert digest == hashlib.sha256(expected).hexdigest()

    def test_repeated_column_is_formatted_once_per_block(self, tmp_path):
        # single-shot writes theta as both theta and wait_time; one worker,
        # because the mock's call count is not updated atomically
        theta = np.random.default_rng(3).uniform(0.0, 6.0, 2 * SMALL_BLOCK + 1)
        columns = {"r": 2.0 * theta, "theta": theta, "wait_time": theta}
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", SMALL_BLOCK), \
                mock.patch.object(feedback, "worker_threads", lambda: 1), \
                mock.patch.object(cli, "_column_cells", wraps=cli._column_cells) as cells:
            cli._write_csv(tmp_path / "out.csv", [], columns)
        assert (tmp_path / "out.csv").read_bytes() == reference_csv([], columns)
        assert cells.call_count == 2 * 3  # two distinct arrays in each of three blocks

    def test_ragged_columns_raise_naming_each_length(self, tmp_path):
        path = tmp_path / "ragged.csv"
        columns = {"r": np.zeros(3), "theta": np.zeros(5), "work": [0.0]}
        with pytest.raises(ValueError, match="r=3, theta=5, work=1"):
            cli._write_csv(path, [], columns)
        assert not path.exists()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_failed_write_leaves_no_data_file(self, tmp_path, monkeypatch, capsys, workers):
        real_open = open
        written: list[bytes] = []

        class FullDisk:
            """A binary file whose third write fails as on a full disk."""

            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if len(written) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(data)
                return self.fh.write(data)

        argv = ["single-shot", "--n-traj", "100", "--seed", "1"]
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 8)
        monkeypatch.setattr(feedback, "worker_threads", lambda: workers)
        assert run_cli(argv + ["--output-dir", str(tmp_path / "full")]) == 0
        whole = (tmp_path / "full" / "cycles.csv").read_bytes()
        monkeypatch.setattr(cli, "open", FullDisk, raising=False)
        code = run_cli(argv + ["--output-dir", str(tmp_path / "out")])
        assert code == 1
        assert "No space left on device" in capsys.readouterr().err
        # the header, then the first block of eight rows, reached the file
        assert len(written) == 2
        assert written[0].endswith(b"r,theta,wait_time,work\n")
        assert written[1].count(b"\n") == 8
        assert whole.startswith(b"".join(written))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_at_most_one_block_more_than_the_workers_is_in_flight(self, tmp_path, workers):
        # the file write of the first block stalls; meanwhile the workers
        # start only the blocks already handed to them
        real_open, csv_block = open, cli._csv_block
        formatted, seen = [], []

        def counting_block(arrays, start):
            formatted.append(start)
            return csv_block(arrays, start)

        class SlowDisk:
            def __init__(self, *args, **kwargs):
                self.fh, self.writes = real_open(*args, **kwargs), 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    time.sleep(0.3)
                    seen.append(len(formatted))
                return self.fh.write(data)

        columns = {"x": np.arange(25 * SMALL_BLOCK) / 7.0}
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", SMALL_BLOCK), \
                mock.patch.object(feedback, "worker_threads", lambda: workers), \
                mock.patch.object(cli, "_csv_block", counting_block), \
                mock.patch.object(cli, "open", SlowDisk, create=True):
            cli._write_csv(tmp_path / "out.csv", [], columns)
        assert seen == [workers + 1]
        assert sorted(formatted) == list(range(0, 25 * SMALL_BLOCK, SMALL_BLOCK))
        assert (tmp_path / "out.csv").read_bytes() == reference_csv([], columns)

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("failure", [ValueError, KeyboardInterrupt])
    def test_failing_block_stops_the_writer(self, tmp_path, capsys, workers, failure):
        # block 2 of 25 fails on a worker thread (a KeyboardInterrupt stands
        # for an interrupt as the caller waits for it) while block 3 is still
        # being formatted: the writer waits for block 3, and only then is
        # the file removed
        csv_block = cli._csv_block
        out = tmp_path / "out"
        block_3_started, threads, file_kept = threading.Event(), [], []

        def failing_block(arrays, start):
            threads.append(threading.current_thread())
            if start == 2 * 8:
                block_3_started.wait(10)
                raise failure("block formatting failed")
            if start == 3 * 8:
                block_3_started.set()
                time.sleep(0.2)
                file_kept.append((out / "cycles.csv").exists())
            return csv_block(arrays, start)

        live = threading.active_count()
        argv = ["single-shot", "--n-traj", "200", "--output-dir", str(out)]
        with mock.patch.object(cli, "_CSV_BLOCK_ROWS", 8), \
                mock.patch.object(feedback, "worker_threads", lambda: workers), \
                mock.patch.object(cli, "_csv_block", failing_block):
            if failure is KeyboardInterrupt:
                with pytest.raises(KeyboardInterrupt):
                    run_cli(argv)
            else:
                assert run_cli(argv) == 1
                err = capsys.readouterr().err.strip().splitlines()
                assert len(err) == 1 and "block formatting failed" in err[0]
        assert file_kept == [True]
        assert threading.active_count() == live
        assert threading.main_thread() not in threads
        assert len(threads) < 25
        assert list(tmp_path.iterdir()) == []


def significant_digits(text: str) -> int:
    """How many digits '%.17g' shows, without leading and trailing zeros."""
    mantissa = text.lstrip("-").split("e")[0].replace(".", "")
    return len(mantissa.strip("0"))


class TestFloatFormatter:
    """The array formatter against '%.17g', cell by cell."""

    def assert_matches_percent(self, values):
        column = np.asarray(values, dtype=np.float64)
        values = column.tolist()
        blocks = range(0, len(values), cli._CSV_BLOCK_ROWS)
        got = b"".join(cli._csv_block([column], start) for start in blocks)
        expected = ("%.17g\n" * len(values)) % tuple(values)
        if got != expected.encode():
            cells = zip(values, got.decode().split("\n"), expected.split("\n"))
            bad = [cell for cell in cells if cell[1] != cell[2]]
            pytest.fail(f"{len(bad)} of {len(values)} cells differ, e.g. {bad[:3]}")

    def test_a_million_log_uniform_doubles_of_both_signs(self):
        rng = np.random.default_rng(14)
        values = 10.0 ** rng.uniform(-320.0, 308.0, 1_000_000)
        values[rng.random(values.size) < 0.5] *= -1.0
        self.assert_matches_percent(values)

    def test_every_exponent_with_every_digit_count(self):
        rng = np.random.default_rng(15)
        values, unreachable = [], []
        for exp10 in range(-6, 17):
            for digits in range(1, 18):
                # a double that '%.17g' prints with this exponent and digit count
                low, high = 10 ** (digits - 1), 10**digits
                leads = range(low, high) if digits <= 4 else rng.integers(low, high, 5000)
                for lead in leads:
                    v = float(f"{lead}e{exp10 - digits + 1}")
                    text = "%.17g" % v
                    if (significant_digits(text), Decimal(text).adjusted()) == (digits, exp10):
                        values += [v, -v]
                        break
                else:
                    unreachable.append((exp10, digits))
        # the doubles nearest to 1e-6..9e-6 and to 1e-5..9e-5 print 17 digits
        assert unreachable == [(-6, 1), (-5, 1)]
        self.assert_matches_percent(values)

    def test_exact_ties_round_half_to_even(self):
        rng = np.random.default_rng(16)
        values = [1e15 + 0.25, 1e15 + 0.75]
        # odd n / 2**j whose decimal expansion has 18 digits, the last a 5
        for j in range(2, 26):
            low, high = -(-10**17 // 5**j), min(10**18 // 5**j, 2**53)
            for n in rng.integers(low, high, 40, endpoint=True) | 1:
                if len(str(int(n) * 5**j)) == 18:
                    values.append(int(n) / 2**j)
        assert len(values) > 500
        self.assert_matches_percent(values + [-v for v in values])

    def test_powers_of_ten_and_their_neighbours(self):
        powers = [float(f"1e{e}") for e in range(-8, 19)]
        values = powers + [np.nextafter(p, d) for p in powers for d in (0.0, np.inf)]
        self.assert_matches_percent(values + [-v for v in values])

    def test_edge_values(self):
        largest = np.finfo(np.float64).max
        values = [
            np.nextafter(1.0, 0.0), 1e-14,  # the second rounds up to 1e-14 at 17 digits
            0.0, -0.0, 5e-324, -5e-324, largest, -largest, np.inf, -np.inf, np.nan,
        ]
        self.assert_matches_percent(values)

    def fallback_calls(self, tmp_path, columns) -> int:
        with mock.patch.object(cli, "_fmt", wraps=cli._fmt) as fmt:
            cli._write_csv(tmp_path / "out.csv", [], columns)
        assert (tmp_path / "out.csv").read_bytes() == reference_csv([], columns)
        return fmt.call_count

    def test_plain_columns_never_reach_the_per_cell_fallback(self, tmp_path):
        rng = np.random.default_rng(17)
        x = rng.uniform(0.0, 10.0, 3 * cli._CSV_BLOCK_ROWS)
        x[rng.random(x.size) < 0.2] = 0.0
        x[rng.random(x.size) < 0.1] = -0.0
        columns = {"x": x, "i": rng.integers(-(2**63), 2**63 - 1, x.size, endpoint=True)}
        assert self.fallback_calls(tmp_path, columns) == 0

    def test_only_cells_outside_the_array_path_reach_it(self, tmp_path):
        columns = {"edge": np.array([1e-7, 1e17, np.inf, np.nan])}
        assert self.fallback_calls(tmp_path, columns) == 4


class TestIntFormatter:
    """The digit-group integer cells against '%d', byte for byte."""

    def assert_matches_percent(self, column):
        blocks = range(0, len(column), cli._CSV_BLOCK_ROWS)
        got = b"".join(cli._csv_block([column], start) for start in blocks)
        assert got == ("%d\n" * len(column) % tuple(column.tolist())).encode()

    def test_zero_negatives_and_the_extremes_of_every_width(self):
        for dtype in (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16,
                      np.uint32, np.uint64):
            info = np.iinfo(dtype)
            values = [0, 1, info.min, info.max, info.min + 1, info.max - 1]
            values += [v for v in (-1, -10, -9999, -10_000) if v >= info.min]
            self.assert_matches_percent(np.array(values, dtype))

    def test_every_digit_count_and_group_edge(self):
        # 1 to 19 digits of both signs, at and beside each power of ten
        values = [s * (10**p + d) for p in range(19) for d in (-1, 0, 1) for s in (1, -1)]
        self.assert_matches_percent(np.array(values, np.int64))
        self.assert_matches_percent(np.array([10**19 - 1, 10**19, 2**64 - 1], np.uint64))

    def test_random_int64_over_several_blocks(self):
        rng = np.random.default_rng(18)
        column = rng.integers(-(2**63), 2**63 - 1, 2 * cli._CSV_BLOCK_ROWS + 5, endpoint=True)
        column[::7] //= 10 ** rng.integers(0, 19, column[::7].size)
        self.assert_matches_percent(column)


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
        assert summary["checks"]["binary_mean_within_3se"]
        assert summary["results"]["mean_work_closed_form"] == pytest.approx(
            0.8498918380799311, rel=1e-12
        )

    def test_binary_mean_gate_scales_with_the_standard_error_at_large_r0(self, tmp_path):
        # at r0 = 4 a bound of 1% of the mean is about 0.3 se: this run misses
        # by 3.7% (1.2 se), and 35 of seeds 0-39 missed by more than 1%
        assert run_cli(
            ["binary", "--nbar", "0", "--r0", "4", "--seed", "0",
             "--output-dir", str(tmp_path)]
        ) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        results = summary["results"]
        miss = abs(results["mean_work_mc"] - results["mean_work_closed_form"])
        assert 0.01 * results["mean_work_closed_form"] < miss <= 3.0 * results["stderr"]
        assert summary["checks"]["binary_mean_within_3se"]

    def test_binary_defaults_to_1e5_samples(self, tmp_path):
        # 10^5 stays the default, so the default run's bytes hold; at r0 = 1
        # its 3 se mean gate is about 1% of the mean
        assert run_cli(["binary", "--output-dir", str(tmp_path)]) == 0
        lines = (tmp_path / "cycles.csv").read_text().splitlines()
        assert len([l for l in lines if not l.startswith("#")]) == 1 + 100_000
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["n_traj"] == 100_000

    @pytest.mark.parametrize("source", ["flag", "config-file"])
    def test_explicit_binary_sample_size_wins(self, tmp_path, source):
        argv = ["binary"]
        if source == "flag":
            argv += ["--n-traj", "500"]
        else:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"n_traj": 500}))
            argv += ["--config", str(path)]
        assert cli.parse_config(cli.build_parser().parse_args(argv)).n_traj == 500

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
    @pytest.mark.parametrize("kbt", ["1e-300", "1e-320"])
    def test_classical_gate_holds_at_tiny_temperatures(self, tmp_path, kbt):
        # the variance of work samples near 1e-300 underflows to 0 unless the
        # moments are taken in units of kbt
        code = run_cli(
            ["classical", "--kbt", kbt, "--n-traj", "1000", "--output-dir", str(tmp_path)]
        )
        assert code == 0

    @pytest.mark.filterwarnings("error")
    def test_continuous_gate_holds_at_a_tiny_horizon(self, tmp_path):
        # work samples near 2.5e-301: the squares of the samples underflow,
        # so the moments scale them by a power of two first
        code = run_cli(
            ["continuous", "--t-final", "1e-300", "--n-traj", "1000",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        results = json.loads((tmp_path / "summary.json").read_text())["results"]
        assert 0.0 < results["stderr"] < results["mean_work"]

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

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["single-shot"],
            ["binary"],
            ["binary", "--nbar", "0"],  # no outcome reaches r0/2
            ["continuous", "--t-final", "1e-150", "--dt", "1e-152"],
        ],
        ids=lambda argv: "-".join(argv[:3]),
    )
    def test_largest_energies_keep_the_summary_finite(self, tmp_path, argv):
        family, *flags = argv
        code = run_cli(
            [family, "--nbar", str(MAX_ENERGY), "--r0", str(math.sqrt(MAX_ENERGY)),
             *flags, "--n-traj", "20000", "--seed", "5", "--output-dir", str(tmp_path)]
        )
        assert code in (0, 2)

        def reject(constant):
            raise ValueError(f"summary.json holds {constant}")

        json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags", [
        [], ["--nbar", "1"], ["--tau2", "1.2"], ["--tau2", "inf"], ["--scheme", "ito"],
        ["--tau", "1e13", "--scheme", "ito"],  # a ledger without noise
    ], ids=lambda flags: "-".join(flags) or "default")
    def test_policy_none_checks_the_ledger_mean(self, tmp_path, flags):
        code = run_cli(
            ["continuous", "--policy", "none", *flags, "--n-traj", "2000", "--seed", "3",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"] == {"mean_work_within_3se": True}
        config = qm.EngineConfig(**summary["config"])
        assert summary["results"]["expected_mean_work"] == ensembles.ledger_mean_work(config)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["continuous", "--tau", "1e13"],
        ["continuous", "--tau", "1e12", "--policy", "per-step"],
        ["presets", "figure-2b", "--tau", "1e13"],
        ["presets", "figure-2c", "--tau", "1e13"],
    ], ids=lambda argv: "-".join(argv))
    def test_channels_switched_off_at_finite_tau_bank_no_work(self, tmp_path, argv):
        # at tau >= 1e12 the kernel banks nothing; the oracle must say 0 too,
        # not sigma/tau ~ 2.5e-13, or the mean and KS gates fail on a 0 mean
        assert run_cli(
            [*argv, "--n-traj", "300", "--seed", "1", "--output-dir", str(tmp_path)]
        ) == 0
        results = json.loads((tmp_path / "summary.json").read_text())["results"]
        if "figure-2c" in argv:
            assert not load_csv(tmp_path / "mean_work.csv")["sigma_over_tau"].any()
        else:
            assert results["mean_work"] == results["expected_mean_work"] == 0.0
            assert "point mass" in results["ks_not_applicable"]

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

    def test_figure_2b_histogram_mass_equals_ensemble_size(self, tmp_path):
        assert run_cli(
            ["presets", "figure-2b", "--nbar", "0", "--dt", "0.01", "--t-final", "1",
             "--n-traj", "2000", "--seed", "1", "--output-dir", str(tmp_path)]
        ) == 0
        assert load_csv(tmp_path / "histogram.csv")["count"].sum() == 2000
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["results"]["mean_work"] >= 0.0

    @pytest.mark.filterwarnings("error")
    def test_figure_2b_without_measurement_has_no_overlay(self, tmp_path):
        # every work sample is 0: the exact law is a point mass with no density
        assert run_cli(
            ["presets", "figure-2b", "--tau", "inf", "--n-traj", "200",
             "--output-dir", str(tmp_path)]
        ) == 0
        table = load_csv(tmp_path / "histogram.csv")
        assert list(table) == ["bin_center", "count", "density"]
        assert table["count"].sum() == 200
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert "W = 0" in summary["results"]["exact_pdf_not_applicable"]

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

    @pytest.mark.parametrize(
        "argv",
        [["figure-2c", "--n-traj", "200"], ["figure-2f"]],
        ids=lambda argv: argv[0],
    )
    def test_default_step_divides_the_checkpoint_spacing(self, tmp_path, argv):
        # min(tau, 1)/100 = 0.007 divides neither 0.5 (figure-2c) nor 0.25
        # (figure-2f); the default step is derived from the spacing instead
        code = run_cli(
            ["presets", *argv, "--tau", "0.7", "--seed", "3", "--output-dir", str(tmp_path)]
        )
        assert code in (0, 2)
        assert (tmp_path / "summary.json").exists()

    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_every_preset_runs_at_a_short_measurement_time(self, tmp_path, preset):
        # each preset's default step follows tau, so none is too coarse for it
        code = run_cli(
            ["presets", preset, "--tau", "0.07", "--n-traj", "20", "--seed", "3",
             "--output-dir", str(tmp_path)]
        )
        assert code in (0, 2)
        assert (tmp_path / "summary.json").exists()

    def test_figure_s2_grid(self, tmp_path):
        assert run_cli(
            ["presets", "figure-S2", "--seed", "10", "--output-dir", str(tmp_path)]
        ) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert 0.84 <= summary["results"]["grid_max_efficiency"] <= 0.86

    def test_figure_s3_needs_two_trajectories(self, tmp_path, capsys):
        code = run_cli(["presets", "figure-S3", "--n-traj", "1", "--output-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "at least 2 trajectories, got 1" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    def test_figure_s3_at_two_trajectories_is_strict_json(self, tmp_path):
        code = run_cli(["presets", "figure-S3", "--n-traj", "2", "--output-dir", str(tmp_path)])
        assert code in (0, 2)

        def reject(constant):
            raise ValueError(f"summary.json holds {constant}")

        json.loads((tmp_path / "summary.json").read_text(), parse_constant=reject)
        assert "nan" not in (tmp_path / "efficiency_series.csv").read_text()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", ["1e12", "1e13", "inf"])
    @pytest.mark.parametrize("preset", cli.PRESETS)
    def test_channels_switched_off_write_no_nan(self, tmp_path, capsys, preset, tau):
        # a preset with its channels off either writes finite, strict outputs
        # or exits 1 with one line, as figure-S3 does when no energy enters
        out = tmp_path / "out"
        code = run_cli(
            ["presets", preset, "--tau", tau, "--n-traj", "20", "--seed", "2",
             "--output-dir", str(out)]
        )
        if code == 1:
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "Traceback" not in err[0]
            assert list(tmp_path.iterdir()) == []
        else:
            assert code in (0, 2)
            assert_strict_outputs(out)

    @pytest.mark.filterwarnings("error")
    def test_figure_2f_without_measurement_is_nu_squared(self, tmp_path):
        # J*tau = nu**2, which stays at nu(0)**2 = 2.25 when no channel
        # measures: tau = inf writes what tau = 1e13 does, and fails honestly
        for tau in ("1e13", "inf"):
            assert run_cli(
                ["presets", "figure-2f", "--tau", tau, "--output-dir", str(tmp_path / tau)]
            ) == 2
        off, inf = (tmp_path / tau / "power.csv" for tau in ("1e13", "inf"))
        assert inf.read_bytes() == off.read_bytes()
        summary = json.loads((tmp_path / "inf" / "summary.json").read_text())
        assert summary["results"] == {"J_tau_final": 2.25}
        assert summary["checks"] == {
            "power_monotone_decreasing": True, "power_reaches_quarter": False
        }

    def test_figure_2b_takes_its_law_from_the_ensemble_run(self, tmp_path):
        # the overlay's rate comes from _run_continuous: one schedule per run
        with mock.patch.object(cli, "sigma_schedule", wraps=ensembles.sigma_schedule) as s:
            assert run_cli(
                ["presets", "figure-2b", "--n-traj", "200", "--tau", "0.7",
                 "--output-dir", str(tmp_path)]
            ) == 0
        assert s.call_count == 1
        assert "exact_pdf" in load_csv(tmp_path / "histogram.csv")

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


def assert_echo_reproduces_the_run(tmp_path, command, flags, expected):
    """Run command with flags at seed 6, check that summary.json echoes the
    expected values, and rerun command with only that echo as its config
    file: every output but the manifest must come back byte for byte."""
    first, again = tmp_path / "first", tmp_path / "again"
    code = run_cli(
        [*command, *flags, "--n-traj", "200", "--seed", "6", "--output-dir", str(first)]
    )
    assert code in (0, 2)
    echo = json.loads((first / "summary.json").read_text())["config"]
    assert {key: echo[key] for key in expected} == expected
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echo))
    assert run_cli([*command, "--config", str(path), "--output-dir", str(again)]) == code
    names = sorted(p.name for p in first.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in again.iterdir() if p.name != "manifest.json")
    for name in names:
        assert (again / name).read_bytes() == (first / name).read_bytes(), name


class TestPresetSettings:
    @pytest.mark.parametrize(
        "preset,expected",
        [
            ("figure-2c", {"policy": "terminal", "t_final": 5.0, "dt": 0.01}),
            ("figure-2f", {"policy": "terminal", "t_final": 10.0, "dt": 0.01, "nbar": 1.0}),
            ("figure-S3", {"policy": "per-step", "t_final": 25.0, "dt": 0.01, "tau2": 1.0}),
        ],
    )
    def test_summary_echoes_the_config_that_ran(self, tmp_path, preset, expected):
        assert_echo_reproduces_the_run(tmp_path, ["presets", preset], [], expected)

    @pytest.mark.parametrize(
        "family,flags,expected",
        [
            ("single-shot", ["--nbar", "0.5"], {"nbar": 0.5}),
            ("binary", ["--r0", "1.5", "--demon-kbtd", "0.3"], {"r0": 1.5, "demon_kbtd": 0.3}),
            ("classical", ["--kbt", "2", "--spring-k", "3"], {"kbt": 2.0, "spring_k": 3.0}),
            ("continuous", ["--tau2", "0.8"], {"tau2": 0.8, "tau1": 1.0}),
        ],
        ids=["single-shot", "binary", "classical", "continuous"],
    )
    def test_family_echo_reproduces_the_run(self, tmp_path, family, flags, expected):
        assert_echo_reproduces_the_run(tmp_path, [family], flags, expected)

    @pytest.mark.parametrize(
        "argv,config_file,key",
        [
            (["figure-2c", "--policy", "per-step"], None, "policy"),
            (["figure-2c", "--t-final", "3"], None, "t_final"),
            (["figure-2c"], {"t_final": 3.0}, "t_final"),
            (["figure-S3", "--dt", "0.003", "--t-final", "0.999"], None, "t_final"),
            (["figure-S3", "--tau2", "0.5"], None, "tau2"),
            (["figure-S3", "--tau1", "0.5", "--tau2", "1"], None, "tau2"),
            (["figure-2b", "--tau1", "1", "--tau2", "0.9"], None, "tau2"),
            (["figure-2c", "--dt", "0.04"], None, "step grid"),
            (["figure-2f", "--dt", "0.1"], None, "step grid"),
            (["figure-2c"], {"spacing": 0.5}, "unknown"),
        ],
        ids=[
            "2c-policy", "2c-t-final", "2c-t-final-in-file", "S3-t-final", "S3-tau2",
            "S3-tau2-not-tau1", "2b-asymmetric", "2c-dt-off-grid", "2f-dt-off-grid",
            "spacing-in-file",
        ],
    )
    def test_rejected_before_any_output(self, tmp_path, capsys, argv, config_file, key):
        if config_file is not None:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config_file))
            argv = argv + ["--config", str(path)]
        out = tmp_path / "out"
        with mock.patch.object(cli, "_Run", side_effect=AssertionError("_Run was made")):
            code = run_cli(["presets", *argv, "--output-dir", str(out)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and key in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure-2c", "--policy", "terminal", "--t-final", "5"],
            ["figure-S3", "--tau2", "1", "--policy", "per-step"],
            ["figure-S3", "--tau", "0.5"],
            ["figure-S3", "--tau1", "0.5"],
            ["figure-2b", "--tau1", "0.5"],
        ],
        ids=["2c-same-values", "S3-same-values", "S3-tau", "S3-tau1", "2b-tau1"],
    )
    def test_a_value_equal_to_the_fixed_one_is_accepted(self, argv):
        config = cli.parse_config(cli.build_parser().parse_args(["presets", *argv]))
        assert config.tau2 == config.tau1
        assert config.t_final == {"figure-2b": 1.0, "figure-2c": 5.0, "figure-S3": 25.0}[argv[0]]

    def test_figure_2f_nbar_is_a_default(self, tmp_path):
        for name, flags in (("vacuum", ["--nbar", "0"]), ("default", [])):
            assert run_cli(
                ["presets", "figure-2f", *flags, "--output-dir", str(tmp_path / name)]
            ) == 0
        summary = json.loads((tmp_path / "vacuum" / "summary.json").read_text())
        assert summary["config"]["nbar"] == 0.0
        power = load_csv(tmp_path / "vacuum" / "power.csv")["J_tau"]
        # a vacuum start sits at the steady state from t = 0
        assert power[0] == pytest.approx(0.25, abs=1e-12)
        default = tmp_path / "default" / "power.csv"
        assert default.read_bytes() != (tmp_path / "vacuum" / "power.csv").read_bytes()


class TestExitCodes:
    def test_failing_check_exits_two(self, tmp_path, monkeypatch):
        def failing_runner(config, run):
            return {"results": {}, "checks": {"always_fails": False}}

        monkeypatch.setitem(cli._RUNNERS, "figure-2f", failing_runner)
        code = run_cli(["presets", "figure-2f", "--output-dir", str(tmp_path)])
        assert code == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["all_checks_passed"] is False

    @pytest.mark.parametrize(
        "flags",
        [["--tau2", "1.2", "--policy", "per-step"],
         ["--tau1", "1", "--tau2", "0.9", "--dt", "0.01"]],
        ids=["per-step-asymmetric", "asymmetric-channels"],
    )
    def test_run_without_checks_exits_two(self, tmp_path, capsys, flags):
        code = run_cli(
            ["continuous", *flags, "--n-traj", "200", "--output-dir", str(tmp_path)]
        )
        assert code == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["checks"] == {}
        assert summary["all_checks_passed"] is False
        out = capsys.readouterr().out
        assert "  [UNCHECKED] no check applies to this configuration" in out.splitlines()

    def test_runtime_error_removes_every_output(self, tmp_path, capsys):
        # the KS comparison fails after both CSVs were written
        failure = ValueError("KS comparison failed")
        with mock.patch.object(cli, "ks_compare", side_effect=failure):
            code = run_cli(
                ["continuous", "--n-traj", "200", "--output-dir", str(tmp_path)]
            )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "KS comparison failed" in err[0]
        assert list(tmp_path.iterdir()) == []
        # an output directory the run created goes with the files
        fresh = tmp_path / "out"
        with mock.patch.object(cli, "ks_compare", side_effect=failure):
            code = run_cli(["continuous", "--n-traj", "200", "--output-dir", str(fresh)])
        assert code == 1
        assert list(tmp_path.iterdir()) == []
        # and so do the parents that were made for it
        nested = tmp_path / "a" / "b" / "out"
        with mock.patch.object(cli, "ks_compare", side_effect=failure):
            code = run_cli(["continuous", "--n-traj", "200", "--output-dir", str(nested)])
        assert code == 1
        assert list(tmp_path.iterdir()) == []

    def test_worker_error_exits_one_with_one_line(self, tmp_path, capsys):
        # the second of two workers fails partway through the ensemble
        run_blocks = feedback._run_blocks

        def failing(tables, streams, edges, *rest):
            if edges[0] > 0:
                raise ValueError("second worker failed")
            return run_blocks(tables, streams, edges, *rest)

        with mock.patch.object(feedback, "worker_threads", lambda: 2), \
                mock.patch.object(feedback, "_run_blocks", failing):
            code = run_cli(
                ["continuous", "--n-traj", "600", "--output-dir", str(tmp_path)]
            )
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "second worker failed" in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_out_of_memory_exits_one_with_one_line(self, tmp_path, monkeypatch, capsys):
        # an array too large for memory, after a file was written
        def exhausted_runner(config, run):
            run.csv("cycles.csv", ["partial"], {"r": np.zeros(3)})
            raise MemoryError("Unable to allocate 14.6 TiB for an array")

        monkeypatch.setitem(cli._RUNNERS, "single-shot", exhausted_runner)
        out_dir = tmp_path / "out"
        code = run_cli(["single-shot", "--output-dir", str(out_dir)])
        assert code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "Unable to allocate" in err[0]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("policy", ["terminal", "per-step"])
    def test_no_measurement_skips_only_the_ks_check(self, tmp_path, policy):
        # with both channels off every work sample is exactly 0, the mean the
        # schedule predicts; KS does not apply to that point mass
        code = run_cli(
            ["continuous", "--tau", "inf", "--policy", policy, "--n-traj", "150",
             "--output-dir", str(tmp_path)]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary["checks"]) == ["mean_work_within_3se"]
        assert summary["results"]["expected_mean_work"] == 0.0
        assert "point mass" in summary["results"]["ks_not_applicable"]

    @pytest.mark.parametrize("n_traj", [1, 50, 99])
    def test_small_sample_skips_only_the_ks_check(self, tmp_path, n_traj):
        code = run_cli(
            ["continuous", "--n-traj", str(n_traj), "--output-dir", str(tmp_path)]
        )
        assert code in (0, 2)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert list(summary["checks"]) == ["mean_work_within_3se"]
        assert summary["results"]["ks_not_applicable"] == (
            f"need at least 100 samples, got {n_traj}"
        )
        assert "ks_pvalue_bound" not in summary["results"]
        samples = load_csv(tmp_path / "work_samples.csv")["work"]
        assert len(samples) == n_traj
        assert (tmp_path / "trajectory.csv").exists()


#: Families whose configuration the fuzz test draws; each run stays small.
FUZZ_FAMILIES = ("single-shot", "binary", "classical", "continuous")
_NAN, _INF = float("nan"), float("inf")
#: Values of the wrong type for a numeric field; only a config file carries them.
_WRONG_TYPES = st.one_of(st.booleans(), st.text(max_size=3), st.just([1]), st.just({}))


def _below(bound: float) -> st.SearchStrategy:
    return st.floats(max_value=bound, allow_nan=False, allow_infinity=False)


def _above(bound: float) -> st.SearchStrategy:
    return st.floats(min_value=bound, exclude_min=True, allow_infinity=False)


#: Per engine key: (valid values, invalid values).  A valid value keeps a run
#: small (t_final <= 1, n_traj <= 200) and inside every domain constraint.
_FUZZ_KEYS = {
    "nbar": (
        st.floats(0.0, MAX_ENERGY),
        st.one_of(st.sampled_from([_NAN, _INF]), _below(-1e-9), _above(MAX_ENERGY)),
    ),
    "tau1": (
        st.one_of(st.floats(0.1, 10.0), st.just(_INF)),
        st.one_of(st.sampled_from([_NAN, -_INF]), _below(0.0)),
    ),
    "tau2": (
        st.one_of(st.floats(0.1, 10.0), st.just(_INF)),
        st.one_of(st.sampled_from([_NAN, -_INF]), _below(0.0)),
    ),
    "t_final": (
        st.floats(0.01, 1.0),
        # a horizon of more than MAX_N_STEPS default steps is too long
        st.one_of(st.sampled_from([_NAN, _INF, -_INF]), _below(0.0), st.floats(2e4, 1e300)),
    ),
    "n_traj": (st.integers(1, 200), st.integers(max_value=0)),
    "seed": (st.integers(0, 2**64), st.integers(max_value=-1)),
    "r0": (
        st.floats(0.0, math.sqrt(MAX_ENERGY), exclude_min=True),
        st.one_of(st.sampled_from([_NAN, _INF]), _below(0.0), _above(math.sqrt(MAX_ENERGY))),
    ),
    "demon_kbtd": (
        st.floats(0.0, 5.0), st.one_of(st.sampled_from([_NAN, _INF]), _below(-1e-9))
    ),
    "policy": (st.sampled_from(cli.POLICIES), st.sampled_from(["", "bogus", "Terminal"])),
    "scheme": (st.sampled_from(cli.SCHEMES), st.sampled_from(["", "bogus", "ITO"])),
}


#: How a drawn input is made invalid; None (drawn 4 times in 10) leaves it valid.
_FAULTS = (None,) * 4 + ("value", "dt", "type", "unknown-key", "non-object", "ito")


@st.composite
def fuzz_invocation(draw):
    """A family, its flags, the text of an optional JSON config file, and
    whether the input is invalid by construction."""
    family = draw(st.sampled_from(FUZZ_FAMILIES), label="family")
    fault = draw(
        st.sampled_from(_FAULTS + (("classical",) if family == "classical" else ())),
        label="fault",
    )
    keys = draw(st.sets(st.sampled_from(sorted(_FUZZ_KEYS))), label="keys") | {"n_traj"}
    broken = None
    if fault == "value":
        broken = draw(st.sampled_from(sorted(keys)), label="broken")
    values = {key: draw(_FUZZ_KEYS[key][key == broken], label=key) for key in sorted(keys)}
    if family == "continuous" and "nbar" in values and broken != "nbar":
        # a larger nbar needs a finer step than drawn here, or the covariance
        # step leaves the physical region and the run exits 1 by design
        values["nbar"] = draw(st.floats(0.0, 10.0), label="continuous nbar")
    horizon = values.get("t_final", 1.0)
    if fault == "dt":
        values["dt"] = draw(
            st.one_of(
                st.just(_NAN),
                st.floats(0.11, 1e3),  # coarser than 0.1 * min(tau1, tau2, 1)
                st.floats(2.0 * MAX_N_STEPS, 1e300).map(lambda n: horizon / n),
            ),
            label="dt",
        )
    elif broken != "t_final" and draw(st.booleans(), label="explicit dt"):
        values["dt"] = horizon / draw(st.integers(100, 400), label="steps")
    # the Ito ledger needs symmetric channels
    if fault == "ito":
        values["scheme"] = "ito"
        values["tau1"] = draw(_FUZZ_KEYS["tau1"][0], label="tau1")
        values["tau2"] = draw(
            _FUZZ_KEYS["tau2"][0].filter(lambda tau: tau != values["tau1"]), label="tau2"
        )
    elif values.get("scheme") == "ito" and values.get("tau1") != values.get("tau2"):
        values["scheme"] = "stratonovich"

    if family == "classical":
        values["spring_k"] = draw(st.floats(0.1, 10.0), label="spring_k")
        values["kbt"] = draw(st.floats(0.0, 5.0), label="kbt")
        if fault == "classical":
            bad = draw(st.sampled_from([-1.0, _NAN, _INF]), label="bad classical value")
            values["spring_k"], values["kbt"] = draw(st.sampled_from(
                [(bad, values["kbt"]), (values["spring_k"], bad), (0.0, values["kbt"])]
            ))

    in_file = {}
    flags = []
    for key, value in values.items():
        if draw(st.booleans(), label=f"{key} in file"):
            in_file[key] = value
        else:
            flags.append(f"--{key.replace('_', '-')}={value}")
    if fault == "type":
        # validate checks the classical keys' types for every family
        typed = sorted([*_FUZZ_KEYS, "spring_k", "kbt"])
        key = draw(st.sampled_from(typed), label="mistyped key")
        in_file[key] = draw(st.just(3) if key in ("policy", "scheme") else _WRONG_TYPES)
        flags = [f for f in flags if not f.startswith(f"--{key.replace('_', '-')}=")]
    elif fault == "unknown-key":
        in_file[draw(st.sampled_from(["nbarr", "tau", "spring_constant", "delta"]))] = 1.0
    text = json.dumps(in_file) if in_file else None
    if fault == "non-object":
        text = json.dumps(draw(st.sampled_from([[1, 2], 3.5, "nbar", None])))
    return family, flags, text, fault is not None


class TestConfigFuzz:
    @given(invocation=fuzz_invocation())
    @settings(max_examples=80, deadline=None)
    def test_exit_status_matches_the_outputs(self, invocation):
        family, flags, config_text, invalid = invocation
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            argv = [family, *flags, "--output-dir", str(out)]
            if config_text is not None:
                path = Path(tmp) / "config.json"
                path.write_text(config_text)
                argv += ["--config", str(path)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = run_cli(argv)
            assert code in ((1,) if invalid else (0, 2))
            if code == 1:
                lines = err.getvalue().splitlines()
                assert len(lines) == 1 and "Traceback" not in lines[0]
                assert not out.exists() or not any(out.iterdir())
                return
            manifest = json.loads((out / "manifest.json").read_text())
            on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
            assert set(manifest["files"]) == on_disk
            summary = json.loads((out / "summary.json").read_text())
            assert summary["all_checks_passed"] is (code == 0)
            assert_strict_outputs(out)
