"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import parse_importtime, span_problems, summarize  # noqa: E402
from workloads import Invocation, check_output  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


@pytest.mark.parametrize(
    "workload,trace", [("sampling-io", "0"), ("ensemble-wide", "1")]
)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    *lines, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec, units = declared()
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    assert list(result["metrics"]) == names
    text = "\n".join(lines)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert f"{name} " in text and f" {units[name]}" in text
    for name in ("ops_failed", "ops_attempted", "checks_failed", "checks_attempted",
                 "output_sha256", "src_lines", "nproc"):
        assert name in text
    if trace == "0":
        assert "samples_per_s" in text and "1/s" in text
    else:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        n = workloads.SMOKE_N
        # counts prove that the wrappers sit on every from-import alias
        assert m["ensembles.run_ensemble_calls"] == 4  # figure-2b runs its ensemble twice
        assert m["feedback.run_ensemble_arrays_calls"] == 5
        assert m["gaussian.streams_created"] == 5 * n + 3  # plus one per run_trajectory
        assert m["feedback.traj_steps"] == 4 * n * 100 + n * 500
        assert m["cli.write_csv_calls"] == 8
        # trajectories, per-sample files and figure-2c's four rows, plus the histogram
        assert m["cli.csv_rows"] > 3 * 101 + 3 * n + 4
        assert "largest self times: " in text


def test_same_seed_gives_the_same_digest():
    digests = set()
    for _ in range(2):
        proc = bench("--workload", "sampling-io", "--seed", "5", "--seconds", "1", "--smoke")
        assert proc.returncode == 0, proc.stderr
        digests |= {ln.split()[-1] for ln in proc.stdout.splitlines() if "output_sha256" in ln}
    assert len(digests) == 1


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "sampling-io", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def binary_run(tmp_path_factory):
    import qmengine.cli

    out = tmp_path_factory.mktemp("binary")
    inv = Invocation(("binary", "--n-traj", "1000"), {"cycles.csv": 1000})
    code = qmengine.cli.main([*inv.argv, "--seed", "1", "--output-dir", str(out)])
    return inv, out, code


def fresh_copy(binary_run, tmp_path):
    inv, out, code = binary_run
    shutil.copytree(out, tmp_path / "out")
    return inv, tmp_path / "out", code


def test_intact_output_passes_the_checks(binary_run):
    inv, out, code = binary_run
    check = check_output(out, inv, code)
    assert check.problems == []
    assert check.checks_attempted == 3 and len(check.digest) == 64


def test_corrupted_file_fails_its_checksum(binary_run, tmp_path):
    inv, out, code = fresh_copy(binary_run, tmp_path)
    data = bytearray((out / "cycles.csv").read_bytes())
    data[-5] = ord("7") if data[-5] != ord("7") else ord("8")
    (out / "cycles.csv").write_bytes(bytes(data))
    assert any("checksum" in p for p in check_output(out, inv, code).problems)


def test_missing_rows_are_found_even_with_a_matching_manifest(binary_run, tmp_path):
    import hashlib

    inv, out, code = fresh_copy(binary_run, tmp_path)
    path = out / "cycles.csv"
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:-1]))
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["files"]["cycles.csv"] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert check_output(out, inv, code).problems == ["cycles.csv has 999 data rows, expected 1000"]


def test_exit_status_must_agree_with_the_summary(binary_run):
    inv, out, code = binary_run
    other = 2 if code == 0 else 0
    assert any("all_checks_passed" in p for p in check_output(out, inv, other).problems)
    assert check_output(out, inv, 1).problems == ["exit status 1"]


def test_corrupted_output_counts_in_ops_failed(monkeypatch):
    b = run.Bench(ROOT, "sampling-io", seed=1, smoke=True)
    real = run.check_output

    def corrupt_first_csv(out_dir, inv, exit_code):
        if inv.label == "single-shot":
            (out_dir / "cycles.csv").write_bytes(b"# corrupted\n")
        return real(out_dir, inv, exit_code)

    monkeypatch.setattr(run, "check_output", corrupt_first_csv)
    try:
        assert b.run_pass(trace=False) is not None
    finally:
        b.close()
    assert (b.ops_attempted, b.ops_failed) == (5, 1)


def test_a_pass_that_writes_other_bytes_counts_in_ops_failed():
    b = run.Bench(ROOT, "sampling-io", seed=1, smoke=True)
    b.first_digests = ["0" * 64] * len(b.invs)
    try:
        b.run_pass(trace=False)
    finally:
        b.close()
    assert b.ops_failed == len(b.invs)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["invocation", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["b", 4.0, 5.0, 1, 0],
    ]
    assert summarize(spans) == {
        "invocation": [1, 10.0, 5.0],
        "a": [1, 5.0, 3.0],
        "b": [2, 2.0, 2.0],
    }


def test_spans_must_account_for_the_timed_invocations():
    spans = [
        ["invocation", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["invocation", 11.0, 12.0, -1, 1],
    ]
    assert span_problems(spans, [10.0, 1.0], 1e-3) == []
    assert span_problems(spans, [10.0, 1.5], 1e-3) == [
        "invocation 1: root span 1.000000 s, timed 1.500000 s"
    ]
    assert span_problems(spans[:2], [10.0, 1.0], 1e-3) == ["invocation 1 has 0 root spans"]
    unrooted = [["a", 1.0, 6.0, -1, 0]]
    assert span_problems(unrooted, [5.0], 1e-3) == [
        "span a has no parent", "invocation 0 has 0 root spans"
    ]
    outside = [spans[0], ["a", 9.0, 10.5, 0, 0]]
    assert span_problems(outside, [10.0], 1e-3) == ["span a lies outside its parent span"]


def test_importtime_splits_numpy_scipy_and_the_rest():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   encodings",
        "import time:       500 |     200000 |       numpy",
        "import time:       800 |     200800 |     qmengine.gaussian",
        "import time:       300 |      30000 |           scipy",
        "import time:      9000 |     400000 |         scipy.special",
        "import time:       700 |     700000 |       scipy.integrate",
        "import time:      1000 |     500000 |       scipy.stats",
        "import time:      2000 |    1202000 |     qmengine.ensembles",
        "import time:      1000 |    1410000 |   qmengine",
        "import time:      5000 |    1415000 | qmengine.cli",
        "import time:       900 |        900 | json",
    ])
    parts = parse_importtime(stderr)
    assert parts["setup.numpy_import_s"] == pytest.approx(0.2)
    assert parts["setup.scipy_import_s"] == pytest.approx(1.2)
    assert parts["setup.qmengine_import_s"] == pytest.approx(0.015)


def test_benchmark_json_matches_the_code():
    spec, units = declared()
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(units[name] == run.unit_of(name) for name in units)
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
