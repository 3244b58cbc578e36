"""Golden SHA-256 digests of every CSV each CLI family and preset writes.

The digests were recorded at seed 5 with small fixed sizes, plus one run long
enough to span many CSV row blocks.  Any change to the physics, the
noise-stream layout or the CSV format changes a digest, so a refactor that
must keep data files byte-identical is checked here; a deliberate output
change updates the table and says so.
"""

from __future__ import annotations

import hashlib

import pytest

from qmengine import cli

GOLDEN = [
    (
        ("single-shot", "--nbar", "1", "--n-traj", "500"),
        {
            "cycles.csv": "cf94055994d4d934b07ec0b15c1899c57e3b5613f40e238b74df21ea7410a99c",
        },
    ),
    (
        # 20,000 rows: crosses many of the CSV writer's row blocks
        ("single-shot", "--nbar", "1", "--n-traj", "20000"),
        {
            "cycles.csv": "cc7dcff7c5d9ce3f530387e8cf449cd845d75482900563bf94513d2f5207645c",
        },
    ),
    (
        ("binary", "--nbar", "0.5", "--r0", "1.2", "--n-traj", "500"),
        {
            "cycles.csv": "43ad588f7babfa9827f2dbd338b506fbdf6b0f601195cb4963cc79dd60fed9d2",
        },
    ),
    (
        ("classical", "--kbt", "2", "--n-traj", "500"),
        {
            "work_samples.csv": "ba9b1c5dd6949bd8e808f5abaa3dbcd0c31d25651f59dcae94f3c8256fc4f6a3",
        },
    ),
    (
        ("continuous", "--n-traj", "200"),
        {
            "trajectory.csv": "72fcc8c15ef98e45e8a254809215690209d9be4e54479158a65f4c88f62b863e",
            "work_samples.csv": "73b3589cc9640cf86bacda6672423aac8769ad2237cea0be2e39bc41b5a5c9dc",
        },
    ),
    (
        ("continuous", "--n-traj", "200", "--nbar", "1", "--policy", "per-step", "--scheme", "ito"),
        {
            "trajectory.csv": "1473dc8a09b72957c4d0ed99623310f3b1424091d85a9a80c00f999eaeca1b8b",
            "work_samples.csv": "993d42b14fb681f1ca56bea54b4b4607bfcfa5de2b6ae4e51126e5c5e75cfef0",
        },
    ),
    (
        ("continuous", "--n-traj", "200", "--nbar", "0.5", "--tau1", "1", "--tau2", "0.7", "--dt", "0.005", "--policy", "none"),
        {
            "trajectory.csv": "0440a85d6d2579ffae2b27531ab9ff96850bbab6264b04e88f5769c3975764f2",
            "work_samples.csv": "5754ff9446807a8dc4386d9c5dd29d5d55400a058df89e88f5d466f6a192e681",
        },
    ),
    (
        ("continuous", "--n-traj", "200", "--tau", "1e13", "--dt", "0.01", "--policy", "terminal"),
        {
            "trajectory.csv": "a73eea14309456b60bbcc3133a93436ece17c1b7ca9bf58459d858d2cc2116d7",
            "work_samples.csv": "9c8c5490ca7c507867d516fbecf17419f91cccacb4781e7020903b346506fe48",
        },
    ),
    (
        ("continuous", "--n-traj", "200", "--tau1", "1", "--tau2", "inf", "--policy", "per-step"),
        {
            "trajectory.csv": "92288d479cbcba8a9c9de9159b57106eb27ae9e73628939ab548a629e97e2665",
            "work_samples.csv": "40c9f614b4b277389b0f659db922b7bc7e914c4fda531c68d0dd56182386396a",
        },
    ),
    (
        ("presets", "figure-2b", "--n-traj", "200"),
        {
            "histogram.csv": "48f7c88e703314be053a798e55d3af9ec82aebe143a2a96896e9f58cce9c7c69",
            "trajectory.csv": "72fcc8c15ef98e45e8a254809215690209d9be4e54479158a65f4c88f62b863e",
            "work_samples.csv": "73b3589cc9640cf86bacda6672423aac8769ad2237cea0be2e39bc41b5a5c9dc",
        },
    ),
    (
        ("presets", "figure-2c", "--n-traj", "200"),
        {
            "mean_work.csv": "7ab942b2b851aa40263e7b8e53b6f77204dc02b1ea3aa6979bda1e3d5d9e5407",
        },
    ),
    (
        ("presets", "figure-2f"),
        {
            "power.csv": "7f2062126cbac0d9633bfce4fc9a49e32c9861c360bd574e9afedc1cf1d979cf",
        },
    ),
    (
        ("presets", "figure-S2"),
        {
            "efficiency_grid.csv": "d166e06b98f030f66d3186eade3a927034e920024a72b292aa5b49be385936d8",
        },
    ),
    (
        ("presets", "figure-S3", "--n-traj", "200"),
        {
            "efficiency_series.csv": "ad100d3ad67dcc7b6fe65dd2d5fd063ad7c8e956c4ae63011a6c83ab0c1a505e",
        },
    ),
]


@pytest.mark.parametrize("argv,digests", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_csv_digests(tmp_path, argv, digests):
    code = cli.main(list(argv) + ["--seed", "5", "--output-dir", str(tmp_path)])
    assert code in (0, 2)
    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.glob("*.csv")
    }
    assert written == digests
