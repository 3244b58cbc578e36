"""Golden SHA-256 digests of every CSV each CLI family and preset writes.

The digests were recorded at seed 5 with small fixed sizes, plus one run long
enough to span many CSV row blocks and two ensembles of several noise-stream
blocks, which several worker threads share.  Any change to the physics, the
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
            "work_samples.csv": "3dde6d632eaf161a0a300167675ac7b4077113a704c79c5594bc4d25991a64cf",
        },
    ),
    (
        # 600 trajectories: three stream blocks, advanced by up to three threads
        ("continuous", "--n-traj", "600"),
        {
            "trajectory.csv": "72fcc8c15ef98e45e8a254809215690209d9be4e54479158a65f4c88f62b863e",
            "work_samples.csv": "6ccaf6160a47e4b3e6e05c2465357e41c67f91fe285ec5c1adf091fce939b8f6",
        },
    ),
    (
        ("continuous", "--n-traj", "200", "--nbar", "1", "--policy", "per-step", "--scheme", "ito"),
        {
            "trajectory.csv": "1473dc8a09b72957c4d0ed99623310f3b1424091d85a9a80c00f999eaeca1b8b",
            "work_samples.csv": "d45add3add2d3e2e2cd9735bf85c70641c2b23bb37340cf3863036fb756938ac",
        },
    ),
    (
        ("continuous", "--n-traj", "200", "--nbar", "0.5", "--tau1", "1", "--tau2", "0.7", "--dt", "0.005", "--policy", "none"),
        {
            "trajectory.csv": "0440a85d6d2579ffae2b27531ab9ff96850bbab6264b04e88f5769c3975764f2",
            "work_samples.csv": "61a343e894f3ca97e27ed7b8262d6a416e17b8c05a1eb84860d1966660766177",
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
            "work_samples.csv": "e415d326d01803682c5d2bdab98d4c209c1f7e5690f31dcb327c86df838a3009",
        },
    ),
    (
        ("presets", "figure-2b", "--n-traj", "200"),
        {
            "histogram.csv": "56b34b621b0a694793c18ac16b1340f6fd1ab3b064c3e4534ff06d69c2c54a3e",
            "trajectory.csv": "72fcc8c15ef98e45e8a254809215690209d9be4e54479158a65f4c88f62b863e",
            "work_samples.csv": "3dde6d632eaf161a0a300167675ac7b4077113a704c79c5594bc4d25991a64cf",
        },
    ),
    (
        ("presets", "figure-2c", "--n-traj", "200"),
        {
            "mean_work.csv": "68fe3fa055441294d51c78e6f377f957f4baaf19c860dfaba2e4741612a1f6b3",
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
            "efficiency_series.csv": "0f800fcae2c6c3799658590abb8ea0ea7bf777ac13bff92a6dc51d7f09bc250c",
        },
    ),
    (
        ("presets", "figure-S3", "--n-traj", "600"),
        {
            "efficiency_series.csv": "9710cd774349875f645bb75f25b8c5dd7f8d8445769bec4ec8b791d267dfdd70",
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
