"""Golden SHA-256 digests of every CSV each CLI family and preset writes,
and of summary.json for two runs at tau != 1, one binary run and one Ito run
on asymmetric channels.

The digests were recorded at seed 5 with small fixed sizes, plus one run long
enough to span many CSV row blocks and two ensembles of several noise-stream
blocks, which several worker threads share.  Any change to the physics, the
noise-stream layout or the CSV format changes a digest, so a refactor that
must keep data files byte-identical is checked here; a deliberate output
change updates the table and says so.  The outputs do not depend on which
of numpy's SIMD kernels a CPU dispatches to: a test below runs the CLI on
the default path and with the AVX-512 targets disabled.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qmengine
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
            "histogram.csv": "4fa50b662b5c70f0f282ddb5b02e05ec6ad08cf4746456fdfb48bad7b4af774b",
            "trajectory.csv": "72fcc8c15ef98e45e8a254809215690209d9be4e54479158a65f4c88f62b863e",
            "work_samples.csv": "3dde6d632eaf161a0a300167675ac7b4077113a704c79c5594bc4d25991a64cf",
        },
    ),
    (
        # tau != 1: the overlay's rate tau/sigma and 1/(sigma/tau) differ in the last bits
        ("presets", "figure-2b", "--n-traj", "200", "--tau", "0.7", "--nbar", "2"),
        {
            "histogram.csv": "c3f6b879523db80003148be398cba67306228cafebc766ff839566e5107f64b2",
            "trajectory.csv": "380917b70fc64b96263726fd543cf8dbf12fe9c65dbb99a13fa2a96414f908c9",
            "work_samples.csv": "ae10e04aa8fe8ee4fd733255b2a1b0f2e8942c51d297cdd4d66ea081fbd80e73",
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
        ("presets", "figure-2f", "--tau", "0.7"),
        {
            "power.csv": "544c0ba5f61d63499ccacd9108a434a5ac2fab0b287b209e368042bc4db89132",
        },
    ),
    (
        ("presets", "figure-S2"),
        {
            "efficiency_grid.csv": "cdee9251c8533bd4c3ce5f744ca41cbabbb02162fdda33ca202138197532ce0c",
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


#: SHA-256 of summary.json for runs whose KS statistic and p-value bound, and
#: expected mean, depend on tau/sigma and sigma/tau at tau != 1, for a
#: binary run whose closed forms take erfc away from the default r0 = 1, and
#: for an Ito ledger on asymmetric channels, gated by its exact mean.
SUMMARY_GOLDEN = [
    (
        ("continuous", "--n-traj", "200", "--tau", "0.7"),
        "7a0cfe43f3b329ade9d9f877b0ba14d4ccc4c56779809499dcd0001c8b049c56",
    ),
    (
        ("presets", "figure-2b", "--n-traj", "200", "--tau", "0.7", "--nbar", "2"),
        "1d3491286e14aed9c5a397257dcc9b38c25a9ca9c9b453ba5f189599e8f2c848",
    ),
    (
        ("binary", "--nbar", "0.5", "--r0", "1.2", "--n-traj", "500"),
        "b3d32ed5d7b8b783c88dabe60a992a466f69a471bb0c63c7fa066e14a237826a",
    ),
    (
        ("continuous", "--policy", "none", "--scheme", "ito", "--tau2", "1.2", "--n-traj", "500"),
        "3456d570f25ac4888ccb5bc2308d426b91959beb727dd939fc1091d55228b850",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", SUMMARY_GOLDEN, ids=[" ".join(a) for a, _ in SUMMARY_GOLDEN]
)
def test_summary_digests(tmp_path, argv, digest):
    assert cli.main(list(argv) + ["--seed", "5", "--output-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest() == digest


#: Disables numpy's AVX-512 dispatch targets, as on a CPU without AVX-512,
#: where float64 transcendentals such as np.exp take other SIMD kernels
NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"


def _numpy_has_avx512f() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512F"))


@pytest.mark.skipif(
    not _numpy_has_avx512f(),
    reason="numpy reports no AVX512F: both runs would take the same SIMD path",
)
@pytest.mark.parametrize(
    "argv",
    [
        ("presets", "figure-2b", "--n-traj", "200", "--seed", "5"),
        ("continuous", "--n-traj", "2000", "--seed", "2"),
        ("binary", "--nbar", "0.5", "--r0", "1.2", "--n-traj", "500", "--seed", "5"),
        ("presets", "figure-S2", "--seed", "5"),
        ("continuous", "--policy", "none", "--scheme", "ito", "--tau2", "1.2", "--n-traj", "500",
         "--seed", "5"),
    ],
    ids=" ".join,
)
def test_outputs_do_not_depend_on_simd_dispatch(tmp_path, argv):
    written = []
    for disabled in (None, NO_AVX512):
        env = dict(os.environ, PYTHONPATH=str(Path(qmengine.__file__).parents[1]))
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        out = tmp_path / ("no-avx512" if disabled else "default")
        subprocess.run(
            [sys.executable, "-m", "qmengine", *argv, "--output-dir", str(out)],
            env=env, capture_output=True, check=False, timeout=120,
        )
        written.append({
            p.name: p.read_bytes() for p in out.iterdir()
            if p.suffix == ".csv" or p.name == "summary.json"
        })
    default, no_avx512 = written
    assert "summary.json" in default and len(default) > 1
    assert sorted(no_avx512) == sorted(default)
    assert [name for name in default if default[name] != no_avx512[name]] == []
