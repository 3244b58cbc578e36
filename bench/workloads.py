"""Workloads of the qmengine benchmark and the checks made on their output.

A workload is a fixed list of ``qmengine`` CLI invocations.  The benchmark
seed is appended to every invocation as ``--seed``; the program sees nothing
else of the benchmark.  Each invocation states the data-row count of every
file it must write, and how much ensemble or sampling work it asks for, so
that throughput is counted at the stated sizes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("ensemble-wide", "ensemble-long", "sampling-io")

#: Trajectory and sample count of every invocation in smoke mode.
SMOKE_N = 200


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv (without --seed/--output-dir) and what it must write."""

    argv: tuple[str, ...]
    #: data rows expected per output file; None accepts any non-zero count
    rows: dict[str, int | None] = field(default_factory=dict)
    #: n_traj * n_steps of the ensemble the invocation states
    traj_steps: int = 0
    #: sampled single-shot or classical outcomes
    samples: int = 0

    @property
    def label(self) -> str:
        return self.argv[1] if self.argv[0] == "presets" else self.argv[0]


def invocations(workload: str, smoke: bool = False) -> list[Invocation]:
    """The invocation list of a workload; smoke mode shrinks every size to SMOKE_N."""
    big = SMOKE_N if smoke else 50_000
    preset = SMOKE_N if smoke else 10_000  # the presets' default n_traj
    samples = SMOKE_N if smoke else 200_000
    size = ("--n-traj", str(preset)) if smoke else ()
    continuous = ("continuous", "--n-traj", str(big), "--t-final", "1", "--dt", "0.01")
    trajectory = {"trajectory.csv": 101, "work_samples.csv": big}
    if workload == "ensemble-wide":
        return [
            Invocation(continuous + ("--policy", "terminal"), trajectory, big * 100),
            Invocation(
                continuous + ("--policy", "per-step", "--scheme", "ito"),
                trajectory,
                big * 100,
            ),
            Invocation(
                ("presets", "figure-2b") + size,
                {"trajectory.csv": 101, "work_samples.csv": preset, "histogram.csv": None},
                preset * 100,
            ),
            Invocation(("presets", "figure-2c") + size, {"mean_work.csv": 4}, preset * 500),
        ]
    if workload == "ensemble-long":
        return [
            Invocation(
                ("presets", "figure-S3") + size,
                {"efficiency_series.csv": 25},
                3 * preset * 2500,
            )
        ]
    if workload == "sampling-io":
        n = ("--n-traj", str(samples))
        return [
            Invocation(("single-shot",) + n, {"cycles.csv": samples}, samples=samples),
            Invocation(("binary",) + n, {"cycles.csv": samples}, samples=samples),
            Invocation(("classical",) + n, {"work_samples.csv": samples}, samples=samples),
            Invocation(("presets", "figure-S2"), {"efficiency_grid.csv": 4100}),
            Invocation(("presets", "figure-2f"), {"power.csv": 41}),
        ]
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class OutputCheck:
    """What the benchmark found in one invocation's output directory."""

    problems: list[str]
    checks_attempted: int = 0
    checks_failed: int = 0
    bytes_written: int = 0
    digest: str = ""


def _csv_problem(data: bytes, expected_rows: int | None) -> str | None:
    lines = data.split(b"\n")
    if lines[-1] != b"":
        return "does not end with a newline"
    body = [ln for ln in lines[:-1] if not ln.startswith(b"#")]
    if not body:
        return "has no header"
    n_cols = body[0].count(b",") + 1
    n_rows = len(body) - 1
    if expected_rows is None and n_rows == 0:
        return "has no data rows"
    if expected_rows is not None and n_rows != expected_rows:
        return f"has {n_rows} data rows, expected {expected_rows}"
    if sum(ln.count(b",") for ln in body) != len(body) * (n_cols - 1):
        return "has rows of unequal width"
    return None


def check_output(out_dir: Path, inv: Invocation, exit_code: int | None) -> OutputCheck:
    """Check one invocation from outside the program.

    The exit status must agree with summary.json, every manifest checksum
    must match the bytes on disk, the manifest must list exactly the files
    written, and every expected CSV must hold its stated number of rows.
    The digest covers every file except manifest.json, which holds wall time.
    """
    result = OutputCheck(problems=[])
    problems = result.problems
    if exit_code not in (0, 2):
        problems.append(f"exit status {exit_code}")
        return result
    if not out_dir.is_dir():
        problems.append("no output directory")
        return result
    files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()}
    result.bytes_written = sum(len(b) for b in files.values())
    for name in ("summary.json", "manifest.json", *inv.rows):
        if name not in files:
            problems.append(f"{name} missing")
    if problems:
        return result

    try:
        summary = json.loads(files["summary.json"])
        manifest = json.loads(files["manifest.json"])
        checks = dict(summary["checks"])
        listed = dict(manifest["files"])
        passed = summary["all_checks_passed"]
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable summary or manifest: {exc!r}")
        return result
    result.checks_attempted = len(checks)
    result.checks_failed = sum(1 for ok in checks.values() if ok is not True)
    if passed != (result.checks_failed == 0):
        problems.append("all_checks_passed disagrees with the named checks")
    if (exit_code == 0) != (passed is True):
        problems.append(f"exit status {exit_code} but all_checks_passed={passed}")

    if set(listed) != set(files) - {"manifest.json"}:
        problems.append(f"manifest lists {sorted(listed)}, directory holds {sorted(files)}")
    for name, sha in listed.items():
        if name in files and hashlib.sha256(files[name]).hexdigest() != sha:
            problems.append(f"{name} does not match its manifest checksum")
    for name, rows in inv.rows.items():
        bad = _csv_problem(files[name], rows)
        if bad:
            problems.append(f"{name} {bad}")

    digest = hashlib.sha256()
    for name, data in files.items():
        if name != "manifest.json":
            digest.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    result.digest = digest.hexdigest()
    return result
