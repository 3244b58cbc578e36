"""Command-line entry point.

Dispatches the four experiment families (single-shot, binary, continuous,
classical) plus figure-regeneration presets, and serializes results as CSV
files, a machine-checkable JSON summary, and a run manifest with checksums.
Exit status: 0 all checks passed, 2 a check failed or none applied, 1 usage
or runtime error, after which no output file of the run is left behind.
All files are dimensionless (energies in hbar*omega, times in 1/omega) and
written with 17 significant digits.  CSV rows are formatted and written in
blocks, with the same bytes as formatting cell by cell, and each file's
SHA-256 for the manifest is computed from the bytes as they are written.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import json
import math
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .config import BINARY_N_TRAJ, EngineConfig, POLICIES, SCHEMES
from .ensembles import (
    KS_MIN_SAMPLES,
    WorkStatistics,
    _moments,
    efficiency_series,
    exact_work_cdf,
    exact_work_pdf,
    ks_compare,
    mean_work_curve,
    power_series,
    run_ensemble,
    sigma_schedule,
)
from .errors import UncertaintyViolationError
from .feedback import STREAM_LAYOUT, ensemble_workers, run_trajectory
from .gaussian import NoiseSource
from .single_shot import (
    binary_average_work,
    binary_efficiency,
    extract_work_binary,
    max_binary_efficiency,
    sample_outcomes,
)
from .thermo import ClassicalConfig, binary_p0, binary_thermo_efficiency, classical_cycle

PRESETS = ("figure-2b", "figure-2c", "figure-2f", "figure-S2", "figure-S3")

UNIT_COMMENTS = [
    "dimensionless units: energy in hbar*omega, time in 1/omega",
    "quadratures scaled by sqrt(m*omega/hbar)",
]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # noqa: D401 - argparse hook
        raise UsageError(message)


def _add_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, help="JSON file with default parameters")
    p.add_argument("--nbar", type=float)
    p.add_argument("--tau", type=float, help="sets both channel times")
    p.add_argument("--tau1", type=float)
    p.add_argument("--tau2", type=float)
    p.add_argument("--dt", type=float)
    p.add_argument("--t-final", type=float)
    p.add_argument("--n-traj", type=int)
    p.add_argument("--policy", choices=POLICIES)
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--r0", type=float)
    p.add_argument("--demon-kbtd", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--output-dir", type=Path)


def build_parser() -> _Parser:
    parser = _Parser(prog="qmengine", description=__doc__)
    sub = parser.add_subparsers(dest="family", required=True)
    for name in ("single-shot", "binary", "continuous", "classical"):
        p = sub.add_parser(name)
        _add_engine_flags(p)
        if name == "classical":
            p.add_argument("--spring-k", type=float, default=1.0)
            p.add_argument("--kbt", type=float, default=1.0)
    p = sub.add_parser("presets")
    p.add_argument("preset", choices=PRESETS)
    _add_engine_flags(p)
    return parser


def parse_config(args: argparse.Namespace) -> EngineConfig:
    """Build the run configuration: flags override file values override defaults.

    The binary family defaults to BINARY_N_TRAJ samples, not DEFAULT_N_TRAJ.
    """
    values: dict = {}
    if args.config is not None:
        with open(args.config) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise UsageError(f"{args.config} must hold a JSON object")
        values.update(loaded)
    fields = [f.name for f in dataclasses.fields(EngineConfig)]
    if getattr(args, "tau", None) is not None:
        values["tau1"] = args.tau
        values["tau2"] = args.tau
    for name in fields:
        if name != "output_path" and getattr(args, name, None) is not None:
            values[name] = getattr(args, name)
    if getattr(args, "family", None) == "binary":
        values.setdefault("n_traj", BINARY_N_TRAJ)
    if getattr(args, "output_dir", None) is not None:
        values["output_path"] = Path(args.output_dir)
    elif "output_path" in values and values["output_path"] is not None:
        path = values["output_path"]
        if not isinstance(path, str):
            raise UsageError(f"output_path must be a string, got {path!r}")
        values["output_path"] = Path(path)
    unknown = set(values) - set(fields)
    if unknown:
        raise UsageError(f"unknown configuration keys: {sorted(unknown)}")
    config = EngineConfig(**values)
    config.validate()
    return config


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


#: Rows formatted by one ``%`` call in _write_csv; bounds the memory a write
#: holds beyond its columns.
_CSV_BLOCK_ROWS = 4096

#: Cell conversion by numpy dtype kind, matching _fmt; any other kind is a float.
_CELL_FORMATS = {"b": "%s", "i": "%d", "u": "%d"}


def _csv_block(row: str, arrays: list[np.ndarray], start: int) -> str:
    values = [a[start:start + _CSV_BLOCK_ROWS].tolist() for a in arrays]
    n = len(values[0])
    return (row * n) % tuple(itertools.chain.from_iterable(zip(*values)))


def _write_csv(path: Path, comments: list[str], columns: dict) -> str:
    """Write columns as CSV and return the SHA-256 hex digest of the file.

    Every cell reads as _fmt would write it, but each column's conversion is
    chosen once from its dtype and rows are formatted and written
    _CSV_BLOCK_ROWS at a time.
    """
    arrays = [np.asarray(col) for col in columns.values()]
    if len({len(a) for a in arrays}) != 1:
        lengths = ", ".join(f"{name}={len(a)}" for name, a in zip(columns, arrays))
        raise ValueError(f"CSV columns differ in length: {lengths}")
    row = ",".join(_CELL_FORMATS.get(a.dtype.kind, "%.17g") for a in arrays) + "\n"
    header = "".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n"
    blocks = (
        _csv_block(row, arrays, start)
        for start in range(0, len(arrays[0]), _CSV_BLOCK_ROWS)
    )
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in itertools.chain([header], blocks):
            data = text.encode()
            fh.write(data)
            digest.update(data)
    return digest.hexdigest()


def _config_echo(config: EngineConfig, with_path: bool = False) -> dict:
    echo = dataclasses.asdict(config)
    if with_path:
        echo["output_path"] = str(echo["output_path"]) if echo["output_path"] else None
    else:
        # keep the summary byte-identical across output locations
        del echo["output_path"]
    return echo


class _Run:
    """Creates the output directory and tracks the files written to it and
    their digests, so failures can clean up.

    A path is registered before it is written, so cleanup also removes a
    file whose write failed partway.  A directory the run created is removed
    by cleanup when it is left empty.
    """

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.created = not out_dir.exists()
        out_dir.mkdir(parents=True, exist_ok=True)
        self.files: list[Path] = []
        self.digests: dict[str, str] = {}

    def _register(self, name: str) -> Path:
        path = self.out_dir / name
        self.files.append(path)
        return path

    def csv(self, name: str, comments: list[str], columns: dict) -> None:
        path = self._register(name)
        self.digests[name] = _write_csv(path, UNIT_COMMENTS + comments, columns)

    def json(self, name: str, payload: dict) -> None:
        data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
        self._register(name).write_bytes(data)
        self.digests[name] = hashlib.sha256(data).hexdigest()

    def cleanup(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)
        if self.created and not any(self.out_dir.iterdir()):
            self.out_dir.rmdir()


def _emit_trajectory(run: _Run, config: EngineConfig) -> None:
    rec = run_trajectory(config, NoiseSource(config.seed, 0))
    pad = lambda a: np.concatenate([[0.0], a])
    run.csv(
        "trajectory.csv",
        [
            "one monitored trajectory (noise stream 0)",
            "row k: state at t_k; r1,r2,dW,W_cum belong to the step ending at t_k",
            f"policy={config.policy} scheme={config.scheme}",
        ],
        {
            "t": rec.t,
            "q1": rec.q1,
            "q2": rec.q2,
            "q3": rec.q3,
            "q4": rec.q4,
            "q5": rec.q5,
            "r1": pad(rec.r1),
            "r2": pad(rec.r2),
            "dW": pad(rec.ledger.increments),
            "W_cum": pad(rec.ledger.cumulative),
        },
    )


def _run_single_shot(config: EngineConfig, run: _Run) -> dict:
    rng = NoiseSource(config.seed).generator()
    r, theta = sample_outcomes(config.nbar, config.n_traj, rng)
    work = r * r
    mean, _, se = _moments(work)
    expect = 1.0 + config.nbar
    run.csv(
        "cycles.csv",
        ["single-shot cycles: full feedback, work = r**2"],
        {"r": r, "theta": theta, "wait_time": theta, "work": work},
    )
    heat_mc = mean - config.nbar
    return {
        "results": {
            "mean_work": mean,
            "stderr": se,
            "expected_mean_work": expect,
            "measurement_heat_mc": heat_mc,
            "work_conversion_efficiency_mc": mean / expect,
        },
        "checks": {
            "mean_work_within_3se": abs(mean - expect) <= 3.0 * se,
            "added_quantum_within_3se": abs(heat_mc - 1.0) <= 3.0 * se,
        },
    }


def _run_binary(config: EngineConfig, run: _Run) -> dict:
    rng = NoiseSource(config.seed).generator()
    r, theta = sample_outcomes(config.nbar, config.n_traj, rng)
    work = extract_work_binary(r, config.r0)
    mean, _, se = _moments(work)
    closed = binary_average_work(config.nbar, config.r0)
    p0_mc = float(np.mean(r >= 0.5 * config.r0))
    p0_se = math.sqrt(max(p0_mc * (1.0 - p0_mc), 1e-12) / config.n_traj)
    p0 = binary_p0(config.nbar, config.r0)
    u_best, eta_best = max_binary_efficiency()
    run.csv(
        "cycles.csv",
        [f"binary feedback cycles at r0={_fmt(config.r0)}"],
        {"r": r, "theta": theta, "work": work},
    )
    return {
        "results": {
            "mean_work_mc": mean,
            "stderr": se,
            "mean_work_closed_form": closed,
            "efficiency_closed_form": binary_efficiency(config.nbar, config.r0),
            "p0_mc": p0_mc,
            "p0_closed_form": p0,
            "thermo_efficiency": binary_thermo_efficiency(
                config.nbar, config.r0, config.demon_kbtd
            ),
            "grid_max_efficiency": eta_best,
            "grid_argmax_u": u_best,
        },
        "checks": {
            "binary_mean_within_1pct": abs(mean - closed) <= 0.01 * closed,
            "p0_within_3se": abs(p0_mc - p0) <= 3.0 * p0_se,
            "max_efficiency_in_band": 0.84 <= eta_best <= 0.86,
        },
    }


def _run_continuous(config: EngineConfig, run: _Run) -> tuple[dict, WorkStatistics]:
    _emit_trajectory(run, config)
    stats = run_ensemble(config)
    run.csv(
        "work_samples.csv",
        [f"work per trajectory at t={_fmt(config.t_final)} under policy={config.policy}"],
        {"trajectory": np.arange(config.n_traj), "work": stats.samples},
    )
    results = {
        "mean_work": stats.mean,
        "stderr": stats.stderr,
        "variance": stats.variance,
        "t": stats.t,
    }
    checks: dict = {}
    if config.channels().symmetric and config.policy in ("terminal", "per-step"):
        schedule = sigma_schedule(config, policy=config.policy)
        expected = schedule.mean_work_at(config.t_final)
        results["expected_mean_work"] = expected
        checks["mean_work_within_3se"] = abs(stats.mean - expected) <= 3.0 * stats.stderr
        if stats.samples.size < KS_MIN_SAMPLES:
            results["ks_not_applicable"] = (
                f"need at least {KS_MIN_SAMPLES} samples, got {stats.samples.size}"
            )
        elif expected == 0.0:
            # KS assumes a continuous law; this one is a point mass at W = 0
            results["ks_not_applicable"] = "the exact work law is a point mass at W = 0"
        else:
            ks = ks_compare(
                stats.samples, lambda w: exact_work_cdf(w, config.t_final, schedule)
            )
            results.update({"ks_statistic": ks.statistic, "ks_pvalue": ks.pvalue})
            checks["work_distribution_ks_pass_1pct"] = ks.passed
    out = {"results": results, "checks": checks, "workers": ensemble_workers(config)}
    return out, stats


def _run_classical(config: EngineConfig, run: _Run, spring_k: float, kbt: float) -> dict:
    cc = ClassicalConfig(spring_k=spring_k, kbt=kbt, n_samples=config.n_traj)
    samples = classical_cycle(cc, NoiseSource(config.seed).generator())
    run.csv(
        "work_samples.csv",
        [f"classical Brownian cycles: k={_fmt(spring_k)}, kBT={_fmt(kbt)}"],
        {"work": samples},
    )
    expect = 0.5 * kbt
    if kbt > 0.0:
        mean, _, se = _moments(samples)
        checks = {"classical_mean_within_3se": abs(mean - expect) <= 3.0 * se}
    else:
        mean, se = float(np.max(samples)), 0.0
        checks = {"zero_work_at_zero_temperature": bool(np.all(samples == 0.0))}
    return {
        "results": {"mean_work": mean, "stderr": se, "expected_mean_work": expect},
        "checks": checks,
    }


def _preset_figure_2b(config: EngineConfig, run: _Run) -> dict:
    config = config.with_updates(policy="terminal")
    out, stats = _run_continuous(config, run)
    schedule = sigma_schedule(config)
    centers = 0.5 * (stats.bin_edges[:-1] + stats.bin_edges[1:])
    widths = np.diff(stats.bin_edges)
    density = stats.counts / (config.n_traj * widths)
    run.csv(
        "histogram.csv",
        ["work histogram with the exact exponential overlay"],
        {
            "bin_center": centers,
            "count": stats.counts,
            "density": density,
            "exact_pdf": exact_work_pdf(centers, config.t_final, schedule),
        },
    )
    return out


def _preset_figure_2c(config: EngineConfig, run: _Run) -> dict:
    config = config.with_updates(policy="terminal", t_final=5.0)
    if config.dt is None:
        config = config.with_updates(dt=config.default_dt(0.5))
    grid = [0.5, 1.0, 2.5, 5.0]
    series = mean_work_curve(config, grid)
    schedule = sigma_schedule(config)
    oracle = np.array([schedule.mean_work_at(t) for t in grid])
    run.csv(
        "mean_work.csv",
        ["terminal-feedback mean work versus observation time"],
        {"t": series.t, "mc_mean": series.mean, "mc_stderr": series.stderr,
         "sigma_over_tau": oracle},
    )
    ok = bool(np.all(np.abs(series.mean - oracle) <= 3.0 * series.stderr))
    return {
        "results": {"t": list(series.t), "mc_mean": list(series.mean)},
        "checks": {"mean_curve_within_3se": ok},
        "workers": ensemble_workers(config),
    }


def _preset_figure_2f(config: EngineConfig, run: _Run) -> dict:
    if config.nbar == 0.0:
        config = config.with_updates(nbar=1.0)
    if config.dt is None:
        config = config.with_updates(dt=config.default_dt(0.25))
    t_grid = np.round(np.arange(0.0, 10.0 + 1e-9, 0.25), 10)
    series = power_series(config.with_updates(t_final=10.0), t_grid)
    j_tau = series.power * config.tau1
    run.csv(
        "power.csv",
        ["engine power per measurement rate, J(t)*tau"],
        {"t": series.t, "J_tau": j_tau},
    )
    checks = {
        "power_monotone_decreasing": bool(np.all(np.diff(j_tau) <= 1e-12)),
        "power_reaches_quarter": bool(abs(j_tau[-1] - 0.25) < 1e-3),
    }
    return {"results": {"J_tau_final": float(j_tau[-1])}, "checks": checks}


def _preset_figure_s2(config: EngineConfig, run: _Run) -> dict:
    nbars = np.linspace(0.0, 4.0, 41)
    r0s = np.linspace(0.05, 5.0, 100)
    rows = {"nbar": [], "r0": [], "efficiency": []}
    for nb in nbars:
        for r0 in r0s:
            rows["nbar"].append(nb)
            rows["r0"].append(r0)
            rows["efficiency"].append(binary_efficiency(nb, r0))
    u_best, eta_best = max_binary_efficiency()
    run.csv(
        "efficiency_grid.csv",
        ["binary-feedback efficiency over (nbar, r0)"],
        rows,
    )
    return {
        "results": {"grid_max_efficiency": eta_best, "grid_argmax_u": u_best},
        "checks": {"max_efficiency_in_band": 0.84 <= eta_best <= 0.86},
    }


def _preset_figure_s3(config: EngineConfig, run: _Run) -> dict:
    config = config.with_updates(policy="per-step", t_final=25.0)
    if config.dt is None:
        config = config.with_updates(dt=config.default_dt(1.0))
    grid = np.round(np.arange(1.0, 25.0 + 1e-9, 1.0), 10)
    columns: dict = {"t": grid}
    finals: dict = {}
    for ratio in (1.0, 0.9, 1.2):
        cfg = config.with_updates(tau2=config.tau1 * ratio)
        series = efficiency_series(cfg, grid)
        tag = ("%g" % ratio).replace(".", "p")
        columns[f"eta_ratio_{tag}"] = series.eta
        columns[f"stderr_ratio_{tag}"] = series.stderr
        finals[ratio] = (float(series.eta[-1]), float(series.stderr[-1]))
    run.csv(
        "efficiency_series.csv",
        ["per-step work conversion efficiency for tau2/tau1 in {1, 0.9, 1.2}"],
        columns,
    )
    eta_sym, se_sym = finals[1.0]
    ordered = all(
        eta_sym - finals[r][0] > 3.0 * math.hypot(se_sym, finals[r][1])
        for r in (0.9, 1.2)
    )
    return {
        "results": {
            "eta_final": {str(k): v[0] for k, v in finals.items()},
            "stderr_final": {str(k): v[1] for k, v in finals.items()},
        },
        "checks": {
            "unit_efficiency_when_symmetric": abs(1.0 - eta_sym) <= 3.0 * se_sym + 1e-12,
            "efficiency_ordering": bool(ordered),
        },
        "workers": ensemble_workers(config),
    }


_PRESET_RUNNERS = {
    "figure-2b": _preset_figure_2b,
    "figure-2c": _preset_figure_2c,
    "figure-2f": _preset_figure_2f,
    "figure-S2": _preset_figure_s2,
    "figure-S3": _preset_figure_s3,
}


def run_experiment(args: argparse.Namespace) -> int:
    start = time.monotonic()
    config = parse_config(args)
    family = args.family
    label = family if family != "presets" else args.preset
    out_dir = config.output_path or Path(f"qmengine-out-{label}")
    run = _Run(out_dir)
    try:
        if family == "single-shot":
            out = _run_single_shot(config, run)
        elif family == "binary":
            out = _run_binary(config, run)
        elif family == "continuous":
            out, _ = _run_continuous(config, run)
        elif family == "classical":
            out = _run_classical(config, run, args.spring_k, args.kbt)
        else:
            out = _PRESET_RUNNERS[args.preset](config, run)

        summary = {
            "experiment": label,
            "config": _config_echo(config),
            "results": out["results"],
            "checks": out["checks"],
            # a run that no check applies to has not passed
            "all_checks_passed": bool(out["checks"]) and all(out["checks"].values()),
        }
        run.json("summary.json", summary)
        manifest = {
            "artifact": "qmengine",
            "version": __version__,
            "experiment": label,
            "config": _config_echo(config, with_path=True),
            "argv": sys.argv[1:],
            "wall_clock_seconds": time.monotonic() - start,
            "noise_streams": STREAM_LAYOUT,
            "workers": out.get("workers", 0),
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
            "files": dict(run.digests),
        }
        run.json("manifest.json", manifest)
    except BaseException:
        run.cleanup()
        raise
    print(f"{label}: wrote {len(run.files)} files to {out_dir}")
    for name, ok in out["checks"].items():
        print(f"  [{'PASS' if ok else 'FAIL'}] {name}")
    if not out["checks"]:
        print("  [UNCHECKED] no check applies to this configuration")
    return 0 if summary["all_checks_passed"] else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run_experiment(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    # the package's configuration errors are ValueErrors; an extreme input
    # that overflows a Python float raises an OverflowError
    except (ValueError, OverflowError, UncertaintyViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
