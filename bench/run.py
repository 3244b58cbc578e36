"""Benchmark of the qmengine CLI: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload ensemble-wide --seed 1 --seconds 36 --trace 0

Every pass starts a fresh interpreter (bench/child.py) that times
``import qmengine.cli`` and then calls ``qmengine.cli.main(argv)`` for each
invocation of the workload, writing into a working directory under
``.bench_work/``.  Passes repeat for ``--seconds`` (at least three), and
every output is checked from outside the program.  With
``--trace 0`` the last line of stdout is a JSON object with the end-to-end
metrics; with ``--trace 1`` traced and untraced passes alternate and it holds
the per-layer metrics.  The lines before it repeat every metric with its
unit, the output digest and the run environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import largest_self_times, layer_metrics, parse_importtime, span_problems
from workloads import WORKLOADS, OutputCheck, check_output, invocations

BENCH_DIR = Path(__file__).resolve().parent

#: Hard limit on one benchmark run; a pass is not started when it cannot end in time.
DEADLINE_S = 165.0
MIN_PASSES = 3
MIN_SETUP_SAMPLES = 5
IMPORTTIME_PROBES = 3
#: Largest gap allowed between an invocation's root span and its time measured
#: outside the tracer (the root wrapper's own call overhead is microseconds).
ACCOUNTING_TOL_S = 1e-3


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if "bytes" in name:
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order it is reported."""
    names = ["setup.numpy_import_s", "setup.scipy_import_s", "setup.qmengine_import_s"]
    names += list(layer_metrics([], {}, 0.0))
    return names + [
        "cli.bytes_written",
        "process.cpu_s",
        "trace.untraced_wall_s",
        "trace.overhead_s",
    ]


class Bench:
    """Runs the passes of one workload and keeps the tallies of their checks."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool) -> None:
        self.src = root / "src"
        self.work = root / ".bench_work" / str(os.getpid())
        self.invs = invocations(workload, smoke)
        self.seed = seed
        self.started = time.monotonic()
        # one process, one thread: the workloads are specified single-threaded
        self.env = dict(
            os.environ,
            PYTHONPATH=str(self.src),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.ops_attempted = self.ops_failed = 0
        self.checks_attempted = self.checks_failed = 0
        self.first_digests: list[str] | None = None
        self.problems: list[str] = []
        self.longest_child = 0.0

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.started)

    def child(self, spec: dict, importtime: bool = False) -> dict | None:
        """Run child.py on spec; returns its result, or None after noting why."""
        self.work.mkdir(parents=True, exist_ok=True)
        spec_path, result_path = self.work / "spec.json", self.work / "result.json"
        spec_path.write_text(json.dumps(dict(spec, result=str(result_path))))
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, *(["-X", "importtime"] if importtime else [])]
        cmd += [str(BENCH_DIR / "child.py"), str(spec_path)]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            self.problems.append("child process timed out")
            return None
        self.longest_child = max(self.longest_child, time.monotonic() - t0)
        if proc.returncode != 0 or not result_path.exists():
            self.problems.append(f"child process failed: {proc.stderr.strip()[-1500:]}")
            return None
        data = json.loads(result_path.read_text())
        if not Path(data["qmengine_file"]).resolve().is_relative_to(self.src.resolve()):
            self.problems.append(f"qmengine imported from {data['qmengine_file']}")
            return None
        if importtime:
            data["importtime"] = proc.stderr
        return data

    def setup_probe(self, importtime: bool = False) -> dict | None:
        return self.child({"setup_only": True}, importtime)

    def run_pass(self, trace: bool) -> dict | None:
        """One fresh child over the whole invocation list, with every output checked."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        dirs = [out / f"{i}-{inv.label}" for i, inv in enumerate(self.invs)]
        argv = [
            [*inv.argv, "--seed", str(self.seed), "--output-dir", str(d)]
            for inv, d in zip(self.invs, dirs)
        ]
        data = self.child({"argv": argv, "trace": trace})
        self.ops_attempted += len(self.invs)
        if data is None:
            self.ops_failed += len(self.invs)
            return None
        checks = [
            check_output(d, inv, op["exit_code"]) if op["error"] is None
            else OutputCheck(problems=[op["error"]])
            for inv, d, op in zip(self.invs, dirs, data["ops"])
        ]
        digests = [c.digest for c in checks]
        if self.first_digests is None:
            self.first_digests = digests
        for inv, check, digest, first in zip(self.invs, checks, digests, self.first_digests):
            if digest != first:
                check.problems.append("output differs from the first pass at the same seed")
            if check.problems:
                self.ops_failed += 1
                self.problems.append(f"{' '.join(inv.argv)}: {'; '.join(check.problems)}")
            self.checks_attempted += check.checks_attempted
            self.checks_failed += check.checks_failed
        shutil.rmtree(out, ignore_errors=True)
        return {
            "setup_s": data["setup_s"],
            "wall_s": sum(op["seconds"] for op in data["ops"]),
            "op_seconds": [op["seconds"] for op in data["ops"]],
            "peak_rss_mb": data["maxrss_kb"] / 1024.0,
            "cpu_s": data["cpu_s"],
            "bytes_written": sum(c.bytes_written for c in checks),
            "spans": data.get("spans"),
            "counts": data.get("counts"),
            "missing": data.get("missing", []),
        }

    def keep_going(self, n_done: int, t0: float, seconds: float, min_passes: int,
                   children: int) -> bool:
        """Whether to start another round of ``children`` passes.

        Rounds go on while the next one is expected to end within ``seconds``
        and until ``min_passes`` are done, unless the deadline would be missed.
        """
        if self.remaining() < children * 1.5 * self.longest_child + 2.0:
            return False
        if n_done < min_passes:
            return True
        elapsed = time.monotonic() - t0
        return elapsed * (n_done + 1) / n_done <= seconds

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it was never made


def environment(root: Path) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "src_lines": src_lines,
    }


def spread(values) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return f"n={len(values)} min={min(values):.4g} max={max(values):.4g}"


def run(args) -> int:
    root = Path.cwd()
    if not (root / "src" / "qmengine" / "cli.py").is_file():
        print(f"error: {root} holds no src/qmengine/cli.py; run from the repository root",
              file=sys.stderr)
        return 1
    smoke = args.smoke
    min_passes = 1 if smoke else MIN_PASSES
    bench = Bench(root, args.workload, args.seed, smoke)
    try:
        # compiles bytecode and warms the file cache; not measured
        if bench.setup_probe() is None:
            print(f"error: cannot import qmengine.cli: {bench.problems}", file=sys.stderr)
            return 1
        untraced, traced = [], []
        t0 = time.monotonic()
        while bench.keep_going(len(untraced), t0, args.seconds, min_passes, 1 + args.trace):
            pass_ = bench.run_pass(trace=False)
            if pass_ is None:
                break
            untraced.append(pass_)
            if args.trace:
                pass_ = bench.run_pass(trace=True)
                if pass_ is None:
                    break
                traced.append(pass_)
        setup = [p["setup_s"] for p in untraced + traced]
        while len(setup) < (1 if smoke else MIN_SETUP_SAMPLES) and bench.remaining() > 10:
            probe = bench.setup_probe()
            if probe is None:
                break
            setup.append(probe["setup_s"])
        imports = []
        if args.trace:
            for _ in range(1 if smoke else IMPORTTIME_PROBES):
                probe = bench.setup_probe(importtime=True) if bench.remaining() > 10 else None
                if probe is not None:
                    imports.append(parse_importtime(probe["importtime"]))
    finally:
        bench.close()
    if not untraced or (args.trace and not (traced and imports)):
        print(f"error: no pass completed: {bench.problems[:5]}", file=sys.stderr)
        return 1

    env = environment(root)
    walls = [p["wall_s"] for p in untraced]
    invs = bench.invs
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in untraced]),
    }
    correct = bench.ops_failed == 0
    output_sha256 = hashlib.sha256("".join(bench.first_digests).encode()).hexdigest()
    lines = [
        f"qmengine benchmark: workload={args.workload} seed={args.seed} "
        f"trace={args.trace} smoke={smoke}",
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"  setup_s           {end_to_end['setup_s']:.4f} s    median, {spread(setup)}",
        f"  wall_s            {end_to_end['wall_s']:.4f} s    median, {spread(walls)}",
    ]
    traj_steps = sum(inv.traj_steps for inv in invs)
    samples = sum(inv.samples for inv in invs)
    if traj_steps:
        lines.append(f"  traj_steps_per_s  {traj_steps / end_to_end['wall_s']:.6g} 1/s  "
                     f"({traj_steps} trajectory steps per pass)")
    if samples:
        lines.append(f"  samples_per_s     {samples / end_to_end['wall_s']:.6g} 1/s  "
                     f"({samples} sampled outcomes per pass)")
    lines += [
        f"  peak_rss_mb       {end_to_end['peak_rss_mb']:.2f} MB   median ru_maxrss",
        f"  ops_failed        {bench.ops_failed} count of ops_attempted {bench.ops_attempted}",
        f"  checks_failed     {bench.checks_failed} count of checks_attempted "
        f"{bench.checks_attempted}",
        f"  output_sha256     {output_sha256}",
    ]

    if args.trace:
        layers = [
            layer_metrics(p["spans"], p["counts"], p["wall_s"]) for p in traced
        ]
        for p in traced:
            problems = span_problems(p["spans"], p["op_seconds"], ACCOUNTING_TOL_S)
            if problems:
                correct = False
                bench.problems += [f"traced pass: {q}" for q in problems[:5]]
        metrics = {name: statistics.median([m[name] for m in layers]) for name in layers[0]}
        for name in ("setup.numpy_import_s", "setup.scipy_import_s", "setup.qmengine_import_s"):
            metrics[name] = statistics.median([i[name] for i in imports])
        metrics["cli.bytes_written"] = statistics.median([p["bytes_written"] for p in traced])
        metrics["process.cpu_s"] = statistics.median([p["cpu_s"] for p in untraced])
        metrics["trace.untraced_wall_s"] = end_to_end["wall_s"]
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - end_to_end["wall_s"]
        metrics = {name: metrics[name] for name in per_layer_names()}
        top = largest_self_times(traced[len(traced) // 2]["spans"])
        lines.append(f"per-layer metrics (median of {len(traced)} traced passes):")
        lines += [f"  {k:38s} {v:.6g} {unit_of(k)}" for k, v in metrics.items()]
        lines.append("largest self times: " + ", ".join(f"{n} {s:.4f} s" for n, s in top))
        if traced[0]["missing"]:
            lines.append("not found, reported as 0: " + ", ".join(traced[0]["missing"]))
    else:
        metrics = end_to_end
    for problem in bench.problems[:10]:
        lines.append(f"problem: {problem}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.ops_attempted,
        "failed": bench.ops_failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and a single pass, for testing the benchmark")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
