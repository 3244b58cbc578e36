"""Layer tracing for the benchmark, installed from outside the program.

After ``qmengine.cli`` is imported, each public function at a module boundary
is replaced by a wrapper that records a span (name, start, end, parent span,
run id) and, for some functions, work counts taken from its arguments.  The
wrapper is installed on the defining module and on every module of the
package that imported the function by name; ``NoiseSource.generator`` is
wrapped on its class.  Spans stay in memory until the run ends.  Nothing in
the program's source changes.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

#: (module, attribute, count hook).  A hook maps the call's bound arguments
#: to counts; it runs before the span starts, so its cost falls in the
#: caller's self time.
TARGETS = (
    ("cli", "run_experiment", None),
    ("cli", "parse_config", None),
    ("cli", "_write_csv", lambda a: {"cli.csv_rows": len(next(iter(a["columns"].values())))}),
    ("gaussian", "NoiseSource.generator", None),
    ("gaussian", "covariance_series", lambda a: {"gaussian.covariance_steps": a["n_steps"]}),
    (
        "feedback",
        "run_ensemble_arrays",
        lambda a: {
            "feedback.traj_steps": a["config"].n_traj * a["config"].n_steps,
            # computed, not measured: two float64 normals per trajectory step
            "feedback.noise_bytes": 16 * a["config"].n_traj * a["config"].n_steps,
        },
    ),
    ("feedback", "run_trajectory", None),
    ("ensembles", "run_ensemble", None),
    ("ensembles", "mean_work_curve", None),
    ("ensembles", "efficiency_series", None),
    ("ensembles", "sigma_schedule", None),
    ("ensembles", "ks_compare", None),
    ("ensembles", "power_series", None),
    ("single_shot", "sample_outcomes", lambda a: {"single_shot.samples": a["n_samples"]}),
    ("single_shot", "binary_efficiency", None),
    ("thermo", "classical_cycle", None),
)

PACKAGE = "qmengine"
#: Name of the span around one whole CLI invocation.
ROOT = "invocation"
LAYERS = ("cli", "gaussian", "feedback", "ensembles", "single_shot", "thermo")


class Tracer:
    """Keeps spans as [name, start, end, parent index or -1, run id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        self.missing: list[str] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, hook=None):
        spans, stack, counts = self.spans, self._stack, self.counts
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                counts.update(hook(sig.bind(*args, **kwargs).arguments))
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for module, attr, hook in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            cls_name, _, func_name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = vars(owner).get(func_name) if owner is not None else None
            if not callable(original):
                self.missing.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(f"{module}.{attr}", original, hook)
            if cls_name:
                setattr(owner, func_name, wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def call(self, run: int, fn, *args):
        """Call fn(*args) under a root span belonging to run id ``run``."""
        self.run = run
        return self.wrap(ROOT, fn)(*args)


def summarize(spans) -> dict[str, list]:
    """Per span name: [calls, inclusive seconds, self seconds].

    Self time is a span's duration minus the durations of its direct children.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - covered[i]
    return out


def layer_metrics(spans, counts, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass whose invocations took wall_s in total.

    ``<layer>.self_s`` sums the self time of the layer's spans, and
    ``trace.unspanned_s`` is the self time of the root spans: time in the CLI
    outside every wrapped function.  ``span_problems`` checks that together
    they account for ``wall_s``.
    """
    summary = summarize(spans)

    def calls(name):
        return summary.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return summary.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return summary.get(name, [0, 0.0, 0.0])[2]

    metrics = {
        "cli.parse_config_s": total("cli.parse_config"),
        "cli.write_csv_s": total("cli._write_csv"),
        "cli.write_csv_calls": calls("cli._write_csv"),
        "cli.csv_rows": counts.get("cli.csv_rows", 0),
        "cli.run_experiment_self_s": self_s("cli.run_experiment"),
        "gaussian.streams_created": calls("gaussian.NoiseSource.generator"),
        "gaussian.stream_setup_s": total("gaussian.NoiseSource.generator"),
        "gaussian.covariance_series_s": total("gaussian.covariance_series"),
        "gaussian.covariance_steps": counts.get("gaussian.covariance_steps", 0),
        "feedback.run_ensemble_arrays_calls": calls("feedback.run_ensemble_arrays"),
        "feedback.run_ensemble_arrays_self_s": self_s("feedback.run_ensemble_arrays"),
        "feedback.traj_steps": counts.get("feedback.traj_steps", 0),
        "feedback.noise_bytes": counts.get("feedback.noise_bytes", 0),
        "feedback.run_trajectory_s": total("feedback.run_trajectory"),
        "ensembles.run_ensemble_calls": calls("ensembles.run_ensemble"),
        "ensembles.run_ensemble_self_s": self_s("ensembles.run_ensemble"),
        "ensembles.mean_work_curve_self_s": self_s("ensembles.mean_work_curve"),
        "ensembles.efficiency_series_self_s": self_s("ensembles.efficiency_series"),
        "ensembles.sigma_schedule_s": total("ensembles.sigma_schedule"),
        "ensembles.ks_compare_s": total("ensembles.ks_compare"),
        "ensembles.power_series_s": total("ensembles.power_series"),
        "single_shot.sample_outcomes_s": total("single_shot.sample_outcomes"),
        "single_shot.samples": counts.get("single_shot.samples", 0),
        "single_shot.binary_efficiency_calls": calls("single_shot.binary_efficiency"),
        "single_shot.binary_efficiency_s": total("single_shot.binary_efficiency"),
        "thermo.classical_cycle_s": total("thermo.classical_cycle"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            row[2] for name, row in summary.items() if name.startswith(layer + ".")
        )
    metrics["trace.unspanned_s"] = self_s(ROOT)
    metrics["trace.wall_s"] = wall_s
    return metrics


def span_problems(spans, wall_s: list[float], tol_s: float) -> list[str]:
    """Why the spans of one traced pass do not account for its invocation times.

    ``wall_s[i]`` is the time of invocation i as measured outside the tracer.
    Every run needs exactly one root span within ``tol_s`` of that time, and
    every other span must lie inside its parent, in the parent's run.  When
    both hold, the layer self times plus the root self time
    (``trace.unspanned_s``) add up to the traced wall time within
    ``tol_s`` per invocation.
    """
    problems = []
    roots = collections.defaultdict(list)
    for i, (name, start, end, parent, run) in enumerate(spans):
        if parent < 0:
            if name == ROOT:
                roots[run].append(end - start)
            else:
                problems.append(f"span {name} has no parent")
            continue
        _, p_start, p_end, _, p_run = spans[parent]
        if not (parent < i and p_run == run and p_start <= start <= end <= p_end):
            problems.append(f"span {name} lies outside its parent span")
    for run, seconds in enumerate(wall_s):
        if len(roots[run]) != 1:
            problems.append(f"invocation {run} has {len(roots[run])} root spans")
        elif abs(roots[run][0] - seconds) > tol_s:
            problems.append(
                f"invocation {run}: root span {roots[run][0]:.6f} s, timed {seconds:.6f} s"
            )
    if set(roots) - set(range(len(wall_s))):
        problems.append("root spans of unknown invocations")
    return problems


def largest_self_times(spans, n: int = 5) -> list[tuple[str, float]]:
    """The n span names with the largest self time, root span excluded."""
    rows = [(name, row[2]) for name, row in summarize(spans).items() if name != ROOT]
    return sorted(rows, key=lambda r: -r[1])[:n]


def parse_importtime(stderr: str) -> dict[str, float]:
    """Split ``python -X importtime -c 'import qmengine.cli'`` into three parts.

    numpy and scipy are the cumulative times of their outermost imports under
    qmengine; qmengine is the rest of qmengine's cumulative import time.
    Entries are printed children first, so the lines are read in reverse,
    which visits every parent before its children.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "qmengine": 0.0}
    stack: list[tuple[int, str]] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name_field = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the column header
        depth = (len(name_field) - len(name_field.lstrip(" "))) // 2
        name = name_field.strip()
        root = name.split(".")[0]
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = {r for _, r in stack}
        if root in totals and not ancestors & {root, "numpy", "scipy"}:
            if root == "qmengine" or "qmengine" in ancestors:
                totals[root] += int(cumulative) * 1e-6
        stack.append((depth, root))
    return {
        "setup.numpy_import_s": totals["numpy"],
        "setup.scipy_import_s": totals["scipy"],
        "setup.qmengine_import_s": totals["qmengine"] - totals["numpy"] - totals["scipy"],
    }
