"""Ensemble Monte Carlo driver, analytic work-statistics oracles, and
statistical comparison machinery.

The work harvested by the engine is exponentially distributed at every time:
P(W, t) = (tau/sigma(t)) * exp(-tau*W/sigma(t)) in units of hbar*omega, with
sigma(t) the accumulated squared symplectic eigenvalue nu(t) = q3(t)/2 of the
covariance flow (integral of nu**2 for a single terminal feedback, nu**2*dt
for extraction after every step).  The mean work is sigma(t)/tau and the
steady-state power is nu_ss**2/tau = 1/(4*tau).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
# np.histogram(bins="fd") reaches numpy.ma through np.quantile; loaded here,
# its cost stays in the import instead of inside the first run
import numpy.ma

from .config import EngineConfig
from .errors import DegenerateWorkDistributionError, UnsupportedConfigurationError
from .feedback import run_ensemble_arrays
from .gaussian import covariance_series
from .kolmogorov import two_sided_test

#: Smallest sample the KS comparison accepts.
KS_MIN_SAMPLES = 100
#: Significance level of the KS comparison.
KS_LEVEL = 0.01
#: Batches whose means give the efficiency series' standard errors.
EFFICIENCY_BATCHES = 100


@dataclass(frozen=True, slots=True)
class WorkStatistics:
    """Binned work samples of one ensemble with their first two moments."""

    samples: np.ndarray
    counts: np.ndarray
    bin_edges: np.ndarray
    mean: float
    variance: float
    stderr: float
    n_traj: int
    t: float


@dataclass(frozen=True, slots=True)
class SigmaSchedule:
    """Time series of nu(t) and of the work-scale parameter sigma(t) on the
    step grid of the run's config.

    For the terminal policy sigma(t) is the running integral of nu**2; for
    the per-step policy it is nu(t)**2 * dt.
    """

    t: np.ndarray
    nu: np.ndarray
    sigma: np.ndarray
    config: EngineConfig

    @property
    def tau(self) -> float:
        return self.config.tau1

    def sigma_at(self, t: float) -> float:
        return float(self.sigma[self.config.step_index(t)])

    def nu_at(self, t: float) -> float:
        return float(self.nu[self.config.step_index(t)])

    def mean_work_at(self, t: float) -> float:
        return self.sigma_at(t) / self.tau


@dataclass(frozen=True, slots=True)
class MeanWorkSeries:
    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True, slots=True)
class PowerSeries:
    t: np.ndarray
    power: np.ndarray


@dataclass(frozen=True, slots=True)
class EfficiencySeries:
    """Ensemble work-conversion efficiency eta(t) = <W>/<Q> under per-step
    extraction, with Q = W + (q3 + q5)/4 - 1/2 (harvested work plus the
    energy still stored in the covariances)."""

    t: np.ndarray
    eta: np.ndarray
    stderr: np.ndarray


@dataclass(frozen=True, slots=True)
class KsResult:
    statistic: float
    pvalue: float
    passed: bool


def sigma_schedule(config: EngineConfig, policy: str = "terminal") -> SigmaSchedule:
    """Integrate the covariance flow on the config's step grid up to t_final
    and accumulate the work scale sigma(t).

    Defined only for symmetric channels, where the covariance matrix stays in
    normal form and nu(t) = q3(t)/2 = q5(t)/2.
    """
    if config.tau1 != config.tau2:
        raise UnsupportedConfigurationError(
            "sigma schedule requires symmetric channels (nu is defined only "
            f"in normal form); got ({config.tau1}, {config.tau2})"
        )
    if policy not in ("terminal", "per-step"):
        raise ValueError(f"policy must be 'terminal' or 'per-step', got {policy!r}")
    dt = config.resolved_dt
    cov = covariance_series(config.nbar, config.tau1, config.tau2, dt, config.n_steps)
    nu = 0.5 * cov[:, 0]
    y = nu * nu
    if policy == "terminal":
        # the cumulative trapezoid rule, summed in scipy's order
        sigma = np.concatenate(([0.0], np.cumsum(dt * (y[1:] + y[:-1]) / 2.0)))
    else:
        sigma = y * dt
    t = np.arange(len(nu)) * dt
    return SigmaSchedule(t=t, nu=nu, sigma=sigma, config=config)


def _work_rate(t: float, schedule: SigmaSchedule) -> float:
    """tau/sigma(t), the inverse mean work; inf when all probability mass
    sits at W = 0 (sigma = 0, or tau = inf: no measurement)."""
    sigma = schedule.sigma_at(t)
    return schedule.tau / sigma if sigma > 0.0 else math.inf


def exact_work_pdf(w, t: float, schedule: SigmaSchedule):
    """Exact density of the harvested work at time t (units hbar*omega).

    Exponential with mean sigma(t)/tau; zero for w < 0.  A vanishing mean
    means all mass sits at W = 0 and is reported as a distinct error.
    """
    rate = _work_rate(t, schedule)
    if rate == math.inf:
        raise DegenerateWorkDistributionError(
            f"sigma({t})/tau = {schedule.mean_work_at(t)}: all probability mass at W = 0"
        )
    w = np.asarray(w, dtype=float)
    out = np.where(w >= 0.0, rate * np.exp(-rate * np.clip(w, 0.0, None)), 0.0)
    return out if out.ndim else float(out)


def exact_work_cdf(w, t: float, schedule: SigmaSchedule):
    """Exact distribution function of the harvested work at time t.

    Handles the degenerate zero-mean case as a unit step at W = 0.
    """
    rate = _work_rate(t, schedule)
    w = np.asarray(w, dtype=float)
    if rate == math.inf:
        out = np.where(w >= 0.0, 1.0, 0.0)
    else:
        out = np.where(w >= 0.0, 1.0 - np.exp(-rate * np.clip(w, 0.0, None)), 0.0)
    return out if out.ndim else float(out)


def _moments(samples: np.ndarray) -> tuple[float, float, float]:
    n = len(samples)
    # a memoryview yields Python floats without numpy scalars or a list of them
    mean = math.fsum(memoryview(samples)) / n
    variance = float(np.var(samples, ddof=1)) if n > 1 else 0.0
    stderr = math.sqrt(variance / n) if n > 1 else 0.0
    return mean, variance, stderr


def work_samples(config: EngineConfig, t_grid: Sequence[float]) -> np.ndarray:
    """Work of each trajectory of config's ensemble at each grid time, shape
    (len(t_grid), n_traj), under config's policy:

    terminal -> the harvest of a reset at that time, 0.5*(q1**2 + q2**2);
    per-step -> the harvest of the step ending at that time;
    none     -> the accrued ledger value (diagnostics).
    """
    if config.policy == "terminal":
        steps = run_ensemble_arrays(config, t_grid, ["q1", "q2"])
        return 0.5 * (steps.q1 * steps.q1 + steps.q2 * steps.q2)
    field = "harvest" if config.policy == "per-step" else "ledger"
    return getattr(run_ensemble_arrays(config, t_grid, [field]), field)


def run_ensemble(config: EngineConfig) -> WorkStatistics:
    """Run config.n_traj independent trajectories and bin the work at t_final
    (Freedman-Diaconis bins)."""
    (samples,) = work_samples(config, [config.t_final])
    counts, bin_edges = np.histogram(samples, bins="fd")
    mean, variance, stderr = _moments(samples)
    return WorkStatistics(
        samples=samples,
        counts=counts,
        bin_edges=bin_edges,
        mean=mean,
        variance=variance,
        stderr=stderr,
        n_traj=config.n_traj,
        t=config.t_final,
    )


def mean_work_curve(config: EngineConfig, t_grid: Sequence[float]) -> MeanWorkSeries:
    """Ensemble mean of the terminal-feedback work at each grid time <= t_final."""
    if config.policy != "terminal":
        raise UnsupportedConfigurationError(
            f"mean work curve is defined for the terminal policy, got {config.policy!r}"
        )
    work = work_samples(config, t_grid)
    means = np.empty(len(t_grid))
    errs = np.empty(len(t_grid))
    for i in range(len(t_grid)):
        means[i], _, errs[i] = _moments(work[i])
    return MeanWorkSeries(t=np.asarray(t_grid, dtype=float), mean=means, stderr=errs)


def power_series(config: EngineConfig, t_grid: Sequence[float]) -> PowerSeries:
    """Analytic engine power J(t) = nu(t)**2 / tau on the grid, up to t_final."""
    schedule = sigma_schedule(config)
    power = np.array(
        [schedule.nu_at(t) ** 2 / schedule.tau for t in t_grid], dtype=float
    )
    return PowerSeries(t=np.asarray(t_grid, dtype=float), power=power)


def monte_carlo_power(
    config: EngineConfig, t_grid: Sequence[float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Finite-difference power estimate from paired trajectory increments.

    Returns (window midpoints, estimates, standard errors); the pairing over
    common trajectories cancels most of the Monte Carlo variance.
    """
    if config.policy != "terminal":
        raise UnsupportedConfigurationError(
            f"power estimate is defined for the terminal policy, got {config.policy!r}"
        )
    w = work_samples(config, t_grid)
    mids = np.empty(len(t_grid) - 1)
    est = np.empty(len(t_grid) - 1)
    err = np.empty(len(t_grid) - 1)
    for i in range(len(t_grid) - 1):
        span = t_grid[i + 1] - t_grid[i]
        diff = (w[i + 1] - w[i]) / span
        mids[i] = 0.5 * (t_grid[i] + t_grid[i + 1])
        est[i], _, err[i] = _moments(diff)
    return mids, est, err


def efficiency_series(config: EngineConfig, t_grid: Sequence[float]) -> EfficiencySeries:
    """Ensemble efficiency eta(t) = <W>/<Q> under per-step extraction.

    Q adds to the harvested work the energy still stored in the covariances,
    (q3 + q5)/4 - 1/2 (the general form, valid also for asymmetric
    channels).  Standard errors come from batch means over trajectory
    sub-ensembles (EFFICIENCY_BATCHES of them, at most n_traj // 2).
    """
    if config.policy != "per-step":
        raise UnsupportedConfigurationError(
            f"efficiency series is defined for the per-step policy, got {config.policy!r}"
        )
    steps = run_ensemble_arrays(config, t_grid, ["harvested"])
    excess = 0.25 * (steps.cov[:, 0] + steps.cov[:, 2]) - 0.5
    n_batches = max(2, min(EFFICIENCY_BATCHES, config.n_traj // 2))

    eta = np.empty(len(t_grid))
    err = np.empty(len(t_grid))
    for i in range(len(t_grid)):
        w = steps.harvested[i]
        mean_w = math.fsum(memoryview(w)) / len(w)
        eta[i] = mean_w / (mean_w + excess[i])
        batch_eta = [
            (bm := float(np.mean(b))) / (bm + excess[i])
            for b in np.array_split(w, n_batches)
        ]
        err[i] = float(np.std(batch_eta, ddof=1)) / math.sqrt(n_batches)
    return EfficiencySeries(t=np.asarray(t_grid, dtype=float), eta=eta, stderr=err)


def ks_compare(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """Two-sided Kolmogorov-Smirnov test of samples against an analytic CDF.

    Passes when the p-value is at or above KS_LEVEL, i.e. the
    statistic is below the corresponding critical value.  The p-value is the
    exact one, Pr(D_n >= D) (``kolmogorov.kstwo_sf``).  A sample containing
    NaN gives statistic and p-value NaN and does not pass.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot run a KS comparison on an empty sample")
    if samples.size < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples, got {samples.size}")
    if np.isnan(samples).any():
        return KsResult(statistic=math.nan, pvalue=math.nan, passed=False)
    statistic, pvalue = two_sided_test(samples, cdf)
    return KsResult(
        statistic=float(statistic),
        pvalue=float(pvalue),
        passed=bool(pvalue >= KS_LEVEL),
    )
