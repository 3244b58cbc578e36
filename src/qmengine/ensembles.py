"""Ensemble Monte Carlo driver, analytic work-statistics oracles, and
statistical comparison machinery.

The work harvested by the engine is exponentially distributed at every time:
P(W, t) = (tau/sigma(t)) * exp(-tau*W/sigma(t)) in units of hbar*omega, with
sigma(t) the accumulated squared symplectic eigenvalue nu(t) = q3(t)/2 of the
covariance flow (integral of nu**2 for a single terminal feedback, nu**2*dt
for extraction after every step).  The mean work is sigma(t)/tau and the
steady-state power is nu_ss**2/tau = 1/(4*tau).  ``sigma_schedule`` gives
that law's parameter on the step grid, and ``exact_work_pdf`` and
``exact_work_cdf`` evaluate the law from it.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .config import EngineConfig
from .errors import UnsupportedConfigurationError
from .feedback import Steps, run_ensemble_arrays, run_ensembles
from .gaussian import covariance_series, inv_2tau

#: Smallest sample the KS comparison accepts.
KS_MIN_SAMPLES = 100
#: Significance level of the KS comparison.
KS_LEVEL = 0.01
#: Batches whose means give the efficiency series' standard errors.
EFFICIENCY_BATCHES = 100


class WorkStatistics(NamedTuple):
    """Work samples of one ensemble with their first two moments."""

    samples: np.ndarray
    mean: float
    variance: float
    stderr: float
    n_traj: int
    t: float


class MeanWorkSeries(NamedTuple):
    t: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray


class EfficiencySeries(NamedTuple):
    """Ensemble work-conversion efficiency eta(t) = <W>/<Q> under per-step
    extraction, with Q = W + (q3 + q5)/4 - 1/2 (harvested work plus the
    energy still stored in the covariances)."""

    t: np.ndarray
    eta: np.ndarray
    stderr: np.ndarray


class KsResult(NamedTuple):
    """D_n of a KS comparison, the DKW-Massart bound on its p-value
    Pr(D_n >= D), and whether that bound is at or above KS_LEVEL."""

    statistic: float
    pvalue: float
    passed: bool


def sigma_schedule(
    config: EngineConfig, policy: str = "terminal"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """nu(t), the mean work sigma(t)/tau and the work law's rate tau/sigma(t)
    on the config's step grid up to t_final; ``config.step_index`` indexes
    them.

    sigma(t) is the running integral of nu**2 for the terminal policy and
    nu(t)**2 * dt for the per-step policy.  A channel switched off
    (inv_2tau = 0) banks no work: its sigma is 0, so the mean is 0 and the
    rate inf, the law a point mass at W = 0.  Defined only for symmetric
    channels, where the covariance matrix stays in normal form and
    nu(t) = q3(t)/2 = q5(t)/2.
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
    tau = config.tau1
    if not inv_2tau(tau):
        sigma = np.zeros_like(sigma)
    # sigma = 0 (channel off, or t = 0 under the terminal policy) and a
    # tau/sigma that overflows both give rate inf, the point mass
    with np.errstate(divide="ignore", over="ignore"):
        return nu, sigma / tau, tau / sigma


def ledger_mean_work(config: EngineConfig) -> float:
    """Exact mean of the work ledger at t_final for the discrete scheme, any
    channels: a sum over the covariance rows (c3, c4, c5) at the step starts,
    as each step's means are independent of its noise.  Its terms are the Ito
    drift nu**2*dt/tau1 (nu = c3/2) or the midpoint rule's (dt/4)*((c3**2 +
    c4**2)*i1 + (c4**2 + c5**2)*i2), i = inv_2tau(tau).
    """
    dt = config.resolved_dt
    cov = covariance_series(config.nbar, config.tau1, config.tau2, dt, config.n_steps)
    c3, c4, c5 = cov[:-1].T
    if config.scheme == "ito":
        nu = 0.5 * c3
        terms = nu * nu / config.tau1 * dt
    else:
        i1, i2 = inv_2tau(config.tau1), inv_2tau(config.tau2)
        terms = 0.25 * dt * ((c3 * c3 + c4 * c4) * i1 + (c4 * c4 + c5 * c5) * i2)
    return math.fsum(memoryview(terms))


def _libm_exp(x: np.ndarray) -> np.ndarray:
    """exp of each element through libm (math.exp): numpy's vectorised exp
    follows its SIMD dispatch, so its last bit depends on the CPU.  A
    memoryview yields Python floats one at a time, with no list of them."""
    return np.fromiter(map(math.exp, memoryview(x.ravel())), float, x.size).reshape(x.shape)


def exact_work_pdf(w, rate: float):
    """Exact density of the harvested work (units hbar*omega) under the
    exponential law with rate tau/sigma(t) from ``sigma_schedule``; zero for
    w < 0.  The point mass at W = 0 (rate inf) has no density.  exp is
    libm's, element by element, so the values do not depend on the CPU."""
    if rate == math.inf:
        raise ValueError("the work law is a point mass at W = 0 and has no density")
    w = np.asarray(w, dtype=float)
    out = np.where(w >= 0.0, rate * _libm_exp(-rate * np.clip(w, 0.0, None)), 0.0)
    return out if out.ndim else float(out)


def exact_work_cdf(w, rate: float):
    """Exact distribution function of the harvested work under the
    exponential law with rate tau/sigma(t); the point mass at W = 0
    (rate inf) is a unit step there.  exp is libm's, element by element,
    so the values, and the KS statistic taken against them, do not depend
    on the CPU."""
    w = np.asarray(w, dtype=float)
    if rate == math.inf:
        out = np.where(w >= 0.0, 1.0, 0.0)
    else:
        out = np.where(w >= 0.0, 1.0 - _libm_exp(-rate * np.clip(w, 0.0, None)), 0.0)
    return out if out.ndim else float(out)


def _moments(samples: np.ndarray) -> tuple[float, float, float]:
    n = len(samples)
    # a memoryview yields Python floats without numpy scalars or a list of them
    mean = math.fsum(memoryview(samples)) / n
    if n < 2:
        return mean, 0.0, 0.0
    # the variance of the samples scaled by 2**-e, |x| < 2**e, so that the
    # squares of tiny samples do not underflow; scaling by 2**k is exact
    e = math.frexp(float(np.max(np.abs(samples))))[1]
    variance = float(np.var(np.ldexp(samples, -e), ddof=1))
    return mean, math.ldexp(variance, 2 * e), math.ldexp(math.sqrt(variance / n), e)


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
    """Run config.n_traj independent trajectories and take the moments of
    their work at t_final."""
    (samples,) = work_samples(config, [config.t_final])
    mean, variance, stderr = _moments(samples)
    return WorkStatistics(
        samples=samples,
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


def efficiency_series(
    configs: Sequence[EngineConfig], t_grid: Sequence[float]
) -> list[EfficiencySeries]:
    """Ensemble efficiency eta(t) = <W>/<Q> under per-step extraction, one
    series per config.

    The configs' ensembles step on the same normals (``run_ensembles``), so
    they must agree on the seed, n_traj, t_final, dt and policy.  Q adds to
    the harvested work the energy still stored in the covariances, (q3 +
    q5)/4 - 1/2 (the general form, valid also for asymmetric channels).
    Standard errors come from batch means over trajectory sub-ensembles
    (EFFICIENCY_BATCHES of them, at most n_traj // 2 but at least two), so
    n_traj must be at least 2.  Where <Q> = 0 no energy has entered and eta
    is undefined: a ValueError names the first such time.
    """
    for config in configs:
        if config.policy != "per-step":
            raise UnsupportedConfigurationError(
                f"efficiency series is defined for the per-step policy, got {config.policy!r}"
            )
        if config.n_traj < 2:
            raise ValueError(
                f"efficiency series needs at least 2 trajectories, got {config.n_traj}"
            )
    return [_efficiency(steps, t_grid) for steps in run_ensembles(configs, t_grid, ["harvested"])]


def _efficiency(steps: Steps, t_grid: Sequence[float]) -> EfficiencySeries:
    """eta(t) and its batch-means standard error from an ensemble's
    ``harvested`` and ``cov`` at the times of t_grid."""
    excess = 0.25 * (steps.cov[:, 0] + steps.cov[:, 2]) - 0.5
    harvested = steps.harvested
    n = harvested.shape[1]
    n_batches = max(2, min(EFFICIENCY_BATCHES, n // 2))
    # np.array_split's batches: the first r hold q + 1 trajectories, the rest q
    q, r = divmod(n, n_batches)
    cut = r * (q + 1)

    eta = np.empty(len(t_grid))
    err = np.empty(len(t_grid))
    for i, w in enumerate(harvested):
        mean_w = math.fsum(memoryview(w)) / n
        energy = mean_w + excess[i]
        if energy == 0.0:
            raise ValueError(
                f"efficiency is undefined at t = {t_grid[i]}: <W> + excess = 0, "
                "no energy has entered"
            )
        eta[i] = mean_w / energy
        means = np.concatenate((
            w[:cut].reshape(r, q + 1).mean(axis=1),
            w[cut:].reshape(n_batches - r, q).mean(axis=1),
        ))
        batch_eta = means / (means + excess[i])
        err[i] = float(np.std(batch_eta, ddof=1)) / math.sqrt(n_batches)
    return EfficiencySeries(t=np.asarray(t_grid, dtype=float), eta=eta, stderr=err)


def ks_compare(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """Two-sided Kolmogorov-Smirnov test of samples against an analytic CDF.

    The statistic D_n = sup |F_n - F| is computed as ``scipy.stats.kstest``
    computes it, bit for bit.  The p-value is the Dvoretzky-Kiefer-Wolfowitz
    bound with Massart's constant, min(1, 2*exp(-2*n*D**2)) >= Pr(D_n >= D)
    for every n (Ann. Probab. 18, 1269, 1990), so the test passes, at
    KS_LEVEL, at least wherever the exact p-value would.  A sample containing
    NaN gives statistic and p-value NaN and does not pass.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("cannot run a KS comparison on an empty sample")
    if samples.size < KS_MIN_SAMPLES:
        raise ValueError(f"need at least {KS_MIN_SAMPLES} samples, got {samples.size}")
    if np.isnan(samples).any():
        return KsResult(statistic=math.nan, pvalue=math.nan, passed=False)
    x = np.sort(samples)
    n = x.size
    cdfvals = cdf(x)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    statistic = float(d_plus if d_plus > d_minus else d_minus)
    # min(p, 1.0), not min(1.0, p): a NaN statistic keeps a NaN p-value
    pvalue = min(2.0 * math.exp(-2.0 * n * statistic * statistic), 1.0)
    return KsResult(statistic=statistic, pvalue=pvalue, passed=pvalue >= KS_LEVEL)
