"""Tests for the ensemble driver, analytic oracles, and KS machinery."""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy import special
from scipy.integrate import quad
from scipy.stats import kstest, kstwo, norm

import qmengine as qm
from qmengine import ensembles, kolmogorov
from qmengine.errors import UnsupportedConfigurationError
from qmengine.feedback import run_ensemble_arrays
from qmengine.gaussian import NO_MEASUREMENT_TAU, covariance_series


def exp_cdf(w):
    return 1.0 - np.exp(-np.clip(w, 0, None))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def riccati_q3_closed_form(q3_0: float, tau: float, t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if q3_0 == 1.0:
        return np.ones_like(t)
    c = 2.0 * tau * math.atanh(1.0 / q3_0)
    return 1.0 / np.tanh((t + c) / (2.0 * tau))


def sigma_closed_form(q3_0: float, tau: float, t) -> np.ndarray:
    """Integral of nu**2 for symmetric channels: t/4 + (tau/2)(q3(0)-q3(t))."""
    return 0.25 * np.asarray(t, dtype=float) + 0.5 * tau * (
        q3_0 - riccati_q3_closed_form(q3_0, tau, t)
    )


class TestExactWorkDistribution:
    def setup_method(self):
        config = qm.EngineConfig(nbar=0.0, dt=0.01)
        _, self.mean, self.rate = qm.sigma_schedule(config)
        self.k = config.step_index(1.0)

    def test_normalized(self):
        total, _ = quad(lambda w: qm.exact_work_pdf(w, self.rate[self.k]), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mean_is_sigma_over_tau(self):
        mean, _ = quad(
            lambda w: w * qm.exact_work_pdf(w, self.rate[self.k]), 0.0, np.inf
        )
        assert mean == pytest.approx(self.mean[self.k], rel=1e-8)
        assert self.mean[self.k] == pytest.approx(0.25, abs=1e-12)

    def test_negative_work_has_zero_density(self):
        assert qm.exact_work_pdf(-0.3, self.rate[self.k]) == 0.0
        assert qm.exact_work_cdf(-0.3, self.rate[self.k]) == 0.0

    def test_degenerate_scale_reported_distinctly(self):
        # sigma(0) = 0: the rate is inf, the law a point mass at W = 0
        assert self.mean[0] == 0.0 and self.rate[0] == math.inf
        with pytest.raises(ValueError, match="point mass"):
            qm.exact_work_pdf(0.1, self.rate[0])
        # the distribution function is still well defined: a step at zero
        assert qm.exact_work_cdf(0.0, self.rate[0]) == 1.0
        assert qm.exact_work_cdf(-1e-9, self.rate[0]) == 0.0

    def test_no_measurement_is_a_point_mass_at_zero(self):
        config = qm.EngineConfig(tau1=math.inf, tau2=math.inf, dt=0.01)
        _, mean, rate = qm.sigma_schedule(config)
        k = config.step_index(1.0)
        assert mean[k] == 0.0
        assert qm.exact_work_cdf(0.0, rate[k]) == 1.0
        assert qm.exact_work_cdf(-1e-9, rate[k]) == 0.0
        with pytest.raises(ValueError, match="point mass"):
            qm.exact_work_pdf(0.1, rate[k])

    @pytest.mark.parametrize("policy", ["terminal", "per-step"])
    @pytest.mark.parametrize("tau", [NO_MEASUREMENT_TAU, 1e13])
    def test_channels_switched_off_at_finite_tau_bank_no_work(self, tau, policy):
        # the kernel's inv_2tau is 0 here, so its ledger stays at 0; sigma/tau
        # alone would be about 2.5e-13, as nu stays at 1/2
        config = qm.EngineConfig(tau1=tau, tau2=tau, dt=0.01, policy=policy, n_traj=200)
        nu, mean, rate = qm.sigma_schedule(config, policy=policy)
        k = config.step_index(1.0)
        assert nu[k] == 0.5
        assert mean[k] == 0.0 and rate[k] == math.inf
        assert qm.exact_work_cdf(0.0, rate[k]) == 1.0
        assert qm.exact_work_cdf(-1e-300, rate[k]) == 0.0
        assert not qm.run_ensemble(config).samples.any()


class TestSigmaSchedule:
    def test_vacuum_gives_quarter_t(self):
        _, mean, _ = qm.sigma_schedule(qm.EngineConfig(nbar=0.0, dt=0.01, t_final=5.0))
        # tau = 1: the mean work is sigma
        assert np.allclose(mean, 0.25 * np.arange(len(mean)) * 0.01, atol=1e-12)

    def test_matches_closed_form_integral(self):
        dt = 2e-4
        _, mean, _ = qm.sigma_schedule(qm.EngineConfig(nbar=1.0, dt=dt, t_final=2.0))
        exact = sigma_closed_form(3.0, 1.0, np.arange(len(mean)) * dt)
        assert np.abs(mean - exact).max() < 1e-6

    def test_monotone_with_steady_slope(self):
        config = qm.EngineConfig(nbar=1.0, dt=0.01, t_final=20.0)
        _, mean, _ = qm.sigma_schedule(config)
        assert np.all(np.diff(mean) >= 0.0)
        late_slope = (mean[config.step_index(20.0)] - mean[config.step_index(19.0)]) / 1.0
        assert late_slope == pytest.approx(0.25, abs=1e-4)

    def test_asymmetric_channels_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            qm.sigma_schedule(qm.EngineConfig(tau2=0.9, dt=0.01))

    def test_per_step_scale(self):
        config = qm.EngineConfig(nbar=0.0, dt=0.01)
        _, mean, _ = qm.sigma_schedule(config, policy="per-step")
        assert mean[config.step_index(1.0)] == pytest.approx(0.25 * 0.01, rel=1e-12)

    def test_off_grid_time_rejected(self):
        config = qm.EngineConfig(nbar=0.0, dt=0.01)
        _, mean, _ = qm.sigma_schedule(config)
        with pytest.raises(ValueError):
            mean[config.step_index(0.0147)]

    @pytest.mark.parametrize("policy", ["terminal", "per-step"])
    def test_mean_and_rate_are_one_division_of_sigma_each(self, policy):
        # the rate is tau/sigma, not 1/(sigma/tau): at tau != 1 the two
        # differ in the last bits, and so would the KS statistic and exact_pdf
        config = qm.EngineConfig(nbar=2.0, tau1=0.7, tau2=0.7, t_final=1.0)
        nu, mean, rate = qm.sigma_schedule(config, policy=policy)
        dt = config.resolved_dt
        cov = covariance_series(2.0, 0.7, 0.7, dt, config.n_steps)
        assert np.array_equal(nu, 0.5 * cov[:, 0])
        y = nu * nu
        if policy == "terminal":
            sigma = np.concatenate(([0.0], np.cumsum(dt * (y[1:] + y[:-1]) / 2.0)))
        else:
            sigma = y * dt
        assert np.array_equal(mean, sigma / 0.7)
        assert np.array_equal(rate[1:], 0.7 / sigma[1:])
        assert (rate[1:] != 1.0 / mean[1:]).any()


class TestRunEnsemble:
    def test_single_trajectory_matches_scalar_runner(self):
        for policy in ("terminal", "per-step"):
            cfg = qm.EngineConfig(
                nbar=0.5, dt=0.01, t_final=1.0, n_traj=1, policy=policy, seed=77
            )
            stats = qm.run_ensemble(cfg)
            rec = qm.run_trajectory(cfg)
            q1, q2 = rec.q1[-1, 0], rec.q2[-1, 0]
            if policy == "terminal":
                assert stats.samples[0] == 0.5 * (q1 * q1 + q2 * q2)
            else:
                assert stats.samples[0] == rec.harvest[-1, 0]

    def test_per_step_steady_state_mean(self):
        cfg = qm.EngineConfig(
            nbar=0.0, dt=0.01, t_final=1.0, n_traj=5000, policy="per-step", seed=13
        )
        stats = qm.run_ensemble(cfg)
        expected = 0.01 / 4.0  # nu**2 dt / tau at the steady state
        assert abs(stats.mean - expected) <= 3.0 * stats.stderr

    def test_exponential_family_closure(self):
        # per-step work, rescaled by tau/(nu^2 dt), collapses onto Exp(1)
        # across different (tau, dt)
        for tau, dt, seed in ((1.0, 0.01, 14), (2.0, 0.02, 15)):
            cfg = qm.EngineConfig(
                nbar=0.0, tau1=tau, tau2=tau, dt=dt, t_final=1.0,
                n_traj=4000, policy="per-step", seed=seed,
            )
            stats = qm.run_ensemble(cfg)
            rescaled = stats.samples * tau / (0.25 * dt)
            res = qm.ks_compare(rescaled, lambda w: 1.0 - np.exp(-np.clip(w, 0, None)))
            assert res.passed


class TestMeanWorkCurve:
    def test_pointwise_match_and_growth(self):
        cfg = qm.EngineConfig(
            nbar=0.0, dt=0.0025, t_final=1.0, n_traj=4000, policy="terminal", seed=16
        )
        grid = [0.5, 1.0]
        series = qm.mean_work_curve(cfg, grid)
        oracle = qm.sigma_schedule(cfg)[1][cfg.step_index(grid)]
        for i in range(len(grid)):
            assert abs(series.mean[i] - oracle[i]) <= 3.0 * series.stderr[i]
        assert series.mean[1] > series.mean[0]

    def test_requires_terminal_policy(self):
        cfg = qm.EngineConfig(policy="per-step")
        with pytest.raises(UnsupportedConfigurationError):
            qm.mean_work_curve(cfg, [0.5])

    @pytest.mark.parametrize("series", ["mean_work_curve", "sigma_schedule"])
    def test_grid_ends_at_the_configured_horizon(self, series):
        # each series runs to config.t_final; it no longer stretches the run
        # to reach its last grid time
        cfg = qm.EngineConfig(dt=0.01, t_final=1.0, n_traj=10)
        with pytest.raises(ValueError, match="outside the horizon"):
            if series == "mean_work_curve":
                qm.mean_work_curve(cfg, [0.5, 2.0])
            else:
                qm.sigma_schedule(cfg)[0][cfg.step_index([0.5, 2.0])]


def power(cfg: qm.EngineConfig, grid) -> np.ndarray:
    """The engine power J(t) = nu(t)**2/tau on the grid."""
    nu = qm.sigma_schedule(cfg)[0][cfg.step_index(grid)]
    return nu * nu / cfg.tau1


class TestPowerSeries:
    def test_steady_state_value(self):
        cfg = qm.EngineConfig(nbar=0.0, dt=0.01)
        assert np.allclose(power(cfg, [0.5, 1.0]), 0.25, atol=1e-12)

    def test_thermal_start_decreases_to_steady_state(self):
        cfg = qm.EngineConfig(nbar=1.0, dt=0.01, t_final=10.0)
        grid = np.round(np.arange(0.0, 10.0 + 1e-9, 0.5), 10)
        series = power(cfg, grid)
        assert np.all(np.diff(series) < 0.0)
        assert series[0] == pytest.approx(2.25, abs=1e-12)  # nu(0)^2 = 1.5^2
        assert series[-1] == pytest.approx(0.25, abs=1e-3)

    def test_faster_measurement_doubles_steady_power(self):
        slow = power(qm.EngineConfig(nbar=0.0, tau1=1.0, tau2=1.0, dt=0.005), [1.0])
        fast = power(qm.EngineConfig(nbar=0.0, tau1=0.5, tau2=0.5, dt=0.005), [1.0])
        assert fast[0] == pytest.approx(2.0 * slow[0], rel=1e-9)

    def test_monte_carlo_estimate(self):
        cfg = qm.EngineConfig(
            nbar=0.0, dt=0.0025, t_final=1.0, n_traj=5000, policy="terminal", seed=17
        )
        mids, est, err = qm.monte_carlo_power(cfg, [0.5, 1.0])
        assert abs(est[0] - 0.25) <= 3.0 * err[0]


class TestEfficiencySeries:
    def test_symmetric_vacuum_reaches_unity_exactly(self):
        cfg = qm.EngineConfig(
            nbar=0.0, dt=0.01, t_final=5.0, n_traj=2000, policy="per-step", seed=18
        )
        (series,) = qm.efficiency_series([cfg], [1.0, 5.0])
        # vacuum + symmetric channels: covariance excess is identically zero
        assert series.eta[0] == 1.0 and series.eta[1] == 1.0
        assert series.stderr[0] == 0.0

    def test_thermal_start_efficiency_rises_from_variance_cost(self):
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.01, t_final=10.0, n_traj=2000, policy="per-step", seed=19
        )
        (series,) = qm.efficiency_series([cfg], [0.01, 1.0, 10.0])
        # just after the start Q is dominated by the thermal variance excess
        assert series.eta[0] < 0.05
        assert np.all(np.diff(series.eta) > 0.0)
        assert series.eta[-1] > 0.9

    def test_asymmetric_channels_stay_below_unity(self):
        cfg = qm.EngineConfig(
            nbar=0.0, tau2=0.9, dt=0.01, t_final=15.0, n_traj=2000,
            policy="per-step", seed=20,
        )
        (series,) = qm.efficiency_series([cfg], [15.0])
        assert 1.0 - series.eta[0] > 3.0 * series.stderr[0]

    @pytest.mark.parametrize("n_traj", [1003, 10007])
    def test_batch_means_are_those_of_the_array_split_loop(self, n_traj):
        # uneven batches: 1003 trajectories are 3 batches of 11 and 97 of 10,
        # 10007 are 7 of 101 and 93 of 100; every stderr has the loop's bits
        cfg = qm.EngineConfig(
            nbar=1.0, tau2=0.9, dt=0.01, t_final=1.0, n_traj=n_traj, policy="per-step", seed=31
        )
        grid = [0.01, 0.5, 1.0]
        (series,) = qm.efficiency_series([cfg], grid)
        steps = run_ensemble_arrays(cfg, grid, ["harvested"])
        excess = 0.25 * (steps.cov[:, 0] + steps.cov[:, 2]) - 0.5
        for i, w in enumerate(steps.harvested):
            batch_eta = [
                (bm := float(np.mean(b))) / (bm + excess[i]) for b in np.array_split(w, 100)
            ]
            want = float(np.std(batch_eta, ddof=1)) / math.sqrt(100)
            assert bits(series.stderr[i]) == bits(want), i

    def test_requires_per_step_policy(self):
        with pytest.raises(UnsupportedConfigurationError):
            qm.efficiency_series([qm.EngineConfig(policy="terminal")], [1.0])

    def test_needs_two_trajectories_before_any_ensemble_runs(self):
        # one trajectory leaves a batch of the standard errors empty
        cfg = qm.EngineConfig(dt=0.01, t_final=1.0, n_traj=1, policy="per-step")
        with mock.patch.object(ensembles, "run_ensembles") as ensemble, \
                pytest.raises(ValueError, match="at least 2 trajectories, got 1"):
            qm.efficiency_series([cfg], [1.0])
        ensemble.assert_not_called()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau", [NO_MEASUREMENT_TAU, math.inf])
    def test_no_energy_in_names_the_first_time(self, tau):
        # vacuum and both channels off: <W> = 0 and no excess, so eta = 0/0
        cfg = qm.EngineConfig(
            nbar=0.0, tau1=tau, tau2=tau, dt=0.01, t_final=2.0, n_traj=4,
            policy="per-step",
        )
        with pytest.raises(ValueError, match=r"undefined at t = 0\.5: <W> \+ excess = 0"):
            qm.efficiency_series([cfg], [0.5, 1.0, 2.0])


class TestLedgerMeanWork:
    @pytest.mark.parametrize("scheme", ["stratonovich", "ito"])
    def test_thermal_start_sum(self, scheme):
        # nbar 1 at t = 1 with dt = 0.01, either ledger rule
        cfg = qm.EngineConfig(nbar=1.0, dt=0.01, t_final=1.0, scheme=scheme)
        assert ensembles.ledger_mean_work(cfg) == pytest.approx(1.03332, abs=5e-6)

    def test_vacuum_is_quarter_t(self):
        # q3 = q5 = 1 at every step: each step adds (dt/4) * (1/2 + 1/2)
        cfg = qm.EngineConfig(nbar=0.0, dt=0.01, t_final=2.0)
        assert ensembles.ledger_mean_work(cfg) == pytest.approx(0.5, rel=1e-14)

    @pytest.mark.parametrize("tau2", [1.2, math.inf])
    def test_matches_the_ledger_of_an_ensemble(self, tau2):
        cfg = qm.EngineConfig(
            nbar=1.0, tau2=tau2, dt=0.01, t_final=1.0, n_traj=20_000, policy="none", seed=12
        )
        w = run_ensemble_arrays(cfg, [1.0], ["ledger"]).ledger[0]
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - ensembles.ledger_mean_work(cfg)) <= 3.0 * se


class TestKsCompare:
    def test_calibration_on_matching_law(self):
        rng = qm.NoiseSource(22).generator()
        samples = rng.exponential(2.0, size=10_000)
        res = qm.ks_compare(samples, lambda w: 1.0 - np.exp(-np.clip(w, 0, None) / 2.0))
        assert res.passed

    def test_power_against_moment_matched_gaussian(self):
        rng = qm.NoiseSource(23).generator()
        samples = rng.exponential(1.0, size=10_000)
        res = qm.ks_compare(samples, norm(loc=1.0, scale=1.0).cdf)
        assert not res.passed

    def test_invariant_under_common_rescaling(self):
        rng = qm.NoiseSource(24).generator()
        samples = rng.exponential(1.0, size=500)
        base = qm.ks_compare(samples, lambda w: 1.0 - np.exp(-np.clip(w, 0, None)))
        scaled = qm.ks_compare(
            samples * 7.0, lambda w: 1.0 - np.exp(-np.clip(w, 0, None) / 7.0)
        )
        assert scaled.statistic == pytest.approx(base.statistic, abs=1e-12)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            qm.ks_compare(np.array([]), lambda w: w)
        with pytest.raises(ValueError):
            qm.ks_compare(np.ones(50), lambda w: w)

    @pytest.mark.parametrize("edge", ["nan", "+inf"])
    def test_non_finite_sample_matches_the_reference(self, edge):
        samples = qm.NoiseSource(25).generator().exponential(1.0, size=500)
        samples[17] = np.nan if edge == "nan" else np.inf
        # like exact_work_cdf, this CDF maps NaN to 0 instead of propagating it
        cdf = lambda w: np.where(w >= 0.0, exp_cdf(w), 0.0)
        res = qm.ks_compare(samples, cdf)
        if edge == "nan":
            # as scipy's nan_policy="propagate": NaN out, and the check fails
            assert math.isnan(res.statistic) and math.isnan(res.pvalue)
            assert res.passed is False
        else:
            ref = kstest(samples, cdf, method="exact")
            assert bits(res.statistic) == bits(ref.statistic)
            assert bits(res.pvalue) == bits(ref.pvalue)


#: (n, d) pairs that reach each branch of the survival function; the name
#: is the branch, and the helper it must call (None: a closed form).
SF_BRANCHES = {
    "d-at-most-half-over-n": (100, 0.005, None),
    "d-at-least-one": (100, 1.0, None),
    "nd-at-most-1-n<=140": (5, 0.19, None),
    "nd-at-most-1-n>140": (200, 0.004, None),
    "nd-at-least-n-1": (5, 0.85, None),
    "nd-at-least-n-1-large-n": (100, 0.995, None),
    "d-at-least-half": (100, 0.6, "smirnov"),
    "n<=140-dmtw": (100, 0.08, "_kolmogn_DMTW"),
    "n<=140-dmtw-edge": (100, 0.086, "_kolmogn_DMTW"),
    "n<=140-pomeranz": (100, 0.15, "_kolmogn_Pomeranz"),
    "n<=140-smirnov": (140, 0.25, "smirnov"),
    "n>140-ndd>=370": (10_000, 0.2, None),
    "n>140-ndd>=2.2-smirnov": (10_000, 0.02, "smirnov"),
    "n>140-dmtw": (141, 0.02, "_kolmogn_DMTW"),
    "n>140-dmtw-rescaled": (10_000, 0.0025, "_kolmogn_DMTW"),
    "n>140-dmtw-n=1e5": (100_000, 0.00025, "_kolmogn_DMTW"),
    "n>140-pelz-good": (141, 0.05, "_kolmogn_PelzGood"),
    "n>140-pelz-good-wide": (10_000, 0.01, "_kolmogn_PelzGood"),
    "n>1e5-pelz-good": (200_000, 0.002, "_kolmogn_PelzGood"),
    "n>1e5-pelz-good-edge": (100_001, 0.00025, "_kolmogn_PelzGood"),
    "n>1e5-pelz-good-underflow": (200_000, 7.5e-6, "_kolmogn_PelzGood"),
}
HELPERS = ("smirnov", "_kolmogn_DMTW", "_kolmogn_Pomeranz", "_kolmogn_PelzGood")


#: Relative tolerance of the Birnbaum-Tingey ``smirnov`` against scipy's
#: up to n = 10**6, where the largest difference measured was 3.2e-13
SMIRNOV_RTOL = 1e-11


def smirnov_mp(n: int, d: float) -> mpmath.mpf:
    """The Birnbaum-Tingey sum in 40-digit arithmetic."""
    with mpmath.workdps(40):
        d = mpmath.mpf(d)
        total = mpmath.fsum(
            mpmath.binomial(n, j) * (1 - d - mpmath.mpf(j) / n) ** (n - j)
            * (d + mpmath.mpf(j) / n) ** (j - 1)
            for j in range(n + 1) if j < n * (1 - d)
        )
        return d * total


def sf_with_spies(n: int, d: float) -> tuple[np.float64, set[str]]:
    """kstwo_sf(d, n), and the helpers it called."""
    spies = {
        name: mock.patch.object(kolmogorov, name, wraps=getattr(kolmogorov, name))
        for name in HELPERS
    }
    with contextlib.ExitStack() as stack:
        called = {name: stack.enter_context(spy) for name, spy in spies.items()}
        sf = kolmogorov.kstwo_sf(d, n)
    return sf, {name for name, spy in called.items() if spy.called}


class TestKolmogorovPort:
    @pytest.mark.parametrize(
        "n,d,helper",
        [case for case in SF_BRANCHES.values() if case[2] != "smirnov"],
        ids=[name for name, case in SF_BRANCHES.items() if case[2] != "smirnov"],
    )
    def test_survival_function_matches_scipy_bit_for_bit(self, n, d, helper):
        sf, called = sf_with_spies(n, d)
        assert bits(sf) == bits(kstwo.sf(d, n))
        assert called == ({helper} if helper else set())

    @pytest.mark.parametrize(
        "n,d",
        [case[:2] for case in SF_BRANCHES.values() if case[2] == "smirnov"],
        ids=[name for name, case in SF_BRANCHES.items() if case[2] == "smirnov"],
    )
    def test_smirnov_branch_matches_scipy(self, n, d):
        sf, called = sf_with_spies(n, d)
        assert sf == pytest.approx(kstwo.sf(d, n), rel=SMIRNOV_RTOL)
        assert called == {"smirnov"}

    @pytest.mark.parametrize("n", [141, 1_000, 10_000, 100_000, 200_000])
    def test_smirnov_matches_scipy_across_the_tail(self, n):
        # n*d**2 from the branch's lower edge 2.2 to p ~ 1e-10, and d >= 1/2
        for d in [*np.sqrt(np.array([2.2, 3.0, 5.0, 8.0, 12.0]) / n), 0.5, 0.7]:
            ours, ref = kolmogorov.smirnov(n, d), special.smirnov(n, d)
            assert ours == pytest.approx(ref, rel=SMIRNOV_RTOL)
            assert (2 * ours >= 0.01) == (2 * ref >= 0.01)

    @pytest.mark.filterwarnings("error")
    def test_smirnov_on_the_1_over_n_grid(self):
        # n*(1 - d) rounds up past an integer for some d = k/n, which puts a
        # term with d + j/n = 1 (or just above) at the end of the sum
        n = 141
        for d in np.arange(18, 140) / n:
            assert kolmogorov.smirnov(n, d) == pytest.approx(
                special.smirnov(n, d), rel=SMIRNOV_RTOL, abs=1e-300
            )

    @pytest.mark.parametrize(
        "n,d", [(141, math.sqrt(3.0 / 141)), (500, 0.1), (2_000, math.sqrt(2.2 / 2_000)),
                (2_000, math.sqrt(8.0 / 2_000)), (300, 0.6)],
    )
    def test_smirnov_matches_a_40_digit_sum(self, n, d):
        assert kolmogorov.smirnov(n, d) == pytest.approx(float(smirnov_mp(n, d)), rel=1e-13)

    @pytest.mark.parametrize("n", [10**6 + 1, 2 * 10**6, 10**7])
    def test_smirnov_above_1e6_is_scipys_asymptotic_form_bit_for_bit(self, n):
        for nd2 in (2.2, 3.7, 5.0, 12.0, 100.0, 369.0):
            d = math.sqrt(nd2 / n)
            assert bits(kolmogorov.smirnov(n, d)) == bits(special.smirnov(n, d))
            assert bits(kolmogorov.kstwo_sf(d, n)) == bits(kstwo.sf(d, n))

    def test_smirnov_branch_runs_with_scipy_blocked(self):
        # a fresh interpreter in which scipy cannot be imported at all
        code = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "import qmengine as qm\n"
            "samples = qm.NoiseSource(27).generator().exponential(1.03, size=10_000)\n"
            "res = qm.ks_compare(samples, lambda w: 1.0 - np.exp(-np.clip(w, 0, None)))\n"
            "print(json.dumps([res.statistic.hex(), res.pvalue.hex(), res.passed]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(qm.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code], env=env, capture_output=True,
            text=True, check=True, timeout=60,
        )
        statistic, pvalue, passed = json.loads(proc.stdout)
        samples = qm.NoiseSource(27).generator().exponential(1.03, size=10_000)
        ref = kstest(samples, exp_cdf, method="exact")
        assert float.fromhex(statistic) == ref.statistic
        assert float.fromhex(pvalue) == pytest.approx(ref.pvalue, rel=SMIRNOV_RTOL)
        assert passed is bool(ref.pvalue >= 0.01)
        # n > 140 and 2.2 <= n*d**2 < 370: the branch that calls smirnov
        assert 2.2 <= 10_000 * ref.statistic**2 < 370.0

    def test_nan_statistic_has_nan_survival(self):
        assert math.isnan(kolmogorov.kstwo_sf(math.nan, 100))

    @pytest.mark.parametrize("n", [100, 120, 141, 10_000, 50_000])
    def test_ks_compare_matches_scipy(self, n):
        rng = qm.NoiseSource(26, n).generator()
        for scale in (1.0, 1.02, 1.3):
            samples = rng.exponential(scale, size=n)
            with mock.patch.object(kolmogorov, "smirnov", wraps=kolmogorov.smirnov) as spy:
                res = qm.ks_compare(samples, exp_cdf)
            ref = kstest(samples, exp_cdf, method="exact")
            assert bits(res.statistic) == bits(ref.statistic)
            assert spy.called is ((n, scale) in KS_SMIRNOV_CASES)
            if spy.called:
                assert res.pvalue == pytest.approx(ref.pvalue, rel=SMIRNOV_RTOL)
            else:
                assert bits(res.pvalue) == bits(ref.pvalue)
            assert res.passed is bool(ref.pvalue >= 0.01)


#: the (n, scale) samples of test_ks_compare_matches_scipy whose p-value
#: comes from smirnov
KS_SMIRNOV_CASES = {(141, 1.02), (141, 1.3), (10_000, 1.0), (10_000, 1.3), (50_000, 1.02)}
