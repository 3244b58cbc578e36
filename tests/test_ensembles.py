"""Tests for the ensemble driver, analytic oracles, and KS machinery."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, kstwo, norm

from closed_forms import sigma_closed_form

import qmengine as qm
from qmengine import ensembles
from qmengine.feedback import run_ensemble_arrays
from qmengine.gaussian import NO_MEASUREMENT_TAU, covariance_series


def exp_cdf(w):
    return 1.0 - np.exp(-np.clip(w, 0, None))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


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

    @pytest.mark.parametrize("law", ["pdf", "cdf"])
    def test_exp_is_libms_element_by_element(self, law):
        # numpy's vectorised exp follows its SIMD dispatch; math.exp does not
        rate = self.rate[self.k]
        w = qm.NoiseSource(28).generator().exponential(1.0 / rate, size=(3, 1_000))
        if law == "pdf":
            values, ref = qm.exact_work_pdf(w, rate), [rate * math.exp(-rate * x) for x in w.flat]
        else:
            values, ref = qm.exact_work_cdf(w, rate), [1.0 - math.exp(-rate * x) for x in w.flat]
        assert values.shape == w.shape
        assert values.tobytes() == np.array(ref).tobytes()

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
        with pytest.raises(ValueError, match="sigma schedule requires symmetric channels"):
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
        with pytest.raises(ValueError, match="mean work curve is defined for the terminal"):
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
        with pytest.raises(ValueError, match="efficiency series is defined for the per-step"):
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


#: A point (n, D) in each regime of scipy's kstwo.sf, the exact law the
#: bound is held against: its closed forms at the ends of the range, the
#: Durbin matrix, Pomeranz and Pelz-Good algorithms for n <= 10**5, the
#: Birnbaum-Tingey sum, and the asymptotic forms above 10**5 and 10**6
KS_REGIMES = {
    "d-at-most-half-over-n": (100, 0.005),
    "nd-at-most-1": (100, 0.008),
    "nd-at-most-1-n>140": (200, 0.004),
    "d-at-least-one": (100, 1.0),
    "nd-at-least-n-1": (100, 0.995),
    "d-at-least-half": (100, 0.6),
    "n<=140-dmtw": (100, 0.08),
    "n<=140-dmtw-edge": (100, 0.086),
    "n<=140-pomeranz": (100, 0.15),
    "n<=140-smirnov": (140, 0.25),
    "n>140-ndd>=370": (10_000, 0.2),
    "n>140-ndd>=2.2-smirnov": (10_000, 0.02),
    "n>140-dmtw": (141, 0.02),
    "n>140-dmtw-rescaled": (10_000, 0.0025),
    "n>140-dmtw-n=1e5": (100_000, 0.00025),
    "n>140-pelz-good": (141, 0.05),
    "n>140-pelz-good-wide": (10_000, 0.01),
    "n>1e5-pelz-good": (200_000, 0.002),
    "n>1e5-pelz-good-edge": (100_001, 0.00025),
    "n>1e5-pelz-good-underflow": (200_000, 7.5e-6),
    "n>1e6-asymptotic": (10**6 + 1, math.sqrt(3.7 / (10**6 + 1))),
}


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
        with pytest.raises(ValueError, match="need at least 100 samples, got 0"):
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
            assert_matches_kstest(res, samples, cdf)

    def test_nan_statistic_has_nan_p_value_and_does_not_pass(self):
        samples = qm.NoiseSource(25).generator().exponential(1.0, size=500)
        res = qm.ks_compare(samples, lambda w: np.full_like(w, np.nan))
        assert math.isnan(res.statistic) and math.isnan(res.pvalue)
        assert res.passed is False

    @pytest.mark.parametrize("n", [100, 120, 141, 10_000, 50_000])
    def test_ks_compare_matches_scipy(self, n):
        rng = qm.NoiseSource(26, n).generator()
        for scale in (1.0, 1.02, 1.3):
            assert_matches_kstest(
                qm.ks_compare(samples := rng.exponential(scale, size=n), exp_cdf),
                samples, exp_cdf,
            )

    @pytest.mark.parametrize("n", [100, 141, 1_000, 10_000])
    def test_bound_is_never_below_the_exact_p_value_and_falls_with_d(self, n):
        # kstwo.sf takes about 0.15 s a call at n = 2*10**5, so the grid stops
        # at 10**4; test_ks_compare_matches_scipy reaches 5*10**4
        results = [qm.ks_compare(*sample_at(n, t / math.sqrt(n))) for t in np.linspace(0.2, 3.2, 61)]
        statistics = [res.statistic for res in results]
        pvalues = [res.pvalue for res in results]
        assert statistics == sorted(statistics)
        assert all(a >= b for a, b in zip(pvalues, pvalues[1:]))
        for res in results:
            assert_bounds_kstwo(res, n)

    @pytest.mark.parametrize("n,d", KS_REGIMES.values(), ids=KS_REGIMES.keys())
    def test_bound_is_never_below_the_exact_p_value_in_each_regime(self, n, d):
        res = qm.ks_compare(*sample_at(n, d))
        assert res.statistic == pytest.approx(max(d, 1.0 / n - d), rel=1e-9)
        assert_bounds_kstwo(res, n)

    @pytest.mark.parametrize("n", [141, 1_000, 10_000, 100_000, 200_000])
    def test_bound_is_never_below_the_exact_p_value_in_the_tail(self, n):
        # n*D**2 from 2.2 (p ~ 0.02) to p ~ 1e-10, and D >= 1/2
        for d in [*np.sqrt(np.array([2.2, 3.0, 5.0, 8.0, 12.0]) / n), 0.5, 0.7]:
            assert_bounds_kstwo(qm.ks_compare(*sample_at(n, d)), n)

    @pytest.mark.filterwarnings("error")
    def test_bound_on_the_1_over_n_lattice(self):
        # D = k/n is where the exact law of D_n has its atoms of probability
        n = 141
        results = [qm.ks_compare(*sample_at(n, k / n)) for k in range(18, 140)]
        pvalues = [res.pvalue for res in results]
        assert all(a >= b for a, b in zip(pvalues, pvalues[1:]))
        for res in results:
            assert_bounds_kstwo(res, n)

    @pytest.mark.parametrize("n", [100, 141, 1_000, 10_000, 50_000, 200_000])
    def test_decision_band_holds_the_exact_p_value_where_the_bound_is_1_percent(self, n):
        # the bound reaches KS_LEVEL at D = sqrt(log(200) / (2n)); the exact
        # p-value there is the lowest whose decision the bound can move
        d = math.sqrt(math.log(200.0) / (2 * n))
        assert min(2.0 * math.exp(-2.0 * n * d * d), 1.0) == pytest.approx(0.01, rel=1e-12)
        assert in_decision_band(kstwo.sf(d, n), n)
        assert not in_decision_band(0.01, n)

    def test_runs_with_scipy_blocked(self):
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
        res = qm.KsResult(float.fromhex(statistic), float.fromhex(pvalue), passed)
        assert res == qm.ks_compare(samples, exp_cdf)
        assert_matches_kstest(res, samples, exp_cdf)


def uniform_cdf(w):
    return np.clip(w, 0.0, 1.0)


def sample_at(n: int, d: float):
    """Sorted samples i/n - d and the uniform law on [0, 1]: D_n is
    max(d, 1/n - d), up to rounding."""
    return np.arange(1.0, n + 1) / n - d, uniform_cdf


def assert_bounds_kstwo(res, n: int) -> None:
    """The bound at D_n, at or above the exact p-value there, with the same
    1% decision but for fail -> pass inside the band."""
    d = res.statistic
    exact = kstwo.sf(d, n)
    assert res.pvalue == min(2.0 * math.exp(-2.0 * n * d * d), 1.0)
    assert res.pvalue >= exact
    assert res.passed is bool(exact >= 0.01) or in_decision_band(exact, n)


#: Floors of the exact p-values whose 1% decision the bound moves, by the
#: smallest n they hold for: the decision moves, from fail to pass, where
#: 2*exp(-2*n*D**2) >= 0.01 > Pr(D_n >= D), i.e. at most for exact p-values
#: from kstwo.sf(sqrt(log(200) / (2n)), n) up to 0.01 (0.00879 at n = 100,
#: 0.00964 at 10**3, 0.00989 at 10**4, 0.00995 at 5*10**4)
KS_DECISION_BAND = {100: 0.0087, 1_000: 0.0096, 10_000: 0.0098, 50_000: 0.0099}


def in_decision_band(exact: float, n: int) -> bool:
    """Whether an exact p-value lies where the bound may pass a failing test."""
    floor = max(v for size, v in KS_DECISION_BAND.items() if size <= n)
    return floor <= exact < 0.01


def assert_matches_kstest(res, samples, cdf) -> None:
    """D_n bit for bit as kstest's, a p-value bound at or above kstest's exact
    one, and the same 1% decision but for fail -> pass inside the band."""
    ref = kstest(samples, cdf, method="exact")
    n, d = len(samples), res.statistic
    assert bits(d) == bits(ref.statistic)
    assert res.pvalue == min(2.0 * math.exp(-2.0 * n * d * d), 1.0)
    assert res.pvalue >= ref.pvalue
    assert res.passed is bool(ref.pvalue >= 0.01) or in_decision_band(ref.pvalue, n)
