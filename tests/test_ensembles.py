"""Tests for the ensemble driver, analytic oracles, and KS machinery."""

from __future__ import annotations

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest, kstwo, norm

import qmengine as qm
from qmengine import kolmogorov
from qmengine.errors import (
    DegenerateWorkDistributionError,
    UnsupportedConfigurationError,
)
from qmengine.feedback import run_ensemble_arrays


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
        self.schedule = qm.sigma_schedule(qm.EngineConfig(nbar=0.0, dt=0.01))

    def test_normalized(self):
        total, _ = quad(lambda w: qm.exact_work_pdf(w, 1.0, self.schedule), 0.0, np.inf)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_mean_is_sigma_over_tau(self):
        mean, _ = quad(
            lambda w: w * qm.exact_work_pdf(w, 1.0, self.schedule), 0.0, np.inf
        )
        assert mean == pytest.approx(self.schedule.mean_work_at(1.0), rel=1e-8)
        assert self.schedule.mean_work_at(1.0) == pytest.approx(0.25, abs=1e-12)

    def test_negative_work_has_zero_density(self):
        assert qm.exact_work_pdf(-0.3, 1.0, self.schedule) == 0.0
        assert qm.exact_work_cdf(-0.3, 1.0, self.schedule) == 0.0

    def test_degenerate_scale_reported_distinctly(self):
        with pytest.raises(DegenerateWorkDistributionError):
            qm.exact_work_pdf(0.1, 0.0, self.schedule)
        # the distribution function is still well defined: a step at zero
        assert qm.exact_work_cdf(0.0, 0.0, self.schedule) == 1.0
        assert qm.exact_work_cdf(-1e-9, 0.0, self.schedule) == 0.0


    def test_no_measurement_is_a_point_mass_at_zero(self):
        schedule = qm.sigma_schedule(qm.EngineConfig(tau1=math.inf, tau2=math.inf, dt=0.01))
        assert schedule.mean_work_at(1.0) == 0.0
        assert qm.exact_work_cdf(0.0, 1.0, schedule) == 1.0
        assert qm.exact_work_cdf(-1e-9, 1.0, schedule) == 0.0
        with pytest.raises(DegenerateWorkDistributionError):
            qm.exact_work_pdf(0.1, 1.0, schedule)


class TestSigmaSchedule:
    def test_vacuum_gives_quarter_t(self):
        sched = qm.sigma_schedule(qm.EngineConfig(nbar=0.0, dt=0.01, t_final=5.0))
        assert np.allclose(sched.sigma, 0.25 * sched.t, atol=1e-12)

    def test_matches_closed_form_integral(self):
        dt = 2e-4
        sched = qm.sigma_schedule(qm.EngineConfig(nbar=1.0, dt=dt, t_final=2.0))
        exact = sigma_closed_form(3.0, 1.0, sched.t)
        assert np.abs(sched.sigma - exact).max() < 1e-6

    def test_monotone_with_steady_slope(self):
        sched = qm.sigma_schedule(qm.EngineConfig(nbar=1.0, dt=0.01, t_final=20.0))
        assert np.all(np.diff(sched.sigma) >= 0.0)
        late_slope = (sched.sigma_at(20.0) - sched.sigma_at(19.0)) / 1.0
        assert late_slope == pytest.approx(0.25, abs=1e-4)

    def test_asymmetric_channels_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            qm.sigma_schedule(qm.EngineConfig(tau2=0.9, dt=0.01))

    def test_per_step_scale(self):
        sched = qm.sigma_schedule(qm.EngineConfig(nbar=0.0, dt=0.01), policy="per-step")
        assert sched.sigma_at(1.0) == pytest.approx(0.25 * 0.01, rel=1e-12)

    def test_off_grid_time_rejected(self):
        sched = qm.sigma_schedule(qm.EngineConfig(nbar=0.0, dt=0.01))
        with pytest.raises(ValueError):
            sched.sigma_at(0.0147)


class TestRunEnsemble:
    def test_single_trajectory_matches_scalar_runner(self):
        for policy in ("terminal", "per-step"):
            cfg = qm.EngineConfig(
                nbar=0.5, dt=0.01, t_final=1.0, n_traj=1, policy=policy, seed=77
            )
            stats = qm.run_ensemble(cfg)
            rec = qm.run_trajectory(cfg, qm.NoiseSource(77, 0))
            if policy == "terminal":
                assert stats.samples[0] == rec.extracted[-1]
            else:
                assert stats.samples[0] == rec.extracted[-1]

    def test_histogram_mass_equals_ensemble_size(self):
        cfg = qm.EngineConfig(nbar=0.0, dt=0.01, t_final=1.0, n_traj=2000, seed=1)
        stats = qm.run_ensemble(cfg)
        assert stats.counts.sum() == stats.n_traj == 2000
        assert stats.mean >= 0.0

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
        sched = qm.sigma_schedule(cfg)
        for i, t in enumerate(grid):
            assert abs(series.mean[i] - sched.mean_work_at(t)) <= 3.0 * series.stderr[i]
        assert series.mean[1] > series.mean[0]

    def test_requires_terminal_policy(self):
        cfg = qm.EngineConfig(policy="per-step")
        with pytest.raises(UnsupportedConfigurationError):
            qm.mean_work_curve(cfg, [0.5])


class TestPowerSeries:
    def test_steady_state_value(self):
        cfg = qm.EngineConfig(nbar=0.0, dt=0.01)
        series = qm.power_series(cfg, [0.5, 1.0])
        assert np.allclose(series.power, 0.25, atol=1e-12)

    def test_thermal_start_decreases_to_steady_state(self):
        cfg = qm.EngineConfig(nbar=1.0, dt=0.01)
        grid = np.round(np.arange(0.0, 10.0 + 1e-9, 0.5), 10)
        series = qm.power_series(cfg, grid)
        assert np.all(np.diff(series.power) < 0.0)
        assert series.power[0] == pytest.approx(2.25, abs=1e-12)  # nu(0)^2 = 1.5^2
        assert series.power[-1] == pytest.approx(0.25, abs=1e-3)

    def test_faster_measurement_doubles_steady_power(self):
        slow = qm.power_series(qm.EngineConfig(nbar=0.0, tau1=1.0, tau2=1.0, dt=0.005), [1.0])
        fast = qm.power_series(qm.EngineConfig(nbar=0.0, tau1=0.5, tau2=0.5, dt=0.005), [1.0])
        assert fast.power[0] == pytest.approx(2.0 * slow.power[0], rel=1e-9)

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
        series = qm.efficiency_series(cfg, [1.0, 5.0])
        # vacuum + symmetric channels: covariance excess is identically zero
        assert series.eta[0] == 1.0 and series.eta[1] == 1.0
        assert series.stderr[0] == 0.0

    def test_thermal_start_efficiency_rises_from_variance_cost(self):
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.01, t_final=10.0, n_traj=2000, policy="per-step", seed=19
        )
        series = qm.efficiency_series(cfg, [0.01, 1.0, 10.0])
        # just after the start Q is dominated by the thermal variance excess
        assert series.eta[0] < 0.05
        assert np.all(np.diff(series.eta) > 0.0)
        assert series.eta[-1] > 0.9

    def test_asymmetric_channels_stay_below_unity(self):
        cfg = qm.EngineConfig(
            nbar=0.0, tau2=0.9, dt=0.01, t_final=15.0, n_traj=2000,
            policy="per-step", seed=20,
        )
        series = qm.efficiency_series(cfg, [15.0])
        assert 1.0 - series.eta[0] > 3.0 * series.stderr[0]

    def test_requires_per_step_policy(self):
        with pytest.raises(UnsupportedConfigurationError):
            qm.efficiency_series(qm.EngineConfig(policy="terminal"), [1.0])


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


class TestKolmogorovPort:
    @pytest.mark.parametrize(
        "n,d,helper", list(SF_BRANCHES.values()), ids=list(SF_BRANCHES)
    )
    def test_survival_function_matches_scipy_bit_for_bit(self, n, d, helper):
        spies = {
            name: mock.patch.object(
                kolmogorov, name, wraps=getattr(kolmogorov, name)
            )
            for name in HELPERS
        }
        with contextlib.ExitStack() as stack:
            called = {name: stack.enter_context(spy) for name, spy in spies.items()}
            sf = kolmogorov.kstwo_sf(d, n)
        assert bits(sf) == bits(kstwo.sf(d, n))
        assert {name for name, spy in called.items() if spy.called} == (
            {helper} if helper else set()
        )

    def test_nan_statistic_has_nan_survival(self):
        assert math.isnan(kolmogorov.kstwo_sf(math.nan, 100))

    @pytest.mark.parametrize("n", [100, 120, 141, 10_000, 50_000])
    def test_ks_compare_matches_scipy_bit_for_bit(self, n):
        rng = qm.NoiseSource(26, n).generator()
        for scale in (1.0, 1.02, 1.3):
            samples = rng.exponential(scale, size=n)
            res = qm.ks_compare(samples, exp_cdf)
            ref = kstest(samples, exp_cdf, method="exact")
            assert bits(res.statistic) == bits(ref.statistic)
            assert bits(res.pvalue) == bits(ref.pvalue)
            assert res.passed is bool(ref.pvalue >= 0.01)
