"""Tests for the thermal start, covariance flow, readouts, and mean updates.

Readouts are checked through run_trajectory; the mean update is driven
through the step kernel with injected noise.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmengine as qm
from qmengine.errors import UncertaintyViolationError
from qmengine.feedback import _advance, _noise_block
from qmengine.gaussian import UNCERTAINTY_TOL


def riccati_q3_closed_form(q3_0: float, tau: float, t: float) -> float:
    """Closed-form solution of dq3/dt = (1 - q3**2)/(2 tau) for q3(0) >= 1."""
    if q3_0 == 1.0:
        return 1.0
    c = 2.0 * tau * math.atanh(1.0 / q3_0)
    return 1.0 / math.tanh((t + c) / (2.0 * tau))


class TestThermalState:
    """The thermal start: row 0 of the covariance series, zero means."""

    def test_vacuum_saturates_uncertainty(self):
        rec = qm.run_trajectory(
            qm.EngineConfig(dt=0.01, t_final=0.1, policy="none"), qm.NoiseSource(0)
        )
        assert (rec.q1[0], rec.q2[0], rec.q3[0], rec.q4[0], rec.q5[0]) == (
            0.0, 0.0, 1.0, 0.0, 1.0
        )
        assert rec.q3[0] * rec.q5[0] - rec.q4[0] ** 2 == 1.0

    def test_half_quantum(self):
        cov = qm.covariance_series(0.5, qm.MeasurementChannels(1.0, 1.0), 0.01, 0)
        assert cov.shape == (1, 3)
        assert tuple(cov[0]) == (2.0, 0.0, 2.0)

    def test_two_quanta_matches_quadrature_variance(self):
        q3, _, q5 = qm.covariance_series(2.0, qm.MeasurementChannels(1.0, 1.0), 0.01, 0)[0]
        # 2*var(x) of a thermal Gaussian with var = (2*nbar + 1)/2 per quadrature
        assert q3 == 2.0 * (2.0 * 2.0 + 1.0) / 2.0 == 5.0
        assert q5 == 5.0

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValueError, match="occupation"):
            qm.covariance_series(-0.1, qm.MeasurementChannels(1.0, 1.0), 0.01, 10)


class TestCovarianceFlow:
    def test_vacuum_is_fixed_point_bitwise(self):
        ch = qm.MeasurementChannels(1.3, 1.3)
        cov = qm.covariance_series(0.0, ch, 0.01, 50)
        assert np.all(cov == [1.0, 0.0, 1.0])

    def test_matches_closed_form(self):
        # nbar=1 start (q3=3), symmetric tau=1, integrate to t=2
        ch = qm.MeasurementChannels(1.0, 1.0)
        cov = qm.covariance_series(1.0, ch, 5e-4, 4000)
        expected = riccati_q3_closed_form(3.0, 1.0, 2.0)
        assert cov[-1, 0] == pytest.approx(expected, rel=1e-6)
        assert cov[-1, 2] == pytest.approx(expected, rel=1e-6)

    def test_closed_form_against_brute_force_euler(self):
        # independent fine-step Euler integration of the scalar flow
        q3, tau, dt = 3.0, 1.0, 2e-5
        for _ in range(int(2.0 / dt)):
            q3 += dt * (1.0 - q3 * q3) / (2.0 * tau)
        assert q3 == pytest.approx(riccati_q3_closed_form(3.0, tau, 2.0), abs=5e-5)

    def test_monotone_decay_to_steady_state(self):
        ch = qm.MeasurementChannels(1.0, 1.0)
        cov = qm.covariance_series(2.0, ch, 0.01, 2000)
        q3 = cov[:, 0]
        assert np.all(np.diff(q3) < 0.0)
        assert q3[-1] > 1.0

    @pytest.mark.parametrize("q3_0", [1.0, 2.0, 5.0, 10.0])
    def test_fixed_point_reached_from_any_start(self, q3_0):
        tau = 1.0
        ch = qm.MeasurementChannels(tau, tau)
        nbar = 0.5 * (q3_0 - 1.0)  # q3(0) = 2*nbar + 1
        cov = qm.covariance_series(nbar, ch, 0.01, int(20.0 * tau / 0.01))
        assert cov[0, 0] == q3_0
        assert abs(cov[-1, 0] - 1.0) < 1e-3

    def test_oversized_step_raises(self):
        ch = qm.MeasurementChannels(1.0, 1.0)
        with pytest.raises(UncertaintyViolationError):
            qm.covariance_series(3.0, ch, 10.0, 1)

    @pytest.mark.parametrize("dt", [0.0, -0.01])
    def test_nonpositive_step_rejected(self, dt):
        with pytest.raises(ValueError, match="step length"):
            qm.covariance_series(1.0, qm.MeasurementChannels(1.0, 1.0), dt, 10)

    def test_normal_form_preserved_exactly(self):
        # tau1 == tau2 with q4(0) = 0 and q3(0) = q5(0)
        ch = qm.MeasurementChannels(0.7, 0.7)
        dt = 0.005
        cov = qm.covariance_series(1.5, ch, dt, 2000)
        assert np.abs(cov[:, 1]).max() <= 10.0 * dt
        assert np.abs(cov[:, 0] - cov[:, 2]).max() <= 10.0 * dt
        # the scheme actually preserves the normal form bitwise
        assert np.abs(cov[:, 1]).max() == 0.0
        assert np.abs(cov[:, 0] - cov[:, 2]).max() == 0.0

    def test_uncertainty_bound_asymmetric_channels(self):
        tau1, tau2 = 1.0, 0.7
        ch = qm.MeasurementChannels(tau1, tau2)
        dt = min(tau1, tau2) / 50.0
        cov = qm.covariance_series(2.0, ch, dt, int(10.0 / dt))
        det = cov[:, 0] * cov[:, 2] - cov[:, 1] ** 2
        assert det.min() >= 1.0 - 1e-6

    def test_flow_is_noise_independent(self):
        cfg = qm.EngineConfig(nbar=1.0, dt=0.01, t_final=1.0, policy="none", seed=0)
        a = qm.run_trajectory(cfg, qm.NoiseSource(0, 0))
        b = qm.run_trajectory(cfg, qm.NoiseSource(12345, 6))
        assert np.array_equal(a.q3, b.q3)
        assert np.array_equal(a.q4, b.q4)
        assert np.array_equal(a.q5, b.q5)

    @given(
        nbar=st.floats(0.0, 10.0),
        tau=st.floats(0.2, 5.0),
        ratio=st.floats(0.5, 2.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_physicality_preserved_property(self, nbar, tau, ratio):
        ch = qm.MeasurementChannels(tau, tau * ratio)
        dt = min(ch.tau1, ch.tau2) / 100.0
        cov = qm.covariance_series(nbar, ch, dt, 25)
        q3, q4, q5 = cov.T
        assert np.all(q3 > 0.0) and np.all(q5 > 0.0)
        assert np.all(q3 * q5 - q4 * q4 >= 1.0 - UNCERTAINTY_TOL)


def trajectory(seed, stream=0, **overrides):
    fields = dict(dt=0.01, t_final=0.5, policy="none", seed=seed) | overrides
    return qm.run_trajectory(qm.EngineConfig(**fields), qm.NoiseSource(seed, stream))


def advance(cfg, noise, start, record):
    """Drive the step kernel on cfg's covariance flow with the given noise."""
    n_steps = noise.shape[1]
    cov = qm.covariance_series(cfg.nbar, cfg.channels(), cfg.resolved_dt, n_steps)
    return _advance(cfg, cov, noise, start, record)


class TestReadout:
    def test_noise_variance_and_mean(self):
        # 10^4 steps on two channels: 2 * 10^4 readout excesses r_i - q_i
        rec = trajectory(8, tau1=2.0, tau2=2.0, t_final=100.0)
        excess = np.concatenate([rec.r1 - rec.q1[:-1], rec.r2 - rec.q2[:-1]])
        assert len(excess) == 20000
        assert np.var(excess) == pytest.approx(2.0 / 0.01, rel=0.05)
        assert np.mean(excess) == pytest.approx(0.0, abs=3.0 * math.sqrt(200.0 / 20000))

    def test_fixed_seed_reproduces_sequence(self):
        a, b = trajectory(99, 3), trajectory(99, 3)
        assert np.array_equal(a.r1, b.r1)
        assert np.array_equal(a.r2, b.r2)

    def test_distinct_streams_differ(self):
        a, b = trajectory(99, 0), trajectory(99, 1)
        assert a.r1[0] != b.r1[0] and a.r2[0] != b.r2[0]

    def test_unmonitored_channel_is_silent(self):
        rec = trajectory(1, tau2=math.inf)
        assert np.all(rec.r2 == rec.q2[:-1])
        assert np.all(rec.r1 != rec.q1[:-1])


class TestMeanStep:
    def test_free_evolution_rotation(self):
        # zero-innovation readouts: pure harmonic rotation by t = pi/2
        cfg = qm.EngineConfig(dt=1e-3, policy="none")
        n = 1571
        steps = advance(cfg, np.zeros((1, n, 2)), (1.0, 0.0), [n])
        t = n * cfg.resolved_dt
        assert steps.q1[0, 0] == pytest.approx(math.cos(t), abs=10.0 * cfg.resolved_dt)
        assert steps.q2[0, 0] == pytest.approx(-math.sin(t), abs=10.0 * cfg.resolved_dt)

    def test_single_step_substitution(self):
        # q1 = q2 = 0, one step with g1 = 1, g2 = 0, q3 = 1, q4 = 0
        tau, dt = 1.0, 0.01
        cfg = qm.EngineConfig(nbar=0.0, tau1=tau, tau2=tau, dt=dt, policy="none")
        steps = advance(cfg, np.array([[[1.0, 0.0]]]), (0.0, 0.0), [1])
        assert steps.r1[0, 0] == math.sqrt(tau / dt)
        assert steps.q1[0, 0] == pytest.approx(0.5 * math.sqrt(dt / tau), rel=1e-12)
        assert steps.q2[0, 0] == 0.0

    def test_ensemble_mean_follows_free_rotation(self):
        # Monte Carlo average over 10^4 noisy realizations tracks the
        # measurement-free rotation of the initial means.
        cfg = qm.EngineConfig(
            nbar=0.0, dt=1e-3, t_final=2.0, n_traj=10_000, policy="none", seed=21
        )
        t_obs = 1.571
        n = cfg.step_index(t_obs)
        q1, q2 = [], []
        for start in range(0, cfg.n_traj, 1000):
            noise = _noise_block(qm.NoiseSource(cfg.seed), start, start + 1000, n)
            steps = advance(cfg, noise, (1.0, 0.0), [n])
            q1.append(steps.q1[0])
            q2.append(steps.q2[0])
        q1, q2 = np.concatenate(q1), np.concatenate(q2)
        se1 = q1.std(ddof=1) / math.sqrt(cfg.n_traj)
        se2 = q2.std(ddof=1) / math.sqrt(cfg.n_traj)
        drift_allowance = 5.0 * cfg.resolved_dt
        assert abs(q1.mean() - math.cos(t_obs)) <= 3.0 * se1 + drift_allowance
        assert abs(q2.mean() + math.sin(t_obs)) <= 3.0 * se2 + drift_allowance


class TestConvergenceOrder:
    def test_halving_dt_reduces_strong_error(self):
        """Successive-difference ratios under dt halving on shared noise.

        The diffusion coefficients depend only on the deterministic
        covariances, so Euler-Maruyama converges with strong order ~1 here
        (median ratio ~2); the test floor of 1.3 also covers the generic
        order-1/2 behaviour (ratio sqrt(2)).
        """

        def final_means(dt, steps, g, tau=1.0, nbar=1.0):
            cfg = qm.EngineConfig(nbar=nbar, tau1=tau, tau2=tau, dt=dt, policy="none")
            out = advance(cfg, g[np.newaxis], (0.0, 0.0), [steps])
            return np.array([out.q1[0, 0], out.q2[0, 0]])

        rng = np.random.default_rng(77)
        dt0, T = 0.02, 1.0
        ratios = []
        for _ in range(40):
            fine = rng.standard_normal((int(T / dt0) * 4, 2))

            def agg(m):
                return fine.reshape(-1, m, 2).sum(axis=1) / math.sqrt(m)

            qa = final_means(dt0, int(T / dt0), agg(4))
            qb = final_means(dt0 / 2, int(T / dt0) * 2, agg(2))
            qc = final_means(dt0 / 4, int(T / dt0) * 4, fine)
            ratios.append(np.linalg.norm(qa - qb) / np.linalg.norm(qb - qc))
        median = float(np.median(ratios))
        assert median >= 1.3  # at least order-1/2 convergence
        assert 1.5 <= median <= 3.0  # measured: additive noise gives order ~1
