"""Tests for the step kernel, work ledgers, resets, and trajectory drivers."""

from __future__ import annotations

import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmengine as qm
from qmengine import feedback
from qmengine.errors import UnsupportedConfigurationError
from qmengine.feedback import _advance, _noise_block, run_ensemble_arrays


def constant_cov(q3, q4, q5, n_steps):
    """A fixed covariance triplet at every grid point, for single-step checks."""
    return np.tile([q3, q4, q5], (n_steps + 1, 1))


class TestStratonovichLedger:
    def test_zero_means_zero_increment(self):
        # zero means before and after the step: the midpoint rule banks nothing
        cfg = qm.EngineConfig(dt=0.01, policy="none")
        cov = constant_cov(1.0, 0.0, 1.0, 1)
        steps = _advance(cfg, cov, np.zeros((3, 1, 2)), (0.0, 0.0), [1])
        assert np.all(steps.q1 == 0.0) and np.all(steps.q2 == 0.0)
        assert np.all(steps.increment == 0.0)

    def test_cumulative_tracks_displacement_energy(self):
        # along a no-feedback path from the origin the ledger telescopes to
        # (q1^2 + q2^2)/2 up to O(dt)
        for dt in (0.01, 0.0025):
            cfg = qm.EngineConfig(
                nbar=0.0, dt=dt, t_final=2.0, n_traj=30, policy="none", seed=3
            )
            rec = run_ensemble_arrays(cfg, [2.0])
            gap = np.abs(rec.ledger_cum[0] - rec.displacement_energy[0])
            assert gap.max() <= 10.0 * dt

    def test_ensemble_mean_matches_accumulated_power(self):
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.0025, t_final=1.0, n_traj=4000, policy="none", seed=31
        )
        rec = run_ensemble_arrays(cfg, [1.0])
        w = rec.ledger_cum[0]
        se = w.std(ddof=1) / math.sqrt(len(w))
        schedule = qm.sigma_schedule(1.0, cfg.channels(), cfg.resolved_dt, 1.0)
        assert abs(w.mean() - schedule.mean_work_at(1.0)) <= 3.0 * se


class TestItoLedger:
    def test_drift_exact_at_zero_means(self):
        cfg = qm.EngineConfig(dt=0.01, policy="none", scheme="ito")
        noise = qm.NoiseSource(42).generator().standard_normal((20, 1, 2))
        steps = _advance(cfg, constant_cov(1.4, 0.0, 1.4, 1), noise, (0.0, 0.0), [1])
        nu = 0.7
        assert np.all(steps.increment == nu * nu / cfg.tau1 * cfg.resolved_dt)

    def test_expectation_is_power_drift(self):
        cfg = qm.EngineConfig(dt=0.01, policy="none", scheme="ito")
        noise = qm.NoiseSource(43).generator().standard_normal((20000, 1, 2))
        steps = _advance(cfg, constant_cov(1.4, 0.0, 1.4, 1), noise, (0.3, -0.2), [1])
        incs = steps.increment[0]
        drift = 0.7**2 / cfg.tau1 * cfg.resolved_dt
        se = incs.std(ddof=1) / math.sqrt(len(incs))
        assert abs(incs.mean() - drift) <= 3.0 * se

    def test_asymmetric_channels_rejected(self):
        cfg = qm.EngineConfig(tau1=1.0, tau2=0.9, dt=0.01, scheme="ito")
        with pytest.raises(UnsupportedConfigurationError):
            qm.run_trajectory(cfg, qm.NoiseSource(0))

    def test_non_normal_form_rejected(self):
        cfg = qm.EngineConfig(dt=0.01, policy="none", scheme="ito")
        with pytest.raises(UnsupportedConfigurationError):
            cov = constant_cov(1.5, 0.3, 1.5, 1)
            _advance(cfg, cov, np.zeros((1, 1, 2)), (0.0, 0.0), [1])

    def test_per_step_run_increments_equal_power_drift(self):
        # per-step policy resets the means, so every Ito ledger increment is
        # exactly nu_k^2/tau * dt
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.01, t_final=0.5, policy="per-step", scheme="ito", seed=2
        )
        rec = qm.run_trajectory(cfg, qm.NoiseSource(2))
        nu = 0.5 * rec.q3[:-1]
        assert np.array_equal(rec.ledger.increments, nu * nu / cfg.tau1 * cfg.resolved_dt)


class TestReset:
    def test_zero_state(self):
        state, extracted = qm.apply_reset(qm.thermal_state(0.0))
        assert extracted == 0.0
        assert (state.q1, state.q2) == (0.0, 0.0)

    def test_unit_displacement(self):
        state, extracted = qm.apply_reset(qm.GaussianState(1.0, 1.0, 1.3, 0.1, 1.5))
        assert extracted == 1.0
        assert (state.q1, state.q2) == (0.0, 0.0)

    def test_covariances_bit_identical(self):
        before = qm.GaussianState(0.4, -2.2, 1.234567, -0.0456, 1.87654)
        after, _ = qm.apply_reset(before)
        assert (after.q3, after.q4, after.q5) == (before.q3, before.q4, before.q5)


class TestRunTrajectory:
    def test_unmonitored_channels_give_zero_work(self):
        cfg = qm.EngineConfig(
            nbar=1.0, tau1=1e13, tau2=1e13, dt=0.01, t_final=1.0, policy="none", seed=9
        )
        rec = qm.run_trajectory(cfg, qm.NoiseSource(9))
        assert np.all(rec.ledger.increments == 0.0)
        assert np.all(rec.r1 == rec.q1[:-1])
        assert np.all(rec.q1 == 0.0)  # rotation of zero means

    def test_unmonitored_rotation_of_displaced_start(self):
        cfg = qm.EngineConfig(
            nbar=0.0, tau1=1e13, tau2=1e13, dt=0.001, t_final=1.571,
            n_traj=1, policy="none", seed=0,
        )
        n = cfg.n_steps
        cov = qm.covariance_series(
            qm.thermal_state(0.0), cfg.channels(), cfg.resolved_dt, n
        )
        noise = _noise_block(qm.NoiseSource(cfg.seed), 0, 1, n)
        steps = _advance(cfg, cov, noise, (1.0, 0.0), [n])
        assert steps.q1[0, 0] == pytest.approx(math.cos(1.571), abs=0.01)
        assert steps.q2[0, 0] == pytest.approx(-math.sin(1.571), abs=0.01)
        assert steps.ledger[0, 0] == 0.0

    def test_terminal_harvest_is_conserved_bit_exactly(self):
        cfg = qm.EngineConfig(nbar=0.5, dt=0.005, t_final=1.0, policy="terminal", seed=6)
        rec = qm.run_trajectory(cfg, qm.NoiseSource(6))
        assert rec.extracted[-1] == 0.5 * (rec.q1[-1] ** 2 + rec.q2[-1] ** 2)
        assert not rec.extracted[:-1].any()

    def test_per_step_harvests_every_step(self):
        cfg = qm.EngineConfig(nbar=0.0, dt=0.01, t_final=0.5, policy="per-step", seed=7)
        rec = qm.run_trajectory(cfg, qm.NoiseSource(7))
        assert np.all(rec.extracted > 0.0)
        expected = 0.5 * (rec.q1[1:] ** 2 + rec.q2[1:] ** 2)
        assert np.array_equal(rec.extracted, expected)

    def test_per_step_means_recenter_on_origin(self):
        # ensemble average of the pre-reset displacement stays at the origin
        cfg = qm.EngineConfig(
            nbar=0.0, dt=0.01, t_final=1.0, n_traj=4000, policy="per-step", seed=8
        )
        rec = run_ensemble_arrays(cfg, [0.5, 1.0])
        for i in range(2):
            se = rec.q1[i].std(ddof=1) / math.sqrt(cfg.n_traj)
            assert abs(rec.q1[i].mean()) <= 4.0 * se
            assert abs(rec.q2[i].mean()) <= 4.0 * se

    def test_record_shapes(self):
        cfg = qm.EngineConfig(nbar=1.0, dt=0.01, t_final=0.3, policy="terminal", seed=5)
        rec = qm.run_trajectory(cfg, qm.NoiseSource(5))
        n = cfg.n_steps
        assert len(rec.t) == len(rec.q1) == len(rec.q5) == n + 1
        assert len(rec.r1) == n == len(rec.ledger.increments) == len(rec.extracted)

    def test_same_stream_reproduces_record(self):
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.5, policy="terminal", seed=44)
        a = qm.run_trajectory(cfg, qm.NoiseSource(44, 2))
        b = qm.run_trajectory(cfg, qm.NoiseSource(44, 2))
        assert np.array_equal(a.q1, b.q1)
        assert np.array_equal(a.r2, b.r2)
        assert np.array_equal(a.ledger.cumulative, b.ledger.cumulative)


class TestSchemeEquivalence:
    def test_cumulative_means_agree(self):
        times = [0.5, 1.0]
        means = {}
        errs = {}
        for scheme, seed in (("stratonovich", 51), ("ito", 52)):
            cfg = qm.EngineConfig(
                nbar=1.0, dt=0.0025, t_final=1.0, n_traj=4000,
                policy="none", scheme=scheme, seed=seed,
            )
            rec = run_ensemble_arrays(cfg, times)
            means[scheme] = rec.ledger_cum.mean(axis=1)
            errs[scheme] = rec.ledger_cum.std(axis=1, ddof=1) / math.sqrt(cfg.n_traj)
        gap = np.abs(means["stratonovich"] - means["ito"])
        combined = np.hypot(errs["stratonovich"], errs["ito"])
        assert np.all(gap <= 3.0 * combined)


ENSEMBLE_FIELDS = (
    "times", "cov", "ledger_cum", "extracted_cum", "displacement_energy",
    "step_work", "q1", "q2",
)
CHUNK_CONFIGS = {
    policy: qm.EngineConfig(
        nbar=0.5, dt=0.01, t_final=0.2, n_traj=11, policy=policy, seed=13
    )
    for policy in ("terminal", "per-step", "none")
}


@functools.cache
def default_chunking(policy):
    return run_ensemble_arrays(CHUNK_CONFIGS[policy], [0.0, 0.1, 0.2])


class TestChunkInvariance:
    @given(chunk=st.integers(1, 14), policy=st.sampled_from(sorted(CHUNK_CONFIGS)))
    @settings(max_examples=30, deadline=None)
    def test_records_bit_identical_under_any_chunking(self, chunk, policy):
        with mock.patch.object(feedback, "_chunk_size", lambda n_traj, n_steps: chunk):
            rec = run_ensemble_arrays(CHUNK_CONFIGS[policy], [0.0, 0.1, 0.2])
        ref = default_chunking(policy)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_trajectory_is_the_single_member_case(self):
        # trajectory j of an ensemble is run_trajectory on stream (seed, j)
        cfg = CHUNK_CONFIGS["per-step"]
        ref = default_chunking("per-step")
        for j in (0, 10):
            rec = qm.run_trajectory(cfg, qm.NoiseSource(cfg.seed, j))
            assert np.array_equal(rec.q1[[0, 10, 20]], ref.q1[:, j])
            assert np.array_equal(rec.ledger.cumulative[[9, 19]], ref.ledger_cum[1:, j])
            harvested = np.cumsum(rec.extracted)[[9, 19]]
            assert np.array_equal(harvested, ref.extracted_cum[1:, j])
