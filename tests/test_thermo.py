"""Tests for the classical baseline and the erasure-cost accounting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmengine as qm
from qmengine.config import MAX_ENERGY
from qmengine.thermo import shannon_entropy_bit


class TestClassicalCycle:
    def test_mean_work_is_half_kbt(self):
        cfg = qm.EngineConfig(spring_k=1.0, kbt=2.0, n_traj=100_000)
        w = qm.classical_cycle(cfg, qm.NoiseSource(31).generator())
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - 1.0) <= 3.0 * se

    def test_spring_constant_drops_out_of_mean(self):
        cfg = qm.EngineConfig(spring_k=5.0, kbt=2.0, n_traj=100_000)
        w = qm.classical_cycle(cfg, qm.NoiseSource(32).generator())
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - 1.0) <= 3.0 * se

    def test_frozen_particle_at_zero_temperature(self):
        cfg = qm.EngineConfig(spring_k=1.0, kbt=0.0, n_traj=1000)
        w = qm.classical_cycle(cfg, qm.NoiseSource(33).generator())
        assert np.all(w == 0.0)

    def test_mean_never_beats_the_bound(self):
        cfg = qm.EngineConfig(spring_k=1.0, kbt=1.0, n_traj=50_000)
        w = qm.classical_cycle(cfg, qm.NoiseSource(34).generator())
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert w.mean() <= 0.5 * cfg.kbt + 3.0 * se

    def test_quantum_advantage_at_zero_temperature(self):
        # classical T=0 work is exactly zero; the quantum cycle still
        # delivers one quantum on average
        classical = qm.classical_cycle(
            qm.EngineConfig(spring_k=1.0, kbt=0.0, n_traj=10_000),
            qm.NoiseSource(35).generator(),
        )
        r, _ = qm.sample_outcomes(0.0, 100_000, qm.NoiseSource(36).generator())
        quantum = r * r
        se = quantum.std(ddof=1) / math.sqrt(len(quantum))
        assert quantum.mean() - 3.0 * se > classical.mean()

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="spring constant"):
            qm.EngineConfig(spring_k=0.0, kbt=1.0, n_traj=10).validate()
        with pytest.raises(ValueError, match="kB\\*T"):
            qm.EngineConfig(spring_k=1.0, kbt=-1.0, n_traj=10).validate()
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="spring constant"):
                qm.EngineConfig(spring_k=bad, kbt=1.0, n_traj=10).validate()
            with pytest.raises(ValueError, match="kB\\*T"):
                qm.EngineConfig(spring_k=1.0, kbt=bad, n_traj=10).validate()
        for name in ("spring_k", "kbt"):
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                qm.EngineConfig(**{name: "1"}).validate()

    def test_invalid_config_draws_nothing(self):
        rng = qm.NoiseSource(38).generator()
        with pytest.raises(ValueError, match="spring constant"):
            qm.classical_cycle(qm.EngineConfig(spring_k=-1.0, n_traj=10), rng)
        with pytest.raises(ValueError, match="n_traj"):
            qm.classical_cycle(qm.EngineConfig(n_traj=0), rng)
        assert rng.standard_normal() == qm.NoiseSource(38).generator().standard_normal()

    @pytest.mark.filterwarnings("error")
    def test_largest_temperature_keeps_the_samples_finite(self):
        # W = kbt*g**2/2: at the largest kbt and kbt/k the samples, the
        # sampled positions and the variance of the work stay finite
        for k in (1e-140, 1.0, 1e308):
            cfg = qm.EngineConfig(spring_k=k, kbt=MAX_ENERGY, n_traj=10_000)
            w = qm.classical_cycle(cfg, qm.NoiseSource(37).generator())
            assert np.isfinite(np.var(w, ddof=1)) and w.mean() > 0.0
        for k, kbt in ((1.0, 1e300), (1.0, 2 * MAX_ENERGY), (1e-141, MAX_ENERGY),
                       (5e-324, 1.0)):
            with pytest.raises(ValueError, match="kB\\*T"):
                qm.EngineConfig(spring_k=k, kbt=kbt, n_traj=10).validate()


class TestBinaryMemory:
    def test_p0_without_shift(self):
        assert qm.binary_p0(1.0, 0.0) == 1.0

    def test_p0_closed_form_value(self):
        assert qm.binary_p0(0.0, 2.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_p0_matches_sampled_trigger_fraction(self):
        nbar, r0 = 1.0, 1.5
        r, _ = qm.sample_outcomes(nbar, 100_000, qm.NoiseSource(37).generator())
        frac = float(np.mean(r >= 0.5 * r0))
        p = qm.binary_p0(nbar, r0)
        se = math.sqrt(p * (1.0 - p) / 100_000)
        assert abs(frac - p) <= 3.0 * se

    def test_p0_collapses_onto_u(self):
        # depends on (nbar, r0) only through u = r0/sqrt(1 + nbar)
        assert qm.binary_p0(0.0, 1.0) == pytest.approx(qm.binary_p0(3.0, 2.0), rel=1e-14)

    def test_erasure_cost_maximal_at_even_odds(self):
        assert qm.binary_erasure_cost(0.5, 2.0) == pytest.approx(
            2.0 * math.log(2.0), rel=1e-14
        )
        assert qm.binary_erasure_cost(0.0, 2.0) == 0.0
        assert qm.binary_erasure_cost(1.0, 2.0) == 0.0

    @given(p=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_entropy_symmetric_and_bounded(self, p):
        h = shannon_entropy_bit(p)
        assert h == pytest.approx(shannon_entropy_bit(1.0 - p), abs=1e-12)
        assert 0.0 <= h <= math.log(2.0) + 1e-12


class TestBinaryThermoEfficiency:
    def test_free_erasure_reduces_to_work_efficiency(self):
        assert qm.binary_thermo_efficiency(1.0, 1.0, 0.0) == qm.binary_efficiency(1.0, 1.0)

    def test_erasure_strictly_reduces_efficiency(self):
        base = qm.binary_thermo_efficiency(1.0, 1.0, 0.0)
        taxed = qm.binary_thermo_efficiency(1.0, 1.0, 0.5)
        assert taxed < base

    def test_nonincreasing_in_demon_temperature(self):
        values = [qm.binary_thermo_efficiency(0.5, 1.0, td) for td in (0.0, 0.5, 1.0, 3.0)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_can_turn_negative_and_is_reported_as_is(self):
        eta = qm.binary_thermo_efficiency(0.0, 1.0, 10.0)
        assert eta < 0.0
