"""Tests for the step kernel, work ledgers, resets, and trajectory drivers."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import mmap
import os
import signal
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmengine as qm
from qmengine import cli, ensembles, feedback
from qmengine.config import MAX_N_STEPS
from qmengine.feedback import Steps, run_ensemble_arrays
from qmengine.gaussian import NO_MEASUREMENT_TAU, covariance_series, inv_2tau

#: The per-trajectory fields of Steps; with cov, all of its fields.
STEP_FIELDS = ("q1", "q2", "r1", "r2", "increment", "ledger", "harvest", "harvested")
ENSEMBLE_FIELDS = (*STEP_FIELDS, "cov")


def displacement_energy(steps):
    """(q1**2 + q2**2)/2 of each trajectory at each recorded grid point."""
    return 0.5 * (steps.q1 * steps.q1 + steps.q2 * steps.q2)


def column(steps, name, j):
    """Field name of trajectory j as an (n, 1) array; cov is every trajectory's."""
    return steps.cov if name == "cov" else getattr(steps, name)[:, j:j + 1]


def constant_cov(q3, q4, q5, n_steps):
    """A fixed covariance triplet at every grid point, for single-step checks."""
    return np.tile([q3, q4, q5], (n_steps + 1, 1))


def kick(g, c, config):
    """The mean a first step from the origin reaches on one channel's normal g
    through covariance entry c, for symmetric channels of time tau:
    dt*(c/(2 tau))*sqrt(tau/dt)*g, that is c*g*sqrt(dt/tau)/2."""
    return 0.5 * c * g * math.sqrt(config.resolved_dt / config.tau1)


def _advance(config, cov, noise, record, fields=STEP_FIELDS):
    """The kernel's record of noise.shape[0] trajectories from the origin along
    cov, with the asked fields at the grid points in record."""
    t = feedback._tables(config, cov, record)
    out = Steps(
        *(np.zeros((len(record), len(noise))) if name in fields else None
          for name in STEP_FIELDS),
        cov=t.recorded_cov,
    )
    m, n_steps, _ = noise.shape
    feedback._chunk(t, noise, out, np.empty(feedback._scratch(m, n_steps, t.per_step)))
    return out


def noise_budget(chunk, n_steps=20):
    """A NOISE_BUDGET that holds the noise of chunk trajectories of n_steps."""
    return mock.patch.object(feedback, "NOISE_BUDGET", 16 * n_steps * chunk)


class TestStratonovichLedger:
    def test_zero_means_zero_increment(self):
        # zero means before and after the step: the midpoint rule banks nothing
        cfg = qm.EngineConfig(dt=0.01, policy="none")
        cov = constant_cov(1.0, 0.0, 1.0, 1)
        steps = _advance(cfg, cov, np.zeros((3, 1, 2)), [1])
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
            gap = np.abs(rec.ledger[0] - displacement_energy(rec)[0])
            assert gap.max() <= 10.0 * dt

    def test_ensemble_mean_matches_accumulated_power(self):
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.0025, t_final=1.0, n_traj=4000, policy="none", seed=31
        )
        rec = run_ensemble_arrays(cfg, [1.0])
        w = rec.ledger[0]
        se = w.std(ddof=1) / math.sqrt(len(w))
        mean = qm.sigma_schedule(cfg)[1][cfg.step_index(1.0)]
        assert abs(w.mean() - mean) <= 3.0 * se


class TestItoLedger:
    def test_drift_exact_at_zero_means(self):
        cfg = qm.EngineConfig(dt=0.01, policy="none", scheme="ito")
        noise = qm.NoiseSource(42).generator().standard_normal((20, 1, 2))
        steps = _advance(cfg, constant_cov(1.4, 0.0, 1.4, 1), noise, [1])
        nu = 0.7
        assert np.all(steps.increment == nu * nu / cfg.tau1 * cfg.resolved_dt)

    def test_expectation_is_power_drift(self):
        # a shared first-step kick moves the means to (0.28, -0.21); the
        # second step's increments, on random noise, average to the drift
        cfg = qm.EngineConfig(dt=0.01, policy="none", scheme="ito")
        noise = qm.NoiseSource(43).generator().standard_normal((20000, 2, 2))
        noise[:, 0] = [4.0, -3.0]
        steps = _advance(cfg, constant_cov(1.4, 0.0, 1.4, 2), noise, [1, 2])
        assert steps.q1[0, 0] == pytest.approx(kick(4.0, 1.4, cfg), rel=1e-12)
        assert steps.q2[0, 0] == pytest.approx(kick(-3.0, 1.4, cfg), rel=1e-12)
        incs = steps.increment[1]
        drift = 0.7**2 / cfg.tau1 * cfg.resolved_dt
        se = incs.std(ddof=1) / math.sqrt(len(incs))
        assert abs(incs.mean() - drift) <= 3.0 * se

    def test_increment_is_half_trace_at_zero_means(self):
        # off normal form too: at zero means the martingale part is a signed
        # zero, so every increment is (dt/4)*((c3**2 + c4**2)*i1 + (c4**2 +
        # c5**2)*i2) = 0.0025 * 2.34
        cfg = qm.EngineConfig(dt=0.01, policy="none", scheme="ito")
        cov = constant_cov(1.5, 0.3, 1.5, 1)
        noise = qm.NoiseSource(44).generator().standard_normal((20, 1, 2))
        steps = _advance(cfg, cov, noise, [1])
        half_trace = 0.25 * 0.01 * ((1.5 * 1.5 + 0.3 * 0.3) * 0.5 + (0.3 * 0.3 + 1.5 * 1.5) * 0.5)
        assert np.all(steps.increment == half_trace)
        assert np.all(steps.increment == feedback.half_trace(cfg, cov[:1]))
        assert half_trace == pytest.approx(0.00585, rel=1e-14)

    @pytest.mark.parametrize("tau2", [1.0, 1.2, 0.7, math.inf])
    def test_both_schemes_have_one_exact_mean(self, tau2):
        cfgs = [
            qm.EngineConfig(nbar=1.0, tau2=tau2, dt=0.01, t_final=2.0, policy="none", scheme=s)
            for s in ("stratonovich", "ito")
        ]
        mean, ito_mean = map(ensembles.ledger_mean_work, cfgs)
        assert ito_mean == mean

    @pytest.mark.parametrize(("tau2", "seed"), [(1.0, 0), (1.2, 1), (0.7, 2), (math.inf, 3)])
    def test_ensemble_mean_is_the_exact_mean_for_any_channels(self, tau2, seed):
        cfg = qm.EngineConfig(
            nbar=1.0, tau2=tau2, dt=0.01, t_final=2.0, n_traj=20_000, policy="none",
            scheme="ito", seed=seed,
        )
        w = run_ensemble_arrays(cfg, [2.0], ["ledger"]).ledger[0]
        se = w.std(ddof=1) / math.sqrt(len(w))
        assert abs(w.mean() - ensembles.ledger_mean_work(cfg)) <= 3.0 * se

    def test_per_step_run_increments_equal_power_drift(self):
        # per-step policy resets the means, so every Ito ledger increment is
        # exactly nu_k^2/tau * dt
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.01, t_final=0.5, policy="per-step", scheme="ito", seed=2
        )
        rec = qm.run_trajectory(cfg)
        nu = 0.5 * rec.cov[:-1, 0]
        assert np.array_equal(rec.increment[1:, 0], nu * nu / cfg.tau1 * cfg.resolved_dt)


class TestReset:
    """The per-step branch of the kernel: the only reset code."""

    def test_zero_state(self):
        # zero means and zero innovations: nothing to bank, means stay at 0
        cfg = qm.EngineConfig(dt=0.01, policy="per-step")
        steps = _advance(cfg, constant_cov(1.0, 0.0, 1.0, 2), np.zeros((1, 2, 2)), [1, 2])
        assert np.all(steps.harvest == 0.0)
        assert np.all(steps.q1 == 0.0) and np.all(steps.q2 == 0.0)

    def test_unit_displacement(self):
        # a first-step kick g1 = 10 displaces the means to c*g1*sqrt(dt/tau)/2
        # with c = (q3, q4), the step banks (q1^2 + q2^2)/2 of them, and the
        # next step, with zero noise, starts from the origin again
        cfg = qm.EngineConfig(dt=0.01, policy="per-step")
        noise = np.zeros((1, 2, 2))
        noise[0, 0, 0] = 10.0
        steps = _advance(cfg, constant_cov(1.3, 0.1, 1.5, 2), noise, [1, 2])
        q1, q2 = steps.q1[0, 0], steps.q2[0, 0]
        assert (q1, q2) == (0.65, 0.05)
        assert (q1, q2) == pytest.approx((kick(10.0, 1.3, cfg), kick(10.0, 0.1, cfg)), rel=1e-12)
        assert steps.harvest[0, 0] == 0.5 * (q1 * q1 + q2 * q2)
        assert steps.harvest[0, 0] == pytest.approx(0.2125, abs=1e-12)
        assert (steps.q1[1, 0], steps.q2[1, 0], steps.harvest[1, 0]) == (0.0, 0.0, 0.0)
        assert steps.harvested[1, 0] == steps.harvest[0, 0]

    def test_covariances_bit_identical(self):
        # resetting after every step leaves the covariance flow untouched
        fields = dict(nbar=1.5, tau1=1.0, tau2=0.7, dt=0.005, t_final=1.0, seed=4)
        reset = qm.run_trajectory(qm.EngineConfig(policy="per-step", **fields), 1)
        free = qm.run_trajectory(qm.EngineConfig(policy="none", **fields), 1)
        assert not np.array_equal(reset.q1, free.q1)
        assert np.array_equal(reset.cov, free.cov)
        assert np.abs(free.cov[:, 1]).max() > 0.0


class TestRunTrajectory:
    def test_unmonitored_channels_give_zero_work(self):
        cfg = qm.EngineConfig(
            nbar=1.0, tau1=1e13, tau2=1e13, dt=0.01, t_final=1.0, policy="none", seed=9
        )
        rec = qm.run_trajectory(cfg)
        assert np.all(rec.increment == 0.0)
        assert np.all(rec.r1[1:] == rec.q1[:-1])
        assert np.all(rec.q1 == 0.0)  # rotation of zero means

    def test_terminal_run_banks_nothing_along_the_way(self):
        # its one harvest, at the end, is the final displacement energy,
        # which ensembles.work_samples takes from q1 and q2
        cfg = qm.EngineConfig(nbar=0.5, dt=0.005, t_final=1.0, policy="terminal", seed=6)
        rec = qm.run_trajectory(cfg)
        assert not rec.harvest.any() and not rec.harvested.any()
        assert displacement_energy(rec)[-1, 0] > 0.0

    def test_per_step_harvests_every_step(self):
        cfg = qm.EngineConfig(nbar=0.0, dt=0.01, t_final=0.5, policy="per-step", seed=7)
        rec = qm.run_trajectory(cfg)
        assert rec.harvest[0, 0] == 0.0
        assert np.all(rec.harvest[1:] > 0.0)
        expected = 0.5 * (rec.q1[1:] ** 2 + rec.q2[1:] ** 2)
        assert np.array_equal(rec.harvest[1:], expected)

    def test_per_step_means_recenter_on_origin(self):
        # ensemble average of the pre-reset displacement stays at the origin
        cfg = qm.EngineConfig(
            nbar=0.0, dt=0.01, t_final=1.0, n_traj=4000, policy="per-step", seed=8
        )
        n = cfg.n_steps
        cov = qm.covariance_series(0.0, cfg.tau1, cfg.tau2, cfg.resolved_dt, n)
        noise = np.random.default_rng(cfg.seed).standard_normal((cfg.n_traj, n, 2))
        steps = _advance(cfg, cov, noise, [n // 2, n])
        for q in (steps.q1, steps.q2):
            se = q.std(axis=1, ddof=1) / math.sqrt(cfg.n_traj)
            assert np.all(np.abs(q.mean(axis=1)) <= 4.0 * se)

    def test_record_shapes(self):
        # every grid point 0..n_steps, one column; row 0 is zeros, the origin
        cfg = qm.EngineConfig(nbar=1.0, dt=0.01, t_final=0.3, policy="terminal", seed=5)
        rec = qm.run_trajectory(cfg)
        n = cfg.n_steps
        for name in STEP_FIELDS:
            assert getattr(rec, name).shape == (n + 1, 1), name
            assert not getattr(rec, name)[0].any(), name
        cov = qm.covariance_series(cfg.nbar, cfg.tau1, cfg.tau2, cfg.resolved_dt, n)
        assert np.array_equal(rec.cov, cov)

    def test_same_stream_reproduces_record(self):
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.5, policy="terminal", seed=44)
        a = qm.run_trajectory(cfg, 2)
        b = qm.run_trajectory(cfg, 2)
        assert np.array_equal(a.q1, b.q1)
        assert np.array_equal(a.r2, b.r2)
        assert np.array_equal(a.ledger, b.ledger)


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
            means[scheme] = rec.ledger.mean(axis=1)
            errs[scheme] = rec.ledger.std(axis=1, ddof=1) / math.sqrt(cfg.n_traj)
        gap = np.abs(means["stratonovich"] - means["ito"])
        combined = np.hypot(errs["stratonovich"], errs["ito"])
        assert np.all(gap <= 3.0 * combined)


CHUNK_CONFIGS = {
    policy: qm.EngineConfig(
        nbar=0.5, dt=0.01, t_final=0.2, n_traj=11, policy=policy, seed=13
    )
    for policy in ("terminal", "per-step", "none")
}


WORKER_CONFIGS = {
    (policy, scheme): dataclasses.replace(CHUNK_CONFIGS[policy], scheme=scheme)
    for policy in CHUNK_CONFIGS
    for scheme in ("stratonovich", "ito")
}


@functools.cache
def default_chunking(policy):
    return run_ensemble_arrays(CHUNK_CONFIGS[policy], [0.0, 0.1, 0.2])


class TestChunkInvariance:
    @given(chunk=st.integers(1, 14), policy=st.sampled_from(sorted(CHUNK_CONFIGS)))
    @settings(max_examples=30, deadline=None)
    def test_records_bit_identical_under_any_chunking(self, chunk, policy):
        with noise_budget(chunk):
            rec = run_ensemble_arrays(CHUNK_CONFIGS[policy], [0.0, 0.1, 0.2])
        ref = default_chunking(policy)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("tile", [1, 7, 50, feedback.PER_STEP_TILE])
    def test_per_step_records_bit_identical_under_any_tile(self, tile, threads):
        # blocks of 4: 11 trajectories are 3 blocks, shared by `threads`
        # workers; tiles of 1 and 7 make one-trajectory chunks, taken in
        # spans of 1 and of 7 steps, and 50 chunks of 1 and 2 trajectories
        # that reuse one worker's buffers
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
                mock.patch.object(feedback, "PER_STEP_TILE", tile), \
                mock.patch.object(feedback, "worker_threads", lambda: threads):
            assert len(feedback._layout(11, 20, per_step=True)) == threads
            rec = run_ensemble_arrays(CHUNK_CONFIGS["per-step"], [0.0, 0.1, 0.2])
        ref = small_block_default_chunking("per-step")
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_long_horizon_trajectory_is_the_single_member_case(self):
        # 10^5 per-step steps: trajectory 0 of an ensemble, bit for bit
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.01, t_final=1000.0, n_traj=3, policy="per-step", seed=17
        )
        times = [0.0, 0.64, 0.65, 1.0, 500.0, 999.99, 1000.0]
        ens = run_ensemble_arrays(cfg, times)
        rec = qm.run_trajectory(cfg)
        at = [cfg.step_index(t) for t in times]
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name)[at], column(ens, name, 0)), name
        assert np.array_equal(np.cumsum(rec.harvest)[at], ens.harvested[:, 0])

    def test_trajectory_is_the_single_member_case(self):
        # column j of an ensemble is run_trajectory(config, j)
        cfg = CHUNK_CONFIGS["per-step"]
        ref = default_chunking("per-step")
        for j in (0, 10):
            rec = qm.run_trajectory(cfg, j)
            for name in ENSEMBLE_FIELDS:
                assert np.array_equal(getattr(rec, name)[[0, 10, 20]], column(ref, name, j)), name
            harvested = np.cumsum(rec.harvest)[[0, 10, 20]]
            assert np.array_equal(harvested, ref.harvested[:, j])


#: Grid point 0, step 1 and two later steps of the CHUNK_CONFIGS grid.
FIELD_CHECKPOINTS = [0.0, 0.01, 0.1, 0.2]


@functools.cache
def all_fields(key):
    with mock.patch.object(feedback, "STREAM_BLOCK", 4):
        return run_ensemble_arrays(WORKER_CONFIGS[key], FIELD_CHECKPOINTS)


def assert_same_fields(got, want, names, asked):
    """Each asked field of got has the bits of want's; the others are None."""
    for name in names:
        a = getattr(got, name)
        if name not in asked:
            assert a is None, name
            continue
        b = getattr(want, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


class TestFieldSubsets:
    @given(
        key=st.sampled_from(sorted(WORKER_CONFIGS)),
        chunk=st.integers(1, 14),
        fields=st.sets(st.sampled_from(STEP_FIELDS), min_size=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_asked_fields_are_bit_identical_to_all_fields(self, key, chunk, fields):
        # blocks of 4: 11 trajectories are 3 blocks, so with two CPUs and a
        # budget of two blocks or more a free ensemble runs on two workers
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), noise_budget(chunk):
            rec = run_ensemble_arrays(WORKER_CONFIGS[key], FIELD_CHECKPOINTS, fields)
        ref = all_fields(key)
        assert np.array_equal(rec.cov, ref.cov)
        assert_same_fields(rec, ref, STEP_FIELDS, fields)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="not a per-trajectory Steps field: cov"):
            run_ensemble_arrays(CHUNK_CONFIGS["terminal"], [0.2], ["cov"])


@functools.cache
def small_block_default_chunking(policy):
    with mock.patch.object(feedback, "STREAM_BLOCK", 4):
        return run_ensemble_arrays(CHUNK_CONFIGS[policy], [0.0, 0.1, 0.2])


class _CountingGenerator:
    """Forwards standard_normal to a generator and counts the normals drawn
    in counts[slot]."""

    def __init__(self, gen, counts, slot):
        self.gen = gen
        self.counts = counts
        self.slot = slot

    def standard_normal(self, size=None, out=None):
        self.counts[self.slot] += out.size if out is not None else int(np.prod(size))
        return self.gen.standard_normal(size, out=out)


class TestStreamLayout:
    def test_trajectory_j_is_its_slice_of_block_stream(self):
        # n_traj = 600 spans three blocks of 256 trajectories
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.05, n_traj=600, seed=19)
        n = cfg.n_steps
        seen = []

        chunk = feedback._chunk

        def recording_chunk(tables, noise, *rest):
            seen.append(noise.copy())
            return chunk(tables, noise, *rest)

        # one worker, so the chunks reach recording_chunk in trajectory order
        with mock.patch.object(feedback, "_chunk", recording_chunk), \
                mock.patch.object(feedback, "worker_threads", lambda: 1):
            run_ensemble_arrays(cfg, [cfg.t_final])
            ensemble_noise = np.concatenate(seen)
            single = {}
            for j in (0, 255, 256, 599):
                # the ensemble of trajectories 0..j, whose last is j
                seen.clear()
                qm.run_trajectory(cfg, j)
                single[j] = np.concatenate(seen)[j]
        assert ensemble_noise.shape == (600, n, 2)
        for j in (0, 255, 256, 599):
            block = qm.NoiseSource(cfg.seed, j // 256).generator()
            expected = block.standard_normal((256, n, 2))[j % 256]
            assert np.array_equal(ensemble_noise[j], expected), j
            assert np.array_equal(single[j], expected), j

    @given(chunk=st.integers(1, 14), policy=st.sampled_from(sorted(CHUNK_CONFIGS)))
    @settings(max_examples=30, deadline=None)
    def test_chunking_across_block_boundaries(self, chunk, policy):
        # blocks of 4 trajectories: 11 trajectories span three blocks, and
        # chunks of 1..14 start and end inside and across them
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), noise_budget(chunk):
            rec = run_ensemble_arrays(CHUNK_CONFIGS[policy], [0.0, 0.1, 0.2])
        ref = small_block_default_chunking(policy)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_every_normal_drawn_once_with_chunks_inside_a_block(self):
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.05, n_traj=600, seed=23)
        ref = run_ensemble_arrays(cfg, [cfg.t_final])
        counts = np.zeros(3, dtype=int)
        streams = []
        generator = qm.NoiseSource.generator

        def counting_generator(source):
            streams.append(source.stream)
            return _CountingGenerator(generator(source), counts, source.stream)

        with mock.patch.object(qm.NoiseSource, "generator", counting_generator), \
                noise_budget(100, cfg.n_steps):
            # one worker of six 100-trajectory chunks, which cross blocks
            assert feedback._layout(cfg.n_traj, cfg.n_steps) == [list(range(0, 700, 100))]
            rec = run_ensemble_arrays(cfg, [cfg.t_final])
        assert sum(counts) == cfg.n_traj * cfg.n_steps * 2
        assert streams == [0, 1, 2]
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_chunks_are_within_the_budget(self):
        # the trajectories whose noise NOISE_BUDGET holds
        budget = feedback.NOISE_BUDGET
        assert budget // (16 * 100) == 30_000
        assert budget // (16 * 2500) == 1200
        assert budget // (16 * 20_000) == 150  # under one block
        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            # a free ensemble's budget under one block holds one worker and
            # chunks of at most 150; a per-step one holds a 1-trajectory tile
            # for each of two workers
            assert feedback._layout(1000, 20_000) == [[0, 142, 285, 428, 571, 714, 857, 1000]]
            assert feedback._layout(1000, 20_000, per_step=True)[0][:3] == [0, 1, 2]


@functools.cache
def single_worker(key):
    with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
            mock.patch.object(feedback, "worker_threads", lambda: 1):
        return run_ensemble_arrays(WORKER_CONFIGS[key], [0.0, 0.1, 0.2])


def shared_ints(n):
    """n int64 zeros in an anonymous shared mapping, which forked workers
    write in place and the test process reads."""
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.int64)


def wait_until(condition, timeout=10.0):
    """Poll condition() until it is true; raise if timeout seconds pass first."""
    deadline = time.monotonic() + timeout
    while not condition():
        if time.monotonic() > deadline:
            raise TimeoutError("condition not met")
        time.sleep(0.001)


def assert_no_child():
    """The test process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def blocked_workers(first_chunk, workers=2):
    """workers workers of five one-block chunks each, on a 20*workers-trajectory
    ensemble: the caller is worker 0, and a forked child each of the others.

    As it draws the noise of its first chunk, before it steps, each worker
    calls first_chunk(its index, cancelled), where cancelled() is true once
    the ensemble is cancelled.  Yields the number of chunks each worker drew,
    counted in shared memory.
    """
    caller = os.getpid()
    chunks = shared_ints(workers)
    index = {}
    run_blocks, fill = feedback._run_blocks, feedback._BlockStreams.fill

    def recording_run_blocks(tables, streams, edges, outs, cancelled):
        index.update(worker=edges[0] // 20, cancelled=cancelled)
        return run_blocks(tables, streams, edges, outs, cancelled)

    def blocked_fill(streams, out):
        assert (index["worker"] == 0) == (os.getpid() == caller)
        chunks[index["worker"]] += 1
        if chunks[index["worker"]] == 1:
            first_chunk(index["worker"], index["cancelled"])
        return fill(streams, out)

    with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
            mock.patch.object(feedback, "worker_threads", lambda: workers), \
            noise_budget(4 * workers), \
            mock.patch.object(feedback, "_run_blocks", recording_run_blocks), \
            mock.patch.object(feedback._BlockStreams, "fill", blocked_fill):
        plan = feedback._layout(20 * workers, 20)
        assert [edges[0] for edges in plan] == list(range(0, 20 * workers, 20))
        assert [len(edges) - 1 for edges in plan] == [5] * workers
        yield chunks


def run_blocked(workers=2):
    """The ensemble of blocked_workers(first_chunk, workers)."""
    cfg = dataclasses.replace(CHUNK_CONFIGS["terminal"], n_traj=20 * workers)
    return run_ensemble_arrays(cfg, [cfg.t_final])


class TestWorkers:
    @given(
        threads=st.integers(1, 4),
        chunk=st.integers(1, 14),
        key=st.sampled_from(sorted(WORKER_CONFIGS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_records_bit_identical_under_any_worker_count(self, threads, chunk, key):
        # blocks of 4: 11 trajectories are 3 blocks, shared by up to 3
        # workers, as many as the budget holds a block (free policies) or a
        # two-trajectory tile (per-step) for
        per_step = key[0] == "per-step"
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
                mock.patch.object(feedback, "PER_STEP_TILE", 40), \
                mock.patch.object(feedback, "worker_threads", lambda: threads), \
                noise_budget(chunk):
            floor = 2 if per_step else 4
            workers = min(threads, 3, max(1, chunk // floor))
            assert len(feedback._layout(11, 20, per_step)) == workers
            rec = run_ensemble_arrays(WORKER_CONFIGS[key], [0.0, 0.1, 0.2])
        ref = single_worker(key)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    @pytest.mark.parametrize("policy", sorted(CHUNK_CONFIGS))
    def test_more_workers_than_cores_with_fast_switching(self, policy):
        # blocks of one trajectory: 8 workers of one-trajectory chunks, each
        # of which sleeps, so that the workers overlap
        cfg = CHUNK_CONFIGS[policy]
        with mock.patch.object(feedback, "STREAM_BLOCK", 1), \
                mock.patch.object(feedback, "worker_threads", lambda: 1):
            ref = run_ensemble_arrays(cfg, [0.0, 0.1, 0.2])
        chunk = feedback._chunk

        def slow_chunk(*args):
            time.sleep(0.002)
            return chunk(*args)

        with mock.patch.object(feedback, "STREAM_BLOCK", 1), \
                mock.patch.object(feedback, "PER_STEP_TILE", 20), \
                mock.patch.object(feedback, "worker_threads", lambda: 8), \
                noise_budget(8), \
                mock.patch.object(feedback, "_chunk", slow_chunk):
            plan = feedback._layout(cfg.n_traj, cfg.n_steps, policy == "per-step")
            assert len(plan) == 8
            assert all(np.all(np.diff(edges) == 1) for edges in plan)
            rec = run_ensemble_arrays(cfg, [0.0, 0.1, 0.2])
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
        assert_no_child()

    def test_one_worker_where_fork_does_not_exist(self, monkeypatch):
        # the caller alone runs the ensemble, as on one CPU
        cfg = CHUNK_CONFIGS["terminal"]
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
                mock.patch.object(feedback, "worker_threads", lambda: 1):
            ref = run_ensemble_arrays(cfg, [0.0, 0.1, 0.2])
        monkeypatch.delattr(os, "fork")
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
                mock.patch.object(feedback, "worker_threads", lambda: 2):
            assert len(feedback._layout(cfg.n_traj, cfg.n_steps)) == 1
            rec = run_ensemble_arrays(cfg, [0.0, 0.1, 0.2])
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_two_workers_draw_every_normal_once(self):
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.05, n_traj=600, seed=23)
        with mock.patch.object(feedback, "worker_threads", lambda: 1):
            ref = run_ensemble_arrays(cfg, [cfg.t_final])
        # per block, in shared memory: the normals drawn and the process
        # that drew them
        counts, drawers = shared_ints(3), shared_ints(3)
        streams = []
        caller = os.getpid()
        generator = qm.NoiseSource.generator

        class DrawingGenerator(_CountingGenerator):
            def standard_normal(self, size=None, out=None):
                drawers[self.slot] = os.getpid()
                return super().standard_normal(size, out)

        def counting_generator(source):
            # a generator made in a worker would fail the run
            assert os.getpid() == caller
            streams.append(source.stream)
            return DrawingGenerator(generator(source), counts, source.stream)

        # chunks of at most one block: the first worker takes block 0, the
        # second takes block 1 and the 88 trajectories of block 2 in two
        # chunks of 172, the first of which crosses into block 2
        with mock.patch.object(qm.NoiseSource, "generator", counting_generator), \
                mock.patch.object(feedback, "worker_threads", lambda: 2), \
                noise_budget(512, cfg.n_steps):
            assert feedback._layout(cfg.n_traj, cfg.n_steps) == [[0, 256], [256, 428, 600]]
            rec = run_ensemble_arrays(cfg, [cfg.t_final])
        assert list(counts) == [2 * cfg.n_steps * n for n in (256, 256, 88)]
        # each block's generator is created once, in the calling process; the
        # caller draws block 0 and one forked child the other two
        assert streams == [0, 1, 2]
        assert drawers[0] == caller != drawers[1] == drawers[2]
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
        assert_no_child()

    @pytest.mark.filterwarnings("error")
    def test_fork_warning_of_newer_pythons_is_not_an_error(self):
        # Python 3.12 and later warn in the parent, after the fork, when the
        # process has other threads, as numpy's OpenBLAS does
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.05, n_traj=600, seed=23)
        with mock.patch.object(feedback, "worker_threads", lambda: 1):
            ref = run_ensemble_arrays(cfg, [cfg.t_final])
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(
                    f"This process (pid={os.getpid()}) is multi-threaded, use of "
                    "fork() may lead to deadlocks in the child.",
                    DeprecationWarning,
                    stacklevel=2,
                )
            return pid

        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            rec = run_ensemble_arrays(cfg, [cfg.t_final])
            with mock.patch.object(os, "fork", warning_fork):
                warned = run_ensemble_arrays(cfg, [cfg.t_final])
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
            assert np.array_equal(getattr(warned, name), getattr(ref, name)), name
        assert_no_child()

    def test_worker_exception_reaches_the_caller(self):
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.05, n_traj=600, seed=23)
        run_blocks = feedback._run_blocks

        def failing(tables, streams, edges, *rest):
            if edges[0] > 0:
                raise ValueError("second worker failed")
            return run_blocks(tables, streams, edges, *rest)

        with mock.patch.object(feedback, "worker_threads", lambda: 2), \
                mock.patch.object(feedback, "_run_blocks", failing):
            with pytest.raises(ValueError, match="second worker failed"):
                run_ensemble_arrays(cfg, [cfg.t_final])

    def test_an_exception_that_does_not_pickle_arrives_as_its_repr(self):
        class Unpicklable(Exception):  # a local class does not pickle
            pass

        def first_chunk(worker, cancelled):
            if worker == 1:
                raise Unpicklable("worker failed")

        with blocked_workers(first_chunk):
            with pytest.raises(RuntimeError, match=r"Unpicklable\('worker failed'\)"):
                run_blocked()
        assert_no_child()

    @staticmethod
    def assert_failure_stops_the_others(workers):
        # worker 1 fails once every other worker is in its first chunk,
        # where each waits for the cancel flag that the failure sets
        def first_chunk(worker, cancelled):
            if worker == 1:
                wait_until(lambda: chunks.all())
                raise RuntimeError("worker failed")
            wait_until(cancelled)

        with blocked_workers(first_chunk, workers) as chunks:
            with pytest.raises(RuntimeError, match="worker failed"):
                run_blocked(workers)
        # each worker ran the first of its five chunks, and no other
        assert list(chunks) == [1] * workers
        assert_no_child()

    def test_a_failing_worker_stops_the_other(self):
        # the caller, at its next chunk
        self.assert_failure_stops_the_others(2)

    def test_a_failing_worker_stops_the_forked_ones_too(self):
        # the caller and worker 2, a forked sibling of the failing worker
        self.assert_failure_stops_the_others(3)

    @staticmethod
    def assert_interrupt_kills_the_worker(in_own_chunk):
        # the forked worker blocks in its first chunk until it is cancelled
        # (which an interrupt does not do) or a minute has passed; the
        # interrupt kills it
        def first_chunk(worker, cancelled):
            if worker == 1:
                wait_until(cancelled, timeout=60)
                return
            wait_until(lambda: chunks[1] == 1)
            if in_own_chunk:
                raise KeyboardInterrupt

        def interrupt(signum, frame):
            raise KeyboardInterrupt

        start = time.monotonic()
        with blocked_workers(first_chunk) as chunks:
            handler = signal.signal(signal.SIGALRM, interrupt)
            try:
                if not in_own_chunk:
                    # after the caller's own five chunks, as it waits for
                    # the worker; a fork does not inherit the timer
                    signal.setitimer(signal.ITIMER_REAL, 1.0)
                with pytest.raises(KeyboardInterrupt):
                    run_blocked()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, handler)
        assert time.monotonic() - start < 30
        assert list(chunks) == [1 if in_own_chunk else 5, 1]
        assert_no_child()

    def test_an_interrupt_stops_the_workers(self):
        # as the caller waits for the forked worker
        self.assert_interrupt_kills_the_worker(in_own_chunk=False)

    def test_an_interrupt_in_the_callers_chunk_stops_the_workers(self):
        self.assert_interrupt_kills_the_worker(in_own_chunk=True)

    def test_a_worker_killed_by_a_signal_is_an_error(self):
        # as the kernel's out-of-memory killer would; its columns, zeros, are
        # not returned as results
        def first_chunk(worker, cancelled):
            if worker == 1:
                os.kill(os.getpid(), signal.SIGKILL)

        with blocked_workers(first_chunk) as chunks:
            with pytest.raises(ChildProcessError, match="killed by signal SIGKILL"):
                run_blocked()
        assert list(chunks) == [5, 1]
        assert_no_child()

    def test_a_worker_whose_caller_is_gone_stops(self):
        # the worker sees a new parent (as after its caller died) in its
        # first chunk, and stops before its next
        def first_chunk(worker, cancelled):
            if worker == 1:
                mock.patch.object(os, "getppid", lambda: 1).start()  # in the child only

        with blocked_workers(first_chunk) as chunks:
            with pytest.raises(RuntimeError, match="its caller is gone"):
                run_blocked()
        assert chunks[1] == 1
        assert_no_child()

    def test_chunks_are_whole_blocks_without_a_narrow_tail(self):
        # each worker's range is whole blocks, cut near-equal at any trajectory
        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            # default continuous: three chunks per worker, within the 2048
            # trajectories of FREE_TILE // 100
            assert feedback._layout(10_000, 100) == [
                [0, 1706, 3413, 5120], [5120, 6746, 8373, 10_000]
            ]
            # figure-2c: ten chunks of FREE_WIDTH trajectories in the first worker
            assert feedback._layout(10_000, 500)[0] == list(range(0, 5121, 512))
            # figure-S3 terminal: ten chunks of FREE_WIDTH per worker, within
            # the budget's 1200 trajectories shared by two
            assert [len(e) - 1 for e in feedback._layout(10_000, 2500)] == [10, 10]
        with mock.patch.object(feedback, "worker_threads", lambda: 64):
            # the 1200-trajectory budget holds a block for each of 4 workers,
            # whose chunks hold at most 300
            plan = feedback._layout(10_000, 2500)
            assert [e[0] for e in plan] == [0, 2560, 5120, 7680]
            widths = [np.diff(edges) for edges in plan]
            assert all(w.max() - w.min() <= 1 and w.max() <= 300 for w in widths)

    @pytest.mark.parametrize("threads", [1, 2, 64])
    def test_free_chunks_stay_within_the_cap(self, threads):
        # computed from the layout, nothing is allocated
        with mock.patch.object(feedback, "worker_threads", lambda: threads):
            for n_steps in (1, 100, 200, 201, 500, 2500, 20_000, MAX_N_STEPS):
                for n_traj in (1, 50, 300, 1000, 10_000, 11_000, 50_000, 10**6):
                    plan = feedback._layout(n_traj, n_steps)
                    blocks = -(-n_traj // 256)
                    fits = max(1, feedback.NOISE_BUDGET // (16 * n_steps))
                    # as many workers as the budget holds a block for
                    workers = min(threads, blocks, max(1, fits // 256))
                    assert len(plan) == workers
                    cfg = qm.EngineConfig(n_traj=n_traj, dt=1.0 / n_steps, policy="terminal")
                    assert feedback.ensemble_layout(cfg)["workers"] == workers
                    # whole blocks per worker, cut into near-equal chunks
                    # within the cap, the scratch bound and the worker's share
                    assert [e[0] for e in plan] == [256 * (e[0] // 256) for e in plan]
                    cap = max(feedback.FREE_WIDTH, feedback.FREE_TILE // n_steps)
                    for edges in plan:
                        widths = np.diff(edges)
                        assert 1 <= widths.min() and widths.max() - widths.min() <= 1
                        assert widths.max() <= min(cap, max(1, fits // workers))
                        assert widths.max() <= feedback.FREE_SCRATCH // 16
        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            # continuous --policy terminal at 5 * 10**4: 13 chunks of at most
            # 1930 trajectories per worker, 3.1 MB of noise each
            plan = feedback._layout(50_000, 100)
            assert [len(e) - 1 for e in plan] == [13, 13]
            assert max(np.diff(e).max() for e in plan) == 1930
            # single-step chunks fill the scratch bound
            assert feedback._layout(2**17, 1) == [[0, 2**16], [2**16, 2**17]]
            assert feedback.ensemble_layout(
                qm.EngineConfig(n_traj=50_000, policy="terminal")
            )["workers"] == 2

    @pytest.mark.parametrize("threads", [1, 2, 64])
    def test_per_step_chunks_are_one_tile(self, threads):
        # computed from the layout, nothing is allocated
        tile = feedback.PER_STEP_TILE
        with mock.patch.object(feedback, "worker_threads", lambda: threads):
            for n_steps in (1, 100, 2500, 2501, tile):
                for n_traj in (1, 50, 1000, 10_000, 11_000):
                    plan = feedback._layout(n_traj, n_steps, per_step=True)
                    assert len(plan) == min(threads, -(-n_traj // 256))
                    # whole blocks per worker, cut into chunks of one tile
                    assert [e[0] for e in plan] == [256 * (e[0] // 256) for e in plan]
                    widths = np.concatenate([np.diff(edges) for edges in plan])
                    assert widths.min() >= 1
                    assert widths.max() <= max(1, tile // n_steps)
        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            # figure-S3: 8 trajectories by 2500 steps, 320 kB of noise
            assert [len(e) - 1 for e in feedback._layout(10_000, 2500, True)] == [640, 610]
            cfg = qm.EngineConfig(dt=0.01, t_final=25.0, n_traj=10_000, policy="per-step")
            assert feedback.ensemble_layout(cfg)["workers"] == 2

    @pytest.mark.parametrize("threads", [1, 2, 3, 4])
    def test_noise_in_flight_stays_within_the_budget(self, threads):
        # computed from the layout, nothing is allocated
        with mock.patch.object(feedback, "worker_threads", lambda: threads):
            for n_steps, n_traj, per_step in itertools.product(
                (1, 100, 2500, 20_000, 10**5, 3 * 10**5 + 1, MAX_N_STEPS),
                (1, 50, 1000, 11_000, 10**6),
                (False, True),
            ):
                plan = feedback._layout(n_traj, n_steps, per_step)
                assert 1 <= len(plan) <= threads
                # contiguous ranges that cover the ensemble
                assert [e[0] for e in plan] == [0] + [e[-1] for e in plan[:-1]]
                assert plan[-1][-1] == n_traj
                widest = [int(np.diff(edges).max()) for edges in plan]
                assert all(np.diff(edges).min() >= 1 for edges in plan)
                assert sum(widest) * 16 * n_steps <= 48_000_000
        assert feedback.NOISE_BUDGET // (16 * MAX_N_STEPS) == 3


class TestScratch:
    @pytest.mark.parametrize(("policy", "n_steps", "fields"), [
        ("terminal", 500, ["q1", "q2"]),  # the fields of mean_work_curve
        ("per-step", 2500, ["harvested"]),  # and of efficiency_series
    ])
    def test_kernel_scratch_is_off_the_heap(self, policy, n_steps, fields):
        # each worker's noise and kernel scratch live in its one anonymous
        # mapping, and the records in the ensemble's, which tracemalloc does
        # not see; it sees numpy's heap buffers: the covariances and the
        # run's tables.  One worker, so that the whole ensemble runs in the
        # traced process
        cfg = qm.EngineConfig(n_traj=2048, dt=0.01, t_final=n_steps / 100, policy=policy)
        assert cfg.n_steps == n_steps
        tracemalloc.start()
        try:
            with mock.patch.object(feedback, "worker_threads", lambda: 1):
                run_ensemble_arrays(cfg, [cfg.t_final], fields)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    @pytest.mark.parametrize("per_step", [False, True])
    def test_widest_chunk_sizes_every_chunk(self, per_step):
        # a worker's mapping is sized for its widest chunk, so the scratch
        # bound may not fall as chunks widen, also where tile // m rounds down
        for n_steps in (1, 7, 100, 343, 500, 2500):
            sizes = [feedback._scratch(m, n_steps, per_step) for m in range(1, 1200)]
            assert sizes == sorted(sizes)

    def test_layout_counts_the_bytes_of_each_workers_mapping(self):
        # figure-2c on two CPUs: ten chunks of 512 and ten of 488
        # trajectories; each worker maps the noise of its widest chunk by 500
        # steps, and _free's scratch for it: a 2**20-byte time-major copy and
        # twenty rows
        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            cfg = qm.EngineConfig(n_traj=10_000, dt=0.01, t_final=5.0, policy="terminal")
            assert feedback._layout(cfg.n_traj, cfg.n_steps)[1][:2] == [5120, 5608]
            mappings = [16 * m * 500 + 2**20 + 160 * m for m in (512, 488)]
            assert feedback.ensemble_layout(cfg) == {
                "workers": 2, "scratch_bytes": sum(mappings), "chunks": 20, "chunk_width": 512
            }


def shared_configs(policy, scheme):
    """Configs that share WORKER_CONFIGS[policy, scheme]'s noise: figure-S3's
    three channel ratios and a warmer start."""
    base = WORKER_CONFIGS[policy, scheme]
    changes = [{"tau2": ratio} for ratio in (1.0, 0.9, 1.2)] + [{"nbar": 2.0}]
    return [dataclasses.replace(base, **change) for change in changes]


class TestSharedNoise:
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("fields", [STEP_FIELDS, ("harvested",)], ids=["all", "harvested"])
    @pytest.mark.parametrize("key", sorted(WORKER_CONFIGS))
    def test_shared_records_are_the_separate_ones(self, key, fields, threads):
        # blocks of 4: 11 trajectories are 3 blocks, shared by `threads` workers
        configs = shared_configs(*key)
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
                mock.patch.object(feedback, "worker_threads", lambda: threads):
            assert len(feedback._layout(11, 20, key[0] == "per-step")) == threads
            shared = feedback.run_ensembles(configs, FIELD_CHECKPOINTS, fields)
            separate = [run_ensemble_arrays(c, FIELD_CHECKPOINTS, fields) for c in configs]
        assert len(shared) == len(configs)
        for got, want in zip(shared, separate):
            assert np.array_equal(got.cov, want.cov)
            assert_same_fields(got, want, STEP_FIELDS, fields)
        if fields == STEP_FIELDS:
            # the configs step differently on the same normals
            assert not np.array_equal(shared[0].q1, shared[1].q1)

    @pytest.mark.parametrize("name, value", [
        ("seed", 14), ("n_traj", 12), ("t_final", 0.3), ("dt", 0.005), ("policy", "none"),
    ])
    def test_configs_must_agree_on_the_noise(self, name, value):
        base = CHUNK_CONFIGS["terminal"]
        other = dataclasses.replace(base, **{name: value})
        message = f"^ensembles on shared noise must agree on {name}, "
        with mock.patch.object(feedback, "_run_blocks") as run_blocks, \
                pytest.raises(ValueError, match=message):
            feedback.run_ensembles([base, other], [0.1])
        run_blocks.assert_not_called()

    def test_dt_is_compared_as_resolved(self):
        # the default dt of t_final = 1 is 0.01
        base = qm.EngineConfig(n_traj=5, policy="per-step", seed=3)
        configs = [base, dataclasses.replace(base, dt=0.01, nbar=1.0)]
        shared = feedback.run_ensembles(configs, [1.0], ["harvested"])
        for got, config in zip(shared, configs):
            want = run_ensemble_arrays(config, [1.0], ["harvested"])
            assert np.array_equal(got.harvested, want.harvested)

    def test_every_config_is_checked_before_any_worker_starts(self):
        # the second config's covariance flow leaves the physical region at
        # this dt, which building its tables finds, or it fails validate
        base = qm.EngineConfig(
            tau1=1e-3, tau2=1e-3, dt=1e-4, t_final=0.002, n_traj=11, policy="per-step"
        )
        for nbar, message in ((1000.0, "uncertainty bound"), (-1.0, "nbar must lie in")):
            with mock.patch.object(feedback, "_run_blocks") as run_blocks, \
                    pytest.raises(ValueError, match=message):
                feedback.run_ensembles([base, dataclasses.replace(base, nbar=nbar)], [0.001])
            run_blocks.assert_not_called()

    def test_no_config_is_an_error(self):
        with pytest.raises(ValueError, match="need at least one config"):
            feedback.run_ensembles([], [0.1])

    @pytest.mark.parametrize("scheme", ["stratonovich", "ito"])
    @pytest.mark.parametrize("policy", ["per-step", "terminal"])
    def test_the_kernel_only_reads_the_noise(self, policy, scheme):
        # every field of both kernels, on noise that raises if written
        cfg = WORKER_CONFIGS[policy, scheme]
        cov = covariance_series(cfg.nbar, cfg.tau1, cfg.tau2, cfg.resolved_dt, cfg.n_steps)
        noise = np.random.default_rng(3).standard_normal((5, cfg.n_steps, 2))
        frozen = noise.copy()
        frozen.flags.writeable = False
        record = [0, 1, 10, 20]
        got, want = _advance(cfg, cov, frozen, record), _advance(cfg, cov, noise, record)
        assert_same_fields(got, want, STEP_FIELDS, STEP_FIELDS)
        assert np.array_equal(frozen, noise)

    def test_the_ensembles_hand_the_kernel_read_only_noise(self):
        seen = []
        chunk = feedback._chunk

        def recording_chunk(tables, noise, *rest):
            seen.append(noise.flags.writeable)
            return chunk(tables, noise, *rest)

        with mock.patch.object(feedback, "_chunk", recording_chunk):
            feedback.run_ensembles(shared_configs("per-step", "stratonovich"), [0.2])
            run_ensemble_arrays(CHUNK_CONFIGS["terminal"], [0.2])
        assert seen and not any(seen)

    def test_figure_s3_draws_each_block_once(self, tmp_path):
        # 600 trajectories are 3 blocks: their generators are created once
        # for the three channel ratios, not once per ratio
        streams = []
        generator = qm.NoiseSource.generator

        def counting_generator(source):
            streams.append(source.stream)
            return generator(source)

        with mock.patch.object(qm.NoiseSource, "generator", counting_generator):
            cli.main(["presets", "figure-S3", "--n-traj", "600", "--output-dir", str(tmp_path)])
        assert (tmp_path / "efficiency_series.csv").exists()
        assert streams == [0, 1, 2]


class TestCheckpoints:
    def test_repeated_checkpoint_rejected(self):
        cfg = qm.EngineConfig(
            nbar=0.5, dt=0.01, t_final=1.0, n_traj=4, policy="terminal", seed=1
        )
        with pytest.raises(ValueError, match=r"checkpoint time 0\.5 is repeated"):
            run_ensemble_arrays(cfg, [0.5, 0.5, 1.0])
        # the first time that repeats an earlier one is named
        with pytest.raises(ValueError, match=r"^checkpoint time 0\.5 is repeated \(step 50\)$"):
            run_ensemble_arrays(cfg, [0.1, 0.5, 0.2, 0.5, 0.1])

    def test_step_index_of_an_array(self):
        cfg = qm.EngineConfig(dt=0.01, t_final=1.0)
        got = cfg.step_index(np.array([0.0, 0.5, 0.07, 1.0]))
        assert got.dtype.kind == "i" and got.tolist() == [0, 50, 7, 100]
        assert cfg.step_index([]).tolist() == []
        assert cfg.step_index(0.5) == 50 and type(cfg.step_index(0.5)) is int

    @pytest.mark.parametrize("times, message", [
        ([0.5, 0.505, 0.707], r"^time 0\.505 does not lie on the step grid with dt=0\.01$"),
        ([0.5, math.nan], r"^time nan does not lie on the step grid"),
        ([math.inf, 0.5], r"^time inf does not lie on the step grid"),
        ([0.5, 1.5, 2.0], r"^time 1\.5 outside the horizon 1\.0$"),
        ([-0.01, 0.5], r"^time -0\.01 outside the horizon 1\.0$"),
        # the first offending time, whatever its fault
        ([2.0, 0.505], r"^time 2\.0 outside the horizon 1\.0$"),
        ([0.505, 2.0], r"^time 0\.505 does not lie on the step grid"),
    ])
    def test_step_index_names_the_first_offending_time(self, times, message):
        cfg = qm.EngineConfig(dt=0.01, t_final=1.0, n_traj=4)
        with pytest.raises(ValueError, match=message):
            cfg.step_index(np.array(times))
        with pytest.raises(ValueError, match=message):
            run_ensemble_arrays(cfg, times)


def reference_advance(config, cov, noise, record):
    """The kernel's steps from the origin taken one at a time, in plain
    expressions, recording every field."""
    m, n_steps, _ = noise.shape
    dt = config.resolved_dt
    i1 = inv_2tau(config.tau1)
    i2 = inv_2tau(config.tau2)
    w1 = math.sqrt(config.tau1 / dt) if config.tau1 < NO_MEASUREMENT_TAU else 0.0
    w2 = math.sqrt(config.tau2 / dt) if config.tau2 < NO_MEASUREMENT_TAU else 0.0

    use_ito = config.scheme == "ito"
    per_step = config.policy == "per-step"

    out = Steps(
        *(np.zeros((len(record), m)) for _ in STEP_FIELDS), cov=cov[np.asarray(record, int)]
    )
    rows = {int(k): i for i, k in enumerate(record)}
    q1 = np.zeros(m)
    q2 = np.zeros(m)
    led = np.zeros(m)
    ext = np.zeros(m)
    for k in range(n_steps):
        c3, c4, c5 = cov[k]
        rr1 = q1 + w1 * noise[:, k, 0]
        rr2 = q2 + w2 * noise[:, k, 1]
        innov1 = rr1 - q1
        innov2 = rr2 - q2
        new1 = q1 + dt * (q2 + c3 * i1 * innov1 + c4 * i2 * innov2)
        new2 = q2 + dt * (-q1 + c4 * i1 * innov1 + c5 * i2 * innov2)

        inc1 = innov1 * i1 * dt
        inc2 = innov2 * i2 * dt
        if use_ito:
            # the step-start means, with the expectation 1/2 tr S_k between
            # the two channel terms
            drift = 0.25 * dt * ((c3 * c3 + c4 * c4) * i1 + (c4 * c4 + c5 * c5) * i2)
            dW = (q1 * c3 + q2 * c4) * inc1 + drift + (q1 * c4 + q2 * c5) * inc2
        else:
            # midpoint rule on the pre- and post-step means
            m1 = 0.5 * (q1 + new1)
            m2 = 0.5 * (q2 + new2)
            dW = (m1 * c3 + m2 * c4) * inc1 + (m1 * c4 + m2 * c5) * inc2
        led = led + dW

        if per_step:
            harvest = 0.5 * (new1 * new1 + new2 * new2)
            ext = ext + harvest
            q1 = np.zeros(m)
            q2 = np.zeros(m)
        else:
            q1, q2 = new1, new2

        row = rows.get(k + 1)
        if row is not None:
            out.q1[row] = new1
            out.q2[row] = new2
            out.r1[row] = rr1
            out.r2[row] = rr2
            out.increment[row] = dW
            out.ledger[row] = led
            out.harvested[row] = ext
            if per_step:
                out.harvest[row] = harvest
    return out


#: (tau1, tau2, scheme): symmetric, asymmetric and unmonitored channels
KERNEL_CHANNELS = [
    (1.0, 1.0, "stratonovich"),
    (1.0, 1.0, "ito"),
    (1.0, 0.9, "stratonovich"),
    (1.0, 0.9, "ito"),
    (1.0, 1.2, "stratonovich"),
    (1.0, 1.2, "ito"),
    (1.0, math.inf, "stratonovich"),
    (1.0, math.inf, "ito"),
    (math.inf, math.inf, "stratonovich"),
    (math.inf, math.inf, "ito"),
]


@st.composite
def kernel_case(draw, policy):
    """A config, covariance series, noise and record set for _advance."""
    tau1, tau2, scheme = draw(st.sampled_from(KERNEL_CHANNELS))
    n_steps = draw(st.sampled_from([1, 63, 64, 65, 131]))
    m = draw(st.integers(1, 5))
    cfg = qm.EngineConfig(
        nbar=draw(st.sampled_from([0.0, 0.5, 2.0])), tau1=tau1, tau2=tau2, dt=0.01,
        t_final=0.01 * n_steps, policy=policy, scheme=scheme,
    )
    cov = qm.covariance_series(cfg.nbar, cfg.tau1, cfg.tau2, 0.01, n_steps)
    noise = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(
        (m, n_steps, 2)
    )
    kind = draw(st.sampled_from(["normal", "negative zeros", "zeros", "subnormal"]))
    if kind == "negative zeros":
        noise[noise < 0.0] = -0.0
    elif kind == "zeros":
        noise = np.where(noise < 0.0, -0.0, 0.0)
    elif kind == "subnormal":
        # products underflow to signed zeros, which only the 0.0 + terms clear
        noise *= 5e-324
    edges = [k for k in (0, 1, 6, 7, 8, 63, 64, 65, 127, 128, 129, n_steps) if k <= n_steps]
    record = draw(
        st.just(list(range(n_steps + 1)))
        | st.lists(
            st.sampled_from(edges) | st.integers(0, n_steps), min_size=1, max_size=8, unique=True
        )
    )
    return cfg, cov, noise, record


def assert_same_bits(got, want):
    for name in ENSEMBLE_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a.view(np.int64), b.view(np.int64)), name


#: PER_STEP_TILE values of the kernel tests: spans of 1..7 steps, and the default
TILES = [1, 3, 7, feedback.PER_STEP_TILE]


class TestPerStepTiles:
    @pytest.mark.parametrize("tile", TILES)
    @given(case=kernel_case("per-step"))
    @settings(max_examples=40, deadline=None)
    def test_tiles_match_the_step_loop(self, tile, case):
        # a tile of 1 takes one step at a time, of 7 up to 131 spans of 1..7 steps
        cfg, cov, noise, record = case
        with mock.patch.object(feedback, "PER_STEP_TILE", tile):
            got = _advance(cfg, cov, noise, record)
        assert_same_bits(got, reference_advance(cfg, cov, noise, record))

    @given(case=kernel_case("terminal") | kernel_case("none"))
    @settings(max_examples=20, deadline=None)
    def test_free_policies_match_the_step_loop(self, case):
        cfg, cov, noise, record = case
        got = _advance(cfg, cov, noise, record)
        assert_same_bits(got, reference_advance(cfg, cov, noise, record))



class TestKernelFieldSubsets:
    @given(
        case=kernel_case("per-step") | kernel_case("terminal") | kernel_case("none"),
        fields=st.sets(st.sampled_from(STEP_FIELDS), min_size=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_records_only_the_asked_fields(self, case, fields):
        cfg, cov, noise, record = case
        got = _advance(cfg, cov, noise, record, fields)
        want = _advance(cfg, cov, noise, record)
        assert_same_fields(got, want, STEP_FIELDS, fields)

    @pytest.mark.parametrize("tile", TILES)
    @given(
        case=kernel_case("per-step"),
        fields=st.sets(
            st.sampled_from(["q1", "q2", "r1", "r2", "increment", "harvest"]), min_size=1
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_recorded_steps_only_match_the_step_loop(self, tile, case, fields):
        # no running sum asked for: only the recorded steps are taken, here
        # always with grid point 0 and step 1 among them
        cfg, cov, noise, record = case
        record = [0, 1, *(k for k in record if k > 1)]
        with mock.patch.object(feedback, "PER_STEP_TILE", tile):
            got = _advance(cfg, cov, noise, record, fields)
        want = reference_advance(cfg, cov, noise, record)
        assert_same_fields(got, want, STEP_FIELDS, fields)


#: (m, FREE_SCRATCH) of the free-loop test: the noise copy takes 3
#: trajectories by 2 steps in scratch 96, and one step at a time in 32 or,
#: for 1025 trajectories, in 2**14
FREE_WIDTHS = [
    *((m, scratch) for m in (1, 3) for scratch in (2**20, 96, 32)),
    (1024, 2**20), (1025, 2**20), (1025, 2**14),
]


class TestFreeLoop:
    @pytest.mark.parametrize(("tau2", "scheme"), [
        (1.0, "stratonovich"), (1.0, "ito"), (0.7, "stratonovich"), (0.7, "ito"),
        (math.inf, "stratonovich"), (math.inf, "ito"),
    ])
    @pytest.mark.parametrize("policy", ["terminal", "none"])
    @pytest.mark.parametrize(("m", "scratch"), FREE_WIDTHS)
    def test_matches_one_step_call_per_step(self, m, scratch, policy, tau2, scheme):
        cfg = qm.EngineConfig(
            nbar=0.5, tau2=tau2, dt=0.01, t_final=1.31, policy=policy, scheme=scheme
        )
        n = cfg.n_steps
        cov = qm.covariance_series(cfg.nbar, cfg.tau1, cfg.tau2, cfg.resolved_dt, n)
        noise = np.random.default_rng(m).standard_normal((m, n, 2))
        record = range(n + 1)
        want = reference_advance(cfg, cov, noise, record)
        with mock.patch.object(feedback, "FREE_SCRATCH", scratch):
            assert_same_bits(_advance(cfg, cov, noise, record), want)
            # each recorded field alone, so with and without the ledger
            for name in STEP_FIELDS:
                got = _advance(cfg, cov, noise, record, [name])
                assert_same_fields(got, want, STEP_FIELDS, [name])

    @pytest.mark.parametrize("m", [1, 255, 4096, 65536])
    def test_noise_copy_stays_within_the_scratch_bound(self, m):
        # every time-major copy is made into one region of the kernel's
        # scratch, of at most 2**20 bytes; _layout keeps free chunks within
        # 65536 trajectories
        cfg = qm.EngineConfig(dt=0.01, t_final=0.03, policy="terminal")
        cov = qm.covariance_series(0.0, cfg.tau1, cfg.tau2, cfg.resolved_dt, 3)
        noise = np.zeros((m, 3, 2))
        copies = []
        copyto = np.copyto

        def recording_copyto(dst, src, *args, **kwargs):
            copies.append((dst.ctypes.data, dst.nbytes))
            return copyto(dst, src, *args, **kwargs)

        with mock.patch.object(np, "copyto", recording_copyto):
            _advance(cfg, cov, noise, [3], ["q1"])
        assert copies and len({start for start, _ in copies}) == 1
        assert max(size for _, size in copies) <= 2**20
        assert feedback.FREE_SCRATCH == 2**20


#: Each record of the package and its fields, in order.
RECORDS = [
    (Steps, feedback.STEP_FIELDS + ("cov",)),
    (feedback._Tables, ("dt", "w1", "w2", "i1", "i2", "ito", "per_step", "recorded_cov",
                        "grid", "grid_rows", "gains", "drift")),
    (qm.WorkStatistics, ("samples", "mean", "variance", "stderr")),
    (qm.MeanWorkSeries, ("mean", "stderr")),
    (qm.EfficiencySeries, ("eta", "stderr")),
    (qm.KsResult, ("statistic", "pvalue", "passed")),
    (qm.NoiseSource, ("seed", "stream")),
]


class TestRecords:
    @pytest.mark.parametrize("record, names", RECORDS, ids=[r.__name__ for r, _ in RECORDS])
    def test_fields_keep_their_names_and_order_and_are_read_only(self, record, names):
        rec = record(*range(len(names)))
        assert [getattr(rec, name) for name in names] == list(range(len(names)))
        for name in names:
            with pytest.raises(AttributeError):
                setattr(rec, name, -1)

    def test_step_fields_and_the_default_stream(self):
        assert feedback.STEP_FIELDS == (
            "q1", "q2", "r1", "r2", "increment", "ledger", "harvest", "harvested"
        )
        assert qm.NoiseSource(7) == qm.NoiseSource(7, 0)
        assert qm.NoiseSource(7).stream == 0
