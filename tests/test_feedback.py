"""Tests for the step kernel, work ledgers, resets, and trajectory drivers."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import sys
import threading
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmengine as qm
from qmengine import feedback
from qmengine.config import MAX_N_STEPS
from qmengine.errors import UnsupportedConfigurationError
from qmengine.feedback import (
    NORMAL_FORM_TOL, Steps, _advance, _noise_block, run_ensemble_arrays,
)
from qmengine.gaussian import NO_MEASUREMENT_TAU, inv_2tau

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
            gap = np.abs(rec.ledger[0] - displacement_energy(rec)[0])
            assert gap.max() <= 10.0 * dt

    def test_ensemble_mean_matches_accumulated_power(self):
        cfg = qm.EngineConfig(
            nbar=1.0, dt=0.0025, t_final=1.0, n_traj=4000, policy="none", seed=31
        )
        rec = run_ensemble_arrays(cfg, [1.0])
        w = rec.ledger[0]
        se = w.std(ddof=1) / math.sqrt(len(w))
        schedule = qm.sigma_schedule(cfg)
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
            qm.run_trajectory(cfg)

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
        rec = qm.run_trajectory(cfg)
        nu = 0.5 * rec.cov[:-1, 0]
        assert np.array_equal(rec.increment[1:, 0], nu * nu / cfg.tau1 * cfg.resolved_dt)


class TestReset:
    """The per-step branch of the kernel: the only reset code."""

    def test_zero_state(self):
        # zero means and zero innovations: nothing to bank, means stay at 0
        cfg = qm.EngineConfig(dt=0.01, policy="per-step")
        steps = _advance(cfg, constant_cov(1.0, 0.0, 1.0, 2), np.zeros((1, 2, 2)),
                         (0.0, 0.0), [1, 2])
        assert np.all(steps.harvest == 0.0)
        assert np.all(steps.q1 == 0.0) and np.all(steps.q2 == 0.0)

    def test_unit_displacement(self):
        # a displaced start banks (q1^2 + q2^2)/2 of the updated means, and
        # the next step starts from the origin again
        cfg = qm.EngineConfig(dt=0.01, policy="per-step")
        steps = _advance(cfg, constant_cov(1.3, 0.1, 1.5, 2), np.zeros((1, 2, 2)),
                         (1.0, 1.0), [1, 2])
        q1, q2 = steps.q1[0, 0], steps.q2[0, 0]
        assert (q1, q2) == (1.0 + 0.01, 1.0 - 0.01)
        assert steps.harvest[0, 0] == 0.5 * (q1 * q1 + q2 * q2)
        assert steps.harvest[0, 0] == pytest.approx(1.0, abs=1e-3)
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

    def test_unmonitored_rotation_of_displaced_start(self):
        cfg = qm.EngineConfig(
            nbar=0.0, tau1=1e13, tau2=1e13, dt=0.001, t_final=1.571,
            n_traj=1, policy="none", seed=0,
        )
        n = cfg.n_steps
        cov = qm.covariance_series(0.0, cfg.tau1, cfg.tau2, cfg.resolved_dt, n)
        noise = _noise_block(cfg.seed, 0, 1, n)
        steps = _advance(cfg, cov, noise, (1.0, 0.0), [n])
        assert steps.q1[0, 0] == pytest.approx(math.cos(1.571), abs=0.01)
        assert steps.q2[0, 0] == pytest.approx(-math.sin(1.571), abs=0.01)
        assert steps.ledger[0, 0] == 0.0

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
        noise = _noise_block(cfg.seed, 0, cfg.n_traj, n)
        steps = _advance(cfg, cov, noise, (0.0, 0.0), [n // 2, n])
        for q in (steps.q1, steps.q2):
            se = q.std(axis=1, ddof=1) / math.sqrt(cfg.n_traj)
            assert np.all(np.abs(q.mean(axis=1)) <= 4.0 * se)

    def test_record_shapes(self):
        # every grid point 0..n_steps, one column; row 0 is the start
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
        with mock.patch.object(feedback, "_chunk_size", lambda n_traj, n_steps: chunk):
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
        # blocks of 4: 11 trajectories are 3 blocks, so with two CPUs and
        # chunks of two blocks or more the ensemble runs on several workers
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
                mock.patch.object(feedback, "_chunk_size", lambda n_traj, n_steps: chunk):
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
    """Forwards standard_normal to a generator and counts the normals drawn."""

    def __init__(self, gen, counts):
        self.gen = gen
        self.counts = counts

    def standard_normal(self, size=None, out=None):
        self.counts.append(out.size if out is not None else int(np.prod(size)))
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
                seen.clear()
                qm.run_trajectory(cfg, j)
                single[j] = seen[0][0]
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
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), mock.patch.object(
            feedback, "_chunk_size", lambda n_traj, n_steps: chunk
        ):
            rec = run_ensemble_arrays(CHUNK_CONFIGS[policy], [0.0, 0.1, 0.2])
        ref = small_block_default_chunking(policy)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_every_normal_drawn_once_with_chunks_inside_a_block(self):
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.05, n_traj=600, seed=23)
        ref = run_ensemble_arrays(cfg, [cfg.t_final])
        counts = []
        streams = []
        generator = qm.NoiseSource.generator

        def counting_generator(source):
            streams.append(source.stream)
            return _CountingGenerator(generator(source), counts)

        with mock.patch.object(qm.NoiseSource, "generator", counting_generator), \
                mock.patch.object(feedback, "_chunk_size", lambda n_traj, n_steps: 100):
            rec = run_ensemble_arrays(cfg, [cfg.t_final])
        assert sum(counts) == cfg.n_traj * cfg.n_steps * 2
        assert streams == [0, 1, 2]
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    def test_chunks_are_whole_blocks_within_the_budget(self):
        assert feedback._chunk_size(50_000, 100) % feedback.STREAM_BLOCK == 0
        assert feedback._chunk_size(10_000, 2500) == 1024
        assert feedback._chunk_size(10_000, 20_000) == 150  # under one block
        assert feedback._chunk_size(50, 100) == 128


@functools.cache
def single_worker(key):
    with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
            mock.patch.object(feedback, "worker_threads", lambda: 1):
        return run_ensemble_arrays(WORKER_CONFIGS[key], [0.0, 0.1, 0.2])


@contextlib.contextmanager
def blocked_workers(first_chunk, barrier):
    """Two workers of five one-block chunks each on a 40-trajectory ensemble.

    As it draws the noise of its first chunk, before it steps, each worker
    waits at barrier and then calls first_chunk(barrier index, the
    ensemble's cancel event).  Yields the list of the threads of the chunks
    drawn.
    """
    events, chunks = [], []
    fill = feedback._BlockStreams.fill

    def recording_event():
        events.append(threading.Event())
        return events[-1]

    def blocked_fill(streams, out):
        chunks.append(threading.current_thread())
        if chunks.count(chunks[-1]) == 1:
            first_chunk(barrier.wait(), events[0])
        return fill(streams, out)

    with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
            mock.patch.object(feedback, "worker_threads", lambda: 2), \
            mock.patch.object(feedback, "_chunk_size", lambda n_traj, n_steps: 8), \
            mock.patch.object(feedback, "Event", recording_event), \
            mock.patch.object(feedback._BlockStreams, "fill", blocked_fill):
        assert [len(edges) - 1 for edges in feedback._layout(40, 20)] == [5, 5]
        yield chunks


BLOCKED_CONFIG = dataclasses.replace(CHUNK_CONFIGS["terminal"], n_traj=40)


class TestWorkers:
    @given(
        threads=st.integers(1, 4),
        chunk=st.integers(1, 14),
        key=st.sampled_from(sorted(WORKER_CONFIGS)),
    )
    @settings(max_examples=60, deadline=None)
    def test_records_bit_identical_under_any_worker_count(self, threads, chunk, key):
        # blocks of 4: 11 trajectories are 3 blocks, shared by up to 3
        # workers, each with chunks of at least one block
        with mock.patch.object(feedback, "STREAM_BLOCK", 4), \
                mock.patch.object(feedback, "worker_threads", lambda: threads), \
                mock.patch.object(feedback, "_chunk_size", lambda n_traj, n_steps: chunk):
            assert len(feedback._layout(11, 20)) == min(threads, 3, max(1, chunk // 4))
            rec = run_ensemble_arrays(WORKER_CONFIGS[key], [0.0, 0.1, 0.2])
        ref = single_worker(key)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

    @pytest.mark.parametrize("policy", sorted(CHUNK_CONFIGS))
    def test_more_workers_than_cores_with_fast_switching(self, policy):
        # blocks of one trajectory: 8 workers of one-trajectory chunks, with a
        # thread switch about every microsecond
        cfg = CHUNK_CONFIGS[policy]
        with mock.patch.object(feedback, "STREAM_BLOCK", 1), \
                mock.patch.object(feedback, "worker_threads", lambda: 1):
            ref = run_ensemble_arrays(cfg, [0.0, 0.1, 0.2])
        # the chunks stepping at each chunk's start; each chunk sleeps, so
        # that workers free to step at once would overlap
        stepping, seen = [], []
        chunk = feedback._chunk

        def counting_chunk(*args):
            stepping.append(None)
            seen.append(len(stepping))
            try:
                time.sleep(0.002)
                return chunk(*args)
            finally:
                stepping.pop()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(feedback, "STREAM_BLOCK", 1), \
                    mock.patch.object(feedback, "worker_threads", lambda: 8), \
                    mock.patch.object(feedback, "_chunk_size", lambda n_traj, n_steps: 8), \
                    mock.patch.object(feedback, "_chunk", counting_chunk):
                plan = feedback._layout(cfg.n_traj, cfg.n_steps)
                assert len(plan) == 8
                assert all(np.all(np.diff(edges) == 1) for edges in plan)
                rec = run_ensemble_arrays(cfg, [0.0, 0.1, 0.2])
        finally:
            sys.setswitchinterval(interval)
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name
        assert seen
        if policy != "per-step":
            # one worker at a time steps a free-policy chunk
            assert max(seen) == 1

    def test_two_workers_draw_every_normal_once(self):
        cfg = qm.EngineConfig(nbar=0.5, dt=0.01, t_final=0.05, n_traj=600, seed=23)
        with mock.patch.object(feedback, "worker_threads", lambda: 1):
            ref = run_ensemble_arrays(cfg, [cfg.t_final])
        counts = []
        streams = []
        generator = qm.NoiseSource.generator

        def counting_generator(source):
            streams.append((source.stream, threading.current_thread()))
            return _CountingGenerator(generator(source), counts)

        # one block per chunk: the first worker takes block 0, the second
        # takes block 1 and the 88 trajectories of block 2 in two chunks
        with mock.patch.object(qm.NoiseSource, "generator", counting_generator), \
                mock.patch.object(feedback, "worker_threads", lambda: 2), \
                mock.patch.object(feedback, "_chunk_size", lambda n_traj, n_steps: 512):
            assert feedback._layout(cfg.n_traj, cfg.n_steps) == [[0, 256], [256, 512, 600]]
            rec = run_ensemble_arrays(cfg, [cfg.t_final])
        assert sum(counts) == cfg.n_traj * cfg.n_steps * 2
        # each block's generator is created once, on the calling thread
        assert streams == [(b, threading.current_thread()) for b in (0, 1, 2)]
        for name in ENSEMBLE_FIELDS:
            assert np.array_equal(getattr(rec, name), getattr(ref, name)), name

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

    def test_a_failing_worker_stops_the_other(self):
        def first_chunk(index, cancel):
            if index == 0:
                raise RuntimeError("worker failed")
            cancel.wait(10)  # released when the caller cancels

        with blocked_workers(first_chunk, threading.Barrier(2, timeout=10)) as chunks:
            with pytest.raises(RuntimeError, match="worker failed"):
                run_ensemble_arrays(BLOCKED_CONFIG, [BLOCKED_CONFIG.t_final])
        # each worker ran the first of its five chunks, and no other
        assert len(chunks) == len(set(chunks)) == 2

    def test_an_interrupt_stops_the_workers(self):
        barrier = threading.Barrier(3, timeout=10)

        def interrupted_wait(*args, **kwargs):
            barrier.wait()  # both workers are in their first chunk
            raise KeyboardInterrupt

        with blocked_workers(lambda index, cancel: cancel.wait(10), barrier) as chunks, \
                mock.patch.object(feedback, "wait", interrupted_wait):
            with pytest.raises(KeyboardInterrupt):
                run_ensemble_arrays(BLOCKED_CONFIG, [BLOCKED_CONFIG.t_final])
        assert len(chunks) == len(set(chunks)) == 2

    def test_chunks_are_whole_blocks_without_a_narrow_tail(self):
        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            # default continuous: three chunks of 6 or 7 blocks per worker,
            # within the 2048 trajectories of FREE_TILE // 100
            assert feedback._layout(10_000, 100) == [
                [0, 1536, 3328, 5120], [5120, 6656, 8448, 10_000]
            ]
            # figure-2c: five chunks of four blocks per worker, FREE_WIDTH
            assert feedback._layout(10_000, 500)[0] == [0, 1024, 2048, 3072, 4096, 5120]
            # figure-S3: ten chunks of two blocks per worker
            assert [len(e) - 1 for e in feedback._layout(10_000, 2500)] == [10, 10]
        with mock.patch.object(feedback, "worker_threads", lambda: 64):
            # a 1024-trajectory bound holds one block for each of 4 workers
            plan = feedback._layout(10_000, 2500)
            widths = np.concatenate([np.diff(edges) for edges in plan])
            assert len(plan) == 4
            assert np.all(widths[:-1] == 256) and widths[-1] == 10_000 % 256

    @pytest.mark.parametrize("threads", [1, 2, 64])
    def test_free_chunks_stay_within_the_cap(self, threads):
        # computed from the layout, nothing is allocated
        with mock.patch.object(feedback, "worker_threads", lambda: threads):
            for n_steps in (1, 100, 200, 201, 500, 2500, 20_000, MAX_N_STEPS):
                for n_traj in (1, 50, 300, 1000, 10_000, 11_000, 50_000):
                    plan = feedback._layout(n_traj, n_steps)
                    blocks = -(-n_traj // 256)
                    bound = feedback._chunk_size(n_traj, n_steps)
                    # the worker count is what it was with one chunk per worker
                    workers = min(threads, blocks, max(1, bound // 256))
                    assert len(plan) == workers
                    cfg = qm.EngineConfig(n_traj=n_traj, dt=1.0 / n_steps, policy="terminal")
                    assert feedback.ensemble_workers(cfg) == workers
                    # whole blocks per worker, cut into chunks within the cap
                    assert [e[0] for e in plan] == [256 * (e[0] // 256) for e in plan]
                    widths = np.concatenate([np.diff(edges) for edges in plan])
                    cap = max(feedback.FREE_WIDTH, feedback.FREE_TILE // n_steps)
                    assert 1 <= widths.min() and widths.max() <= min(cap, bound // workers)
                    if widths.max() >= 256:
                        inner = np.concatenate([edges[1:-1] for edges in plan])
                        assert np.all(inner % 256 == 0)
        with mock.patch.object(feedback, "worker_threads", lambda: 2):
            # continuous --policy terminal at 5 * 10**4: 13 chunks of at most
            # 2048 trajectories per worker, 3.3 MB of noise each
            plan = feedback._layout(50_000, 100)
            assert [len(e) - 1 for e in plan] == [13, 13]
            assert max(np.diff(e).max() for e in plan) == 2048
            assert feedback.ensemble_workers(
                qm.EngineConfig(n_traj=50_000, policy="terminal")
            ) == 2

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
            # figure-S3: 16 trajectories by 2500 steps, 640 kB of noise
            assert [len(e) - 1 for e in feedback._layout(10_000, 2500, True)] == [320, 305]
            cfg = qm.EngineConfig(dt=0.01, t_final=25.0, n_traj=10_000, policy="per-step")
            assert feedback.ensemble_workers(cfg) == 2

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
        assert feedback._chunk_size(10_000, MAX_N_STEPS) == 3


class TestCheckpoints:
    def test_repeated_checkpoint_rejected(self):
        cfg = qm.EngineConfig(
            nbar=0.5, dt=0.01, t_final=1.0, n_traj=4, policy="terminal", seed=1
        )
        with pytest.raises(ValueError, match=r"checkpoint time 0\.5 is repeated"):
            run_ensemble_arrays(cfg, [0.5, 0.5, 1.0])


def reference_advance(config, cov, noise, start, record):
    """The one-step-at-a-time loop that the per-step tiles replaced."""
    m, n_steps, _ = noise.shape
    dt = config.resolved_dt
    i1 = inv_2tau(config.tau1)
    i2 = inv_2tau(config.tau2)
    w1 = math.sqrt(config.tau1 / dt) if config.tau1 < NO_MEASUREMENT_TAU else 0.0
    w2 = math.sqrt(config.tau2 / dt) if config.tau2 < NO_MEASUREMENT_TAU else 0.0

    use_ito = config.scheme == "ito"
    if use_ito and (
        np.abs(cov[:, 1]).max() > NORMAL_FORM_TOL
        or np.abs(cov[:, 0] - cov[:, 2]).max() > NORMAL_FORM_TOL
    ):
        raise UnsupportedConfigurationError(
            "Ito work ledger requires the covariance normal form along the run"
        )
    per_step = config.policy == "per-step"

    out = Steps(
        *(np.zeros((len(record), m)) for _ in STEP_FIELDS), cov=cov[np.asarray(record, int)]
    )
    rows = {int(k): i for i, k in enumerate(record)}
    row = rows.get(0)
    if row is not None:
        out.q1[row] = start[0]
        out.q2[row] = start[1]

    q1 = np.full(m, float(start[0]))
    q2 = np.full(m, float(start[1]))
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
            # power drift nu**2/tau * dt (nu = q3/2) plus the martingale part
            nu = 0.5 * c3
            dW = nu * nu / config.tau1 * dt + q1 * c3 * inc1 + q2 * c5 * inc2
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
    (1.0, 1.2, "stratonovich"),
    (1.0, math.inf, "stratonovich"),
    (math.inf, math.inf, "stratonovich"),
    (math.inf, math.inf, "ito"),
]


@st.composite
def kernel_case(draw, policy):
    """A config, covariance series, noise, start and record set for _advance."""
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
    start = draw(st.sampled_from([(0.0, 0.0), (1.0, 1.0), (0.3, -0.2), (-0.0, 0.0)]))
    edges = [k for k in (0, 1, 6, 7, 8, 63, 64, 65, 127, 128, 129, n_steps) if k <= n_steps]
    record = draw(
        st.just(list(range(n_steps + 1)))
        | st.lists(st.sampled_from(edges) | st.integers(0, n_steps), min_size=1, max_size=8)
    )
    return cfg, cov, noise, start, record


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
        cfg, cov, noise, start, record = case
        with mock.patch.object(feedback, "PER_STEP_TILE", tile):
            got = _advance(cfg, cov, noise, start, record)
        assert_same_bits(got, reference_advance(cfg, cov, noise, start, record))

    @given(case=kernel_case("terminal") | kernel_case("none"))
    @settings(max_examples=20, deadline=None)
    def test_free_policies_match_the_step_loop(self, case):
        cfg, cov, noise, start, record = case
        got = _advance(cfg, cov, noise, start, record)
        assert_same_bits(got, reference_advance(cfg, cov, noise, start, record))



class TestKernelFieldSubsets:
    @given(
        case=kernel_case("per-step") | kernel_case("terminal") | kernel_case("none"),
        fields=st.sets(st.sampled_from(STEP_FIELDS), min_size=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_records_only_the_asked_fields(self, case, fields):
        cfg, cov, noise, start, record = case
        got = _advance(cfg, cov, noise, start, record, fields)
        want = _advance(cfg, cov, noise, start, record)
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
        cfg, cov, noise, start, record = case
        record = [0, 1, *record]
        with mock.patch.object(feedback, "PER_STEP_TILE", tile):
            got = _advance(cfg, cov, noise, start, record, fields)
        want = reference_advance(cfg, cov, noise, start, record)
        assert_same_fields(got, want, STEP_FIELDS, fields)


def step_call_advance(config, cov, noise, start, record):
    """The free policies as one ``_step`` call per step, recording every field."""
    rates = feedback._rates(config, cov)
    m, n_steps, _ = noise.shape
    out = Steps(
        *(np.zeros((len(record), m)) for _ in STEP_FIELDS), cov=cov[np.asarray(record, int)]
    )
    rows = {int(k): i for i, k in enumerate(record)}
    if 0 in rows:
        out.q1[rows[0]], out.q2[rows[0]] = start
    q1 = np.full(m, float(start[0]))
    q2 = np.full(m, float(start[1]))
    led = np.zeros(m)
    for k in range(n_steps):
        rr1, rr2, q1, q2, dw = feedback._step(
            rates, q1, q2, noise[:, k, 0], noise[:, k, 1], *cov[k]
        )
        led = led + dw
        row = rows.get(k + 1)
        if row is not None:
            for name, value in (("q1", q1), ("q2", q2), ("r1", rr1), ("r2", rr2),
                                ("increment", dw), ("ledger", led)):
                getattr(out, name)[row] = value
    return out


#: (m, FREE_SCRATCH) of the free-loop test: scratch 96 takes 3 trajectories
#: by 2 steps, 32 takes 2 by 1, and 2**14 takes 1024 by one step, so 1025
#: trajectories leave a one-trajectory pass in buffers whose rows are strided
FREE_WIDTHS = [
    *((m, scratch) for m in (1, 3) for scratch in (2**20, 96, 32)),
    (1024, 2**20), (1025, 2**20), (1025, 2**14),
]


class TestFreeLoop:
    @pytest.mark.parametrize(("tau2", "scheme"), [
        (1.0, "stratonovich"), (1.0, "ito"), (0.7, "stratonovich"), (math.inf, "stratonovich"),
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
        want = step_call_advance(cfg, cov, noise, (0.3, -0.2), record)
        with mock.patch.object(feedback, "FREE_SCRATCH", scratch):
            assert_same_bits(_advance(cfg, cov, noise, (0.3, -0.2), record), want)
            # each recorded field alone, so with and without the ledger
            for name in STEP_FIELDS:
                got = _advance(cfg, cov, noise, (0.3, -0.2), record, [name])
                assert_same_fields(got, want, STEP_FIELDS, [name])

    @pytest.mark.parametrize("m", [1, 255, 4096, 65536, 65539])
    def test_noise_copy_stays_within_the_scratch_bound(self, m):
        # every time-major copy is made into one buffer of at most 2**20 bytes
        cfg = qm.EngineConfig(dt=0.01, t_final=0.03, policy="terminal")
        cov = qm.covariance_series(0.0, cfg.tau1, cfg.tau2, cfg.resolved_dt, 3)
        noise = np.zeros((m, 3, 2))
        buffers = []
        copyto = np.copyto

        def recording_copyto(dst, src, *args, **kwargs):
            buffers.append(dst if dst.base is None else dst.base)
            return copyto(dst, src, *args, **kwargs)

        with mock.patch.object(np, "copyto", recording_copyto):
            _advance(cfg, cov, noise, (0.0, 0.0), [3], ["q1"])
        assert buffers and max(b.nbytes for b in buffers) <= 2**20
        assert feedback.FREE_SCRATCH == 2**20
