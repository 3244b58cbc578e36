"""Conditional-state step kernel, work extraction, and trajectory drivers.

Each step of the monitored oscillator is one Gaussian conditional-state
update: the two readouts r_i = q_i + sqrt(tau_i/dt) * g_i (g_i standard
normal; an unmonitored channel reports r_i = q_i), an Euler-Maruyama mean
step driven by the innovations r_i - q_i weighted by the current
covariances, a work-ledger increment, and an optional reset.  One array
function, ``_advance``, performs this update for a block of trajectories;
``run_ensemble_arrays`` calls it once per chunk of trajectories and
``run_trajectory`` calls it for a single trajectory, recording every step.
Noise comes from one stream per block of STREAM_BLOCK trajectories, so a
trajectory's noise does not depend on how the ensemble is chunked.  The
blocks of an ensemble are shared out in contiguous ranges among up to one
thread per available CPU (``worker_threads``), and no more threads than
whole blocks fit the bound on the noise in flight (``_layout``).  Each
thread draws and advances its own trajectories into its own columns of the
outputs; numpy releases the GIL in the draws and in the kernel's array
operations, so the threads run at the same time.  Results do not depend on
the number of threads, and so not on the CPU count.

Work is harvested by shifting the bottom of the harmonic trap onto the
conditional mean, which zeroes (q1, q2), leaves the covariances untouched,
and banks (q1**2 + q2**2)/2 units of hbar*omega.  ``_per_step``, which
``_advance`` calls for the per-step policy, is the only reset code: every
step after the first starts at the origin, so it takes the steps in tiles of
trajectories by steps rather than one at a time.  The covariances stay
untouched because the kernel only reads them, from
``gaussian.covariance_series``.  The policies are:

* ``per-step``  -- the trap is re-centered after every measurement step,
  equivalent to a continuously applied linear feedback Hamiltonian in the
  small-dt limit;
* ``terminal``  -- the oscillator diffuses freely and a single feedback is
  applied at the end of the run;
* ``none``      -- no extraction, diagnostics only.

Alongside the harvested work, each trajectory carries a work ledger that
accrues the stochastic work increments in one of two equivalent
discretizations: a midpoint (Stratonovich) rule driven by the raw noise
increments, or an Ito rule whose deterministic drift is the instantaneous
power nu(t)**2/tau (defined only for symmetric channels in covariance
normal form).  Both ledgers agree with the harvested work in ensemble mean.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import pairwise
from threading import Event
from typing import Sequence

import numpy as np

from .config import EngineConfig
from .errors import UnsupportedConfigurationError
from .gaussian import NoiseSource, covariance_series

#: Absolute slack on |q4| and |q3 - q5| when the Ito ledger checks that the
#: covariance matrix is in normal form.
NORMAL_FORM_TOL = 1e-9

#: Trajectories per noise stream.  Trajectory j draws its (n_steps, 2)
#: standard normals from stream (seed, j // STREAM_BLOCK), right after the
#: draws of the trajectories before it in the same block.
STREAM_BLOCK = 256

#: Tile shape of the per-step policy, trajectories by steps.  Bounded in both
#: axes, so its seven buffers take at most 7 * 256 * 64 * 8 bytes (0.9 MB).
TILE_TRAJ = 256
TILE_STEPS = 64

#: The noise layout of ensembles, as recorded in each run's manifest.
STREAM_LAYOUT = {
    "bit_generator": "PCG64",
    "seeding": "SeedSequence(seed, spawn_key=(block,))",
    "stream_block": STREAM_BLOCK,
    "order": "trajectory-major within a block",
}


@dataclass(frozen=True, slots=True)
class WorkLedger:
    """Per-step work increments of one trajectory and their running sum."""

    scheme: str
    increments: np.ndarray
    cumulative: np.ndarray


@dataclass(frozen=True, slots=True)
class TrajectoryRecord:
    """Full time series of one monitored trajectory.

    States are recorded after the mean update of each step and before any
    reset, so for the per-step policy (q1, q2) show the single-step
    displacements that are harvested.  Arrays r1, r2 and the ledger hold one
    entry per step; ``extracted`` holds the work banked at each step (zero
    except at harvest events).
    """

    t: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    q3: np.ndarray
    q4: np.ndarray
    q5: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    ledger: WorkLedger
    extracted: np.ndarray
    policy: str


@dataclass(frozen=True, slots=True)
class EnsembleRecord:
    """Checkpointed per-trajectory quantities of an ensemble run.

    All arrays have shape (n_checkpoints, n_traj) except ``cov`` which holds
    the shared deterministic covariance triplet at each checkpoint.  The
    displacement energy is taken from the means after the mean update and
    before any reset.
    """

    cov: np.ndarray
    ledger_cum: np.ndarray
    extracted_cum: np.ndarray
    displacement_energy: np.ndarray
    step_work: np.ndarray


@dataclass(frozen=True, slots=True)
class _Steps:
    """What ``_advance`` records: arrays of shape (len(record), m).

    Row i belongs to the step ending at grid point record[i].  A row for
    grid point 0 holds the starting means and zeros elsewhere.
    """

    q1: np.ndarray  # means after the mean update, before any reset
    q2: np.ndarray
    r1: np.ndarray  # readouts of the step
    r2: np.ndarray
    increment: np.ndarray  # work-ledger increment of the step
    ledger: np.ndarray  # running sum of the increments
    harvest: np.ndarray  # work banked by a per-step reset at this step
    harvested: np.ndarray  # running sum of the harvests


@dataclass(frozen=True, slots=True)
class _Rates:
    """Constants of every step: the step, readout weights and backaction factors."""

    dt: float
    w1: float  # readout noise weight sqrt(tau_i/dt), 0 for an unmonitored channel
    w2: float
    i1: float  # 1/(2 tau_i), 0 for an unmonitored channel
    i2: float
    tau1: float
    ito: bool


def _rates(config: EngineConfig, cov: np.ndarray) -> _Rates:
    """The step constants of config; an Ito ledger needs cov in normal form."""
    dt = config.resolved_dt
    channels = config.channels()
    ito = config.scheme == "ito"
    if ito and (
        np.abs(cov[:, 1]).max() > NORMAL_FORM_TOL
        or np.abs(cov[:, 0] - cov[:, 2]).max() > NORMAL_FORM_TOL
    ):
        raise UnsupportedConfigurationError(
            "Ito work ledger requires the covariance normal form along the run"
        )
    return _Rates(
        dt=dt,
        w1=math.sqrt(channels.tau1 / dt) if channels.monitors_position else 0.0,
        w2=math.sqrt(channels.tau2 / dt) if channels.monitors_momentum else 0.0,
        i1=channels.inv_2tau1,
        i2=channels.inv_2tau2,
        tau1=channels.tau1,
        ito=ito,
    )


def _step(s: _Rates, q1, q2, g1, g2, c3, c4, c5):
    """One conditional-state step from the means (q1, q2) with normals (g1, g2).

    Returns the readouts, the updated means and the work-ledger increment.
    """
    dt, i1, i2 = s.dt, s.i1, s.i2
    rr1 = q1 + s.w1 * g1
    rr2 = q2 + s.w2 * g2
    innov1 = rr1 - q1
    innov2 = rr2 - q2
    new1 = q1 + dt * (q2 + c3 * i1 * innov1 + c4 * i2 * innov2)
    new2 = q2 + dt * (-q1 + c4 * i1 * innov1 + c5 * i2 * innov2)

    inc1 = innov1 * i1 * dt
    inc2 = innov2 * i2 * dt
    if s.ito:
        # power drift nu**2/tau * dt (nu = q3/2) plus the martingale part
        nu = 0.5 * c3
        dW = nu * nu / s.tau1 * dt + q1 * c3 * inc1 + q2 * c5 * inc2
    else:
        # midpoint rule on the pre- and post-step means
        m1 = 0.5 * (q1 + new1)
        m2 = 0.5 * (q2 + new2)
        dW = (m1 * c3 + m2 * c4) * inc1 + (m1 * c4 + m2 * c5) * inc2
    return rr1, rr2, new1, new2, dW


def _advance(
    config: EngineConfig,
    cov: np.ndarray,
    noise: np.ndarray,
    start: tuple[float, float],
    record: Sequence[int],
) -> _Steps:
    """Advance m trajectories by noise.shape[1] conditional-state steps.

    ``noise`` has shape (m, n_steps, 2): two standard normals per trajectory
    and step, consumed also for unmonitored channels so the stream layout
    does not depend on the channel setup.  ``cov`` holds the covariance
    triplet (q3, q4, q5) at grid points 0..n_steps, ``start`` the means at
    grid point 0, and ``record`` the grid points to record.  The scheme
    picks the ledger rule.  Under ``per-step`` the means are reset after
    every step and ``_per_step`` takes the steps in tiles; otherwise the
    means evolve freely, one ``_step`` at a time.
    """
    m, n_steps, _ = noise.shape
    rates = _rates(config, cov)
    out = _Steps(*(np.zeros((len(record), m)) for _ in range(8)))
    rows = {int(k): i for i, k in enumerate(record)}
    row = rows.get(0)
    if row is not None:
        out.q1[row] = start[0]
        out.q2[row] = start[1]
    if config.policy == "per-step":
        _per_step(rates, cov, noise, start, rows, out)
        return out

    q1 = np.full(m, float(start[0]))
    q2 = np.full(m, float(start[1]))
    led = np.zeros(m)
    for k in range(n_steps):
        g = noise[:, k]
        rr1, rr2, q1, q2, dW = _step(rates, q1, q2, g[:, 0], g[:, 1], *cov[k])
        led = led + dW
        row = rows.get(k + 1)
        if row is not None:
            out.q1[row] = q1
            out.q2[row] = q2
            out.r1[row] = rr1
            out.r2[row] = rr2
            out.increment[row] = dW
            out.ledger[row] = led
    return out


def _per_step(
    s: _Rates,
    cov: np.ndarray,
    noise: np.ndarray,
    start: tuple[float, float],
    rows: dict[int, int],
    out: _Steps,
) -> None:
    """The per-step policy: fill ``out`` as a step loop with resets would.

    After each step the trap is re-centred, so every step from the second on
    starts at the origin: its readouts, updated means, harvest and ledger
    increment depend only on its own normals and covariance row.  Steps are
    taken for tiles of TILE_TRAJ trajectories by TILE_STEPS steps, with the
    expressions of ``_step`` at q1 = q2 = 0, in the same order.  A term of
    those expressions is dropped only where it cannot change a bit of the
    result, such as a ``0.0 +`` that cannot change the sign of a zero.  The
    first step starts from ``start`` and is taken by ``_step`` itself.  Running
    sums are cumulative sums along the steps, with the previous tile's total
    added to the first column, so they add in the loop's order.
    """
    m, n_steps, _ = noise.shape
    dt = s.dt
    c3, c4, c5 = np.ascontiguousarray(cov[:n_steps].T)
    a1, b1, a2, b2 = c3 * s.i1, c4 * s.i2, c4 * s.i1, c5 * s.i2
    if s.ito:
        nu = 0.5 * c3
        drift = nu * nu / s.tau1 * dt

    # recorded grid points 1..n_steps, and where each tile's run of them starts
    grid = np.array(sorted(k for k in rows if 0 < k <= n_steps), dtype=int)
    grid_rows = np.array([rows[k] for k in grid], dtype=int)
    edges = np.searchsorted(grid, np.arange(0, n_steps + TILE_STEPS, TILE_STEPS), "right")

    buffers = [np.empty((min(m, TILE_TRAJ), min(n_steps, TILE_STEPS))) for _ in range(7)]
    for j0 in range(0, m, TILE_TRAJ):
        j1 = min(j0 + TILE_TRAJ, m)
        led = np.zeros(j1 - j0)
        ext = np.zeros(j1 - j0)
        for t, k0 in enumerate(range(0, n_steps, TILE_STEPS)):
            k1 = min(k0 + TILE_STEPS, n_steps)
            cols = slice(k0, k1)
            r1, r2, n1, n2, x, dw, h = (b[: j1 - j0, : k1 - k0] for b in buffers)
            g = noise[j0:j1, k0:k1]

            # readouts 0 + w*g, which are also the innovations r - 0
            np.multiply(g[:, :, 0], s.w1, out=r1)
            r1 += 0.0
            np.multiply(g[:, :, 1], s.w2, out=r2)
            r2 += 0.0
            # new1 = 0 + dt*((0 + a1*innov1) + b1*innov2); the inner 0 + can
            # only change the sign of a zero sum, which the outer one clears
            np.multiply(r1, a1[cols], out=n1)
            np.multiply(r2, b1[cols], out=x)
            n1 += x
            n1 *= dt
            n1 += 0.0
            # new2 = 0 + dt*((-0 + a2*innov1) + b2*innov2); -0 + y is y
            np.multiply(r1, a2[cols], out=n2)
            np.multiply(r2, b2[cols], out=x)
            n2 += x
            n2 *= dt
            n2 += 0.0
            if k0 == 0:
                q1 = np.full(j1 - j0, float(start[0]))
                q2 = np.full(j1 - j0, float(start[1]))
                r1[:, 0], r2[:, 0], n1[:, 0], n2[:, 0], dw0 = _step(
                    s, q1, q2, g[:, 0, 0], g[:, 0, 1], *cov[0]
                )
            # harvest 0.5*(new1*new1 + new2*new2)
            np.multiply(n1, n1, out=h)
            np.multiply(n2, n2, out=x)
            h += x
            h *= 0.5
            at = grid[edges[t]:edges[t + 1]] - 1 - k0
            into = grid_rows[edges[t]:edges[t + 1]]
            if len(at):
                for field, tile in ((out.q1, n1), (out.q2, n2), (out.r1, r1),
                                    (out.r2, r2)):
                    field[into, j0:j1] = tile[:, at].T

            if s.ito:
                # nu**2/tau*dt + (q1*c3)*inc1 + (q2*c5)*inc2 at q1 = q2 = 0:
                # for finite normals the products are signed zeros, and the
                # drift (>= +0) plus a signed zero is the drift
                dw[...] = drift[cols]
            else:
                # (m1*c3 + m2*c4)*inc1 + (m1*c4 + m2*c5)*inc2, m_i = 0.5*(0 + new_i)
                # and inc_i = innov_i*i_i*dt
                r1 *= s.i1
                r1 *= dt
                r2 *= s.i2
                r2 *= dt
                n1 *= 0.5
                n2 *= 0.5
                np.multiply(n1, c3[cols], out=dw)
                np.multiply(n2, c4[cols], out=x)
                dw += x
                dw *= r1
                np.multiply(n1, c4[cols], out=x)
                n2 *= c5[cols]
                x += n2
                x *= r2
                dw += x
            if k0 == 0:
                dw[:, 0] = dw0

            for tile, total, field, running in (
                (dw, led, out.increment, out.ledger),
                (h, ext, out.harvest, out.harvested),
            ):
                if len(at):
                    field[into, j0:j1] = tile[:, at].T
                tile[:, 0] += total
                np.add.accumulate(tile, axis=1, out=tile)
                total[:] = tile[:, -1]
                if len(at):
                    running[into, j0:j1] = tile[:, at].T


def run_trajectory(config: EngineConfig, noise: NoiseSource) -> TrajectoryRecord:
    """Simulate one trajectory from a thermal state under the configured policy.

    Pure function of (config, noise): identical inputs reproduce identical
    records.  NoiseSource(config.seed, j) selects trajectory j of the
    ensemble (``NoiseSource`` defines both readings of ``stream``): its noise
    is drawn from block stream j // STREAM_BLOCK after skipping the
    j mod STREAM_BLOCK trajectories before it, so the record equals
    trajectory j of ``run_ensemble_arrays``.  The work ledger accrues
    increments in config.scheme; harvested work is recorded separately in
    ``extracted`` (every step for the per-step policy, once at the horizon
    for the terminal policy).
    """
    config.validate()
    n = config.n_steps
    cov = covariance_series(config.nbar, config.channels(), config.resolved_dt, n)
    g = _noise_block(noise, noise.stream, noise.stream + 1, n)
    steps = _advance(config, cov, g, (0.0, 0.0), range(n + 1))
    q1 = steps.q1[:, 0]
    q2 = steps.q2[:, 0]
    extracted = steps.harvest[1:, 0]
    if config.policy == "terminal":
        extracted[-1] = 0.5 * (q1[n] * q1[n] + q2[n] * q2[n])
    return TrajectoryRecord(
        t=np.arange(n + 1) * config.resolved_dt,
        q1=q1,
        q2=q2,
        q3=cov[:, 0],
        q4=cov[:, 1],
        q5=cov[:, 2],
        r1=steps.r1[1:, 0],
        r2=steps.r2[1:, 0],
        ledger=WorkLedger(
            scheme=config.scheme,
            increments=steps.increment[1:, 0],
            cumulative=steps.ledger[1:, 0],
        ),
        extracted=extracted,
        policy=config.policy,
    )


def _chunk_size(n_traj: int, n_steps: int) -> int:
    """Trajectories whose noise may be in flight at once, across all workers."""
    budget = 48_000_000  # bytes of noise
    per_traj = 16 * max(n_steps, 1)
    fits = budget // per_traj
    if fits >= STREAM_BLOCK:
        fits -= fits % STREAM_BLOCK  # whole blocks: each chunk opens its own streams
    return max(min(128, fits), min(n_traj, fits), 1)


def worker_threads() -> int:
    """CPUs this process may run on: the most threads one ensemble uses."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(start: int, stop: int, parts: int, unit: int) -> list[int]:
    """Edges of parts near-equal pieces of start..stop-1, cut every unit from start."""
    units = -(-(stop - start) // unit)
    return [min(stop, start + unit * (units * i // parts)) for i in range(parts + 1)]


def _layout(n_traj: int, n_steps: int) -> list[list[int]]:
    """Chunk edges of each worker thread of an ensemble.

    Each worker takes one contiguous range of whole blocks and advances it in
    near-equal chunks, so no narrow tail chunk is left.  The workers share
    the ``_chunk_size`` bound, so the noise in flight does not grow with
    their number: if the whole ensemble fits it, each worker takes its range
    at once; otherwise each worker's chunks hold at most the bound divided
    by the workers.  A worker's chunk is at least one whole block, which
    caps the workers where the bound is small.
    """
    bound = _chunk_size(n_traj, n_steps)
    n_blocks = -(-n_traj // STREAM_BLOCK)
    workers = min(worker_threads(), n_blocks, max(1, bound // STREAM_BLOCK))
    ranges = _split(0, n_traj, workers, STREAM_BLOCK)
    if bound >= n_traj:
        return [[a, b] for a, b in pairwise(ranges)]
    per_worker = bound // workers
    unit = STREAM_BLOCK if per_worker >= STREAM_BLOCK else 1
    return [
        _split(a, b, -(-(b - a) // (per_worker - per_worker % unit)), unit)
        for a, b in pairwise(ranges)
    ]


def ensemble_workers(config: EngineConfig) -> int:
    """Worker threads that ``run_ensemble_arrays`` uses for config's ensemble."""
    return len(_layout(config.n_traj, config.n_steps))


class _BlockStreams:
    """Draws the noise of trajectories first..stop-1 from their block streams.

    The generators of their blocks are created here, once each and in block
    order, so the fills may run on another thread.  The first fill skips the
    draws of the trajectories before ``first`` in its block; each generator
    is carried across fills, so a run of fills draws every normal exactly
    once.
    """

    def __init__(self, seed: int, first: int, stop: int) -> None:
        self.next = first
        self.skip = first % STREAM_BLOCK
        self.gens = {
            block: NoiseSource(seed, block).generator()
            for block in range(first // STREAM_BLOCK, -(-stop // STREAM_BLOCK))
        }

    def fill(self, out: np.ndarray) -> None:
        """Fill out, shape (m, n_steps, 2), with the next m trajectories."""
        pos = 0
        while pos < len(out):
            block, offset = divmod(self.next, STREAM_BLOCK)
            gen = self.gens[block]
            for _ in range(self.skip):  # skipped trajectories, overwritten below
                gen.standard_normal(out=out[pos])
            self.skip = 0
            take = min(len(out) - pos, STREAM_BLOCK - offset)
            gen.standard_normal(out=out[pos:pos + take])
            pos += take
            self.next += take


def _noise_block(base: NoiseSource, start: int, stop: int, n_steps: int) -> np.ndarray:
    """Noise of trajectories start..stop-1 of the ensemble with base.seed."""
    noise = np.empty((stop - start, n_steps, 2))
    _BlockStreams(base.seed, start, stop).fill(noise)
    return noise


def _run_blocks(
    config: EngineConfig,
    cov: np.ndarray,
    cp_idx: np.ndarray,
    streams: _BlockStreams,
    edges: list[int],
    out: tuple[np.ndarray, ...],
    cancel: Event,
) -> None:
    """Advance the chunks between consecutive edges into their columns of out.

    Stops before its next chunk once cancel is set.
    """
    ledger_cum, extracted_cum, displacement, step_work = out
    buffer = np.empty((max(np.diff(edges)), config.n_steps, 2))
    for a, b in pairwise(edges):
        if cancel.is_set():
            return
        noise = buffer[: b - a]
        streams.fill(noise)
        steps = _advance(config, cov, noise, (0.0, 0.0), cp_idx)
        ledger_cum[:, a:b] = steps.ledger
        extracted_cum[:, a:b] = steps.harvested
        displacement[:, a:b] = 0.5 * (steps.q1 * steps.q1 + steps.q2 * steps.q2)
        step_work[:, a:b] = (
            steps.harvest if config.policy == "per-step" else steps.increment
        )


def run_ensemble_arrays(
    config: EngineConfig, checkpoints: Sequence[float]
) -> EnsembleRecord:
    """Advance n_traj independent trajectories, checkpointing work quantities.

    Trajectory j consumes its slice of block stream (config.seed,
    j // STREAM_BLOCK).  The blocks are split into one contiguous range per
    worker thread (``_layout``); every block generator is created here, on
    the calling thread, and each worker refills its own noise buffer for
    each of its chunks and writes its own columns.  Every normal is drawn
    once, so results are independent of chunking and of the worker count,
    and equal to run_trajectory with NoiseSource(config.seed, j).  When a
    worker raises, or the caller is interrupted, the other workers stop at
    their next chunk and the exception is raised here.
    Checkpoint times must lie on the step grid, each at most once.

    Returns per-trajectory arrays at each checkpoint: the ledger cumulative,
    the cumulative harvested work, the displacement energy (q1**2+q2**2)/2
    of the running state before any reset at that step, and the single-step
    harvest/increment of the step ending at the checkpoint.
    """
    config.validate()
    n_steps = config.n_steps
    cp_idx = np.array([config.step_index(tc) for tc in checkpoints], dtype=int)
    if len(cp_idx) == 0:
        raise ValueError("need at least one checkpoint")
    seen = {}
    for i, k in enumerate(cp_idx):
        if seen.setdefault(k, i) != i:
            raise ValueError(f"checkpoint time {checkpoints[i]} is repeated (step {k})")
    cov = covariance_series(
        config.nbar, config.channels(), config.resolved_dt, n_steps
    )

    n_traj = config.n_traj
    out = tuple(np.zeros((len(cp_idx), n_traj)) for _ in range(4))
    plan = _layout(n_traj, n_steps)
    streams = [_BlockStreams(config.seed, edges[0], edges[-1]) for edges in plan]
    cancel = Event()
    with ThreadPoolExecutor(len(plan)) as pool:
        try:
            jobs = [
                pool.submit(_run_blocks, config, cov, cp_idx, s, edges, out, cancel)
                for s, edges in zip(streams, plan)
            ]
            done, _ = wait(jobs, return_when=FIRST_EXCEPTION)
            for job in jobs:
                if job in done:
                    job.result()
        finally:
            # after an error or an interrupt the other workers stop at their
            # next chunk, and the pool's exit waits for them
            cancel.set()

    return EnsembleRecord(cov[cp_idx], *out)
