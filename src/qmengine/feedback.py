"""Conditional-state step kernel, work extraction, and trajectory drivers.

Each step of the monitored oscillator is one Gaussian conditional-state
update: the two readouts r_i = q_i + sqrt(tau_i/dt) * g_i (g_i standard
normal; an unmonitored channel reports r_i = q_i), an Euler-Maruyama mean
step driven by the innovations r_i - q_i weighted by the current
covariances, a work-ledger increment, and an optional reset.  One array
function, ``_advance``, performs this update for a block of m trajectories
and returns one record, ``Steps``: the means, readouts, ledger and harvest
of each trajectory at the recorded grid points, and the covariances shared
by all of them.  ``run_trajectory`` is its m = 1 case at every grid point;
``run_ensemble_arrays`` calls it once per chunk of trajectories and returns
the same record at the checkpoints.  Noise comes from one stream per block
of STREAM_BLOCK trajectories, so a trajectory's noise does not depend on
how the ensemble is chunked.  The blocks of an ensemble are shared out in
contiguous ranges among up to one thread per available CPU
(``worker_threads``), and no more threads than whole blocks fit the bound
on the noise in flight (``_layout``).  Each thread draws and advances its
own trajectories into its own columns of the outputs; numpy releases the
GIL in the draws and in the kernel's array operations, so the threads run
at the same time.  Results do not depend on the number of threads, and so
not on the CPU count.

Work is harvested by shifting the bottom of the harmonic trap onto the
conditional mean, which zeroes (q1, q2), leaves the covariances untouched,
and banks (q1**2 + q2**2)/2 units of hbar*omega.  ``_per_step``, which
``_advance`` calls for the per-step policy, is the only reset code: every
step after the first starts at the origin, so it takes the steps in tiles of
trajectories by steps rather than one at a time.  ``_free`` takes the steps
of the other policies in order, into buffers allocated once.  Both
compute only the ``Steps`` fields their caller asks for; the others are
None.  The covariances stay untouched because the kernel only reads them,
from ``gaussian.covariance_series``.  The policies are:

* ``per-step``  -- the trap is re-centered after every measurement step,
  equivalent to a continuously applied linear feedback Hamiltonian in the
  small-dt limit;
* ``terminal``  -- the oscillator diffuses freely and a single feedback is
  applied at the end of the run, which banks the final displacement energy;
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
import mmap
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import pairwise
from threading import Event
from typing import Collection, Sequence

import numpy as np

from .config import EngineConfig
from .errors import UnsupportedConfigurationError
from .gaussian import NoiseSource, covariance_series, inv_2tau

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

#: Bytes of the free policies' time-major noise copy, per worker: the copy
#: takes at most FREE_SCRATCH // 16 trajectories by as many steps (at most
#: TILE_STEPS) as fit.
FREE_SCRATCH = 2**20

#: The noise layout of ensembles, as recorded in each run's manifest.
STREAM_LAYOUT = {
    "bit_generator": "PCG64",
    "seeding": "SeedSequence(seed, spawn_key=(block,))",
    "stream_block": STREAM_BLOCK,
    "order": "trajectory-major within a block",
}


@dataclass(frozen=True, slots=True)
class Steps:
    """The record of a run, one trajectory or an ensemble: what ``_advance``
    records and what ``run_trajectory`` and ``run_ensemble_arrays`` return.

    The per-trajectory fields have shape (len(record), m), one column per
    trajectory.  Row i belongs to the step ending at grid point record[i]; a
    row for grid point 0 holds the starting means and zeros elsewhere.  A
    field that the caller did not ask for is None.  ``cov`` holds the
    covariance triplet (q3, q4, q5) at the recorded grid points, shape
    (len(record), 3), shared by all trajectories.
    """

    q1: np.ndarray | None  # means after the mean update, before any reset
    q2: np.ndarray | None
    r1: np.ndarray | None  # readouts of the step
    r2: np.ndarray | None
    increment: np.ndarray | None  # work-ledger increment of the step
    ledger: np.ndarray | None  # running sum of the increments
    harvest: np.ndarray | None  # work banked by a per-step reset at this step
    harvested: np.ndarray | None  # running sum of the harvests
    cov: np.ndarray


#: The per-trajectory fields of ``Steps``, all but ``cov``: those a caller may ask for.
STEP_FIELDS = Steps.__slots__[:-1]


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
    i1, i2 = inv_2tau(config.tau1), inv_2tau(config.tau2)
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
        w1=math.sqrt(config.tau1 / dt) if i1 else 0.0,
        w2=math.sqrt(config.tau2 / dt) if i2 else 0.0,
        i1=i1,
        i2=i2,
        tau1=config.tau1,
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
    fields: Collection[str] = STEP_FIELDS,
) -> Steps:
    """Advance m trajectories by noise.shape[1] conditional-state steps.

    ``noise`` has shape (m, n_steps, 2): two standard normals per trajectory
    and step, consumed also for unmonitored channels so the stream layout
    does not depend on the channel setup.  ``cov`` holds the covariance
    triplet (q3, q4, q5) at grid points 0..n_steps, ``start`` the means at
    grid point 0, ``record`` the grid points to record and ``fields`` the
    ``Steps`` fields to record; the others are None, and only what the
    recorded ones need is computed.  The scheme picks the ledger rule.
    Under ``per-step`` the means are reset after every step and
    ``_per_step`` takes the steps in tiles; otherwise the means evolve
    freely and ``_free`` takes the steps in order.
    """
    m = len(noise)
    rates = _rates(config, cov)
    out = Steps(
        *(np.zeros((len(record), m)) if name in fields else None for name in STEP_FIELDS),
        cov=cov[np.asarray(record, dtype=int)],
    )
    rows = {int(k): i for i, k in enumerate(record)}
    row = rows.get(0)
    for field, value in ((out.q1, start[0]), (out.q2, start[1])):
        if row is not None and field is not None:
            field[row] = value
    if config.policy == "per-step":
        _per_step(rates, cov, noise, start, rows, out)
    else:
        _free(rates, cov, noise, start, rows, out)
    return out


def _free(
    s: _Rates,
    cov: np.ndarray,
    noise: np.ndarray,
    start: tuple[float, float],
    rows: dict[int, int],
    out: Steps,
) -> None:
    """The free policies: fill ``out`` as a loop of ``_step`` calls would.

    The means evolve without resets, so the steps run in order.  Each step
    applies ``_step``'s operations, in the same order, into buffers
    allocated once; ``-q1 + y`` is taken as ``y - q1``, which rounds alike.
    Within a step no operation writes into one of its own inputs: numpy
    checks such an overlap on every call, which costs more than the
    arithmetic when m is small.  The ledger increment is taken only if
    ``out`` records it or its running sum.  The noise is read from a
    time-major copy, scaled by the readout weights, made for at most
    FREE_SCRATCH // 16 trajectories by as many steps (at most TILE_STEPS) as
    fit FREE_SCRATCH bytes at a time, so each step reads its normals
    contiguously.
    """
    m, n_steps, _ = noise.shape
    dt, w1, w2, i1, i2 = s.dt, s.w1, s.w2, s.i1, s.i2
    ledger = out.increment is not None or out.ledger is not None
    c3, c4, c5 = cov[:n_steps].T
    # per step: the products c3*i1 etc. of _step and the Ito drift
    nu = 0.5 * c3
    a1, b1, a2, b2, drift = (
        v.tolist() for v in (c3 * i1, c4 * i2, c4 * i1, c5 * i2, nu * nu / s.tau1 * dt)
    )
    c3, c4, c5 = c3.tolist(), c4.tolist(), c5.tolist()

    width = min(m, FREE_SCRATCH // 16)
    span = max(1, min(TILE_STEPS, FREE_SCRATCH // (16 * width)))
    noise_t = np.empty((span, 2, width))
    weights = np.array([[w1], [w2]])
    buffers = np.empty((13, width))
    for j0 in range(0, m, width):
        j1 = min(j0 + width, m)
        q1, q2, n1, n2, r1, r2, u1, u2, t1, t2, t3, dw, led = buffers[:, : j1 - j0]
        q1.fill(start[0])
        q2.fill(start[1])
        led.fill(0.0)
        for k0 in range(0, n_steps, span):
            k1 = min(k0 + span, n_steps)
            tile = noise_t[: k1 - k0, :, : j1 - j0]
            np.copyto(tile, noise[j0:j1, k0:k1].transpose(1, 2, 0))
            tile *= weights  # w*g
            for k, (wg1, wg2) in enumerate(tile, k0):
                # readouts q + w*g and innovations r - q
                np.add(wg1, q1, r1)
                np.add(wg2, q2, r2)
                np.subtract(r1, q1, u1)
                np.subtract(r2, q2, u2)
                # new1 = q1 + dt*((q2 + c3*i1*innov1) + c4*i2*innov2)
                np.multiply(u1, a1[k], t1)
                np.add(t1, q2, t2)
                np.multiply(u2, b1[k], t1)
                np.add(t2, t1, t3)
                np.multiply(t3, dt, t1)
                np.add(t1, q1, n1)
                # new2 = q2 + dt*((-q1 + c4*i1*innov1) + c5*i2*innov2)
                np.multiply(u1, a2[k], t1)
                np.subtract(t1, q1, t2)
                np.multiply(u2, b2[k], t1)
                np.add(t2, t1, t3)
                np.multiply(t3, dt, t1)
                np.add(t1, q2, n2)
                if ledger:
                    # inc_i = innov_i*i_i*dt
                    np.multiply(u1, i1, t1)
                    np.multiply(t1, dt, u1)
                    np.multiply(u2, i2, t1)
                    np.multiply(t1, dt, u2)
                    if s.ito:
                        # (nu**2/tau*dt + q1*c3*inc1) + q2*c5*inc2
                        np.multiply(q1, c3[k], t1)
                        np.multiply(t1, u1, t2)
                        np.add(t2, drift[k], t3)
                        np.multiply(q2, c5[k], t1)
                        np.multiply(t1, u2, t2)
                        np.add(t3, t2, dw)
                    else:
                        # (m1*c3 + m2*c4)*inc1 + (m1*c4 + m2*c5)*inc2 with the
                        # midpoints m_i = 0.5*(q_i + new_i) written over q_i
                        np.add(q1, n1, t1)
                        np.multiply(t1, 0.5, q1)
                        np.add(q2, n2, t1)
                        np.multiply(t1, 0.5, q2)
                        np.multiply(q1, c3[k], t1)
                        np.multiply(q2, c4[k], t2)
                        np.add(t1, t2, t3)
                        np.multiply(t3, u1, dw)
                        np.multiply(q1, c4[k], t1)
                        np.multiply(q2, c5[k], t2)
                        np.add(t1, t2, t3)
                        np.multiply(t3, u2, t1)
                        np.add(dw, t1, t2)
                        dw, t2 = t2, dw
                    np.add(led, dw, t1)
                    led, t1 = t1, led
                row = rows.get(k + 1)
                if row is not None:
                    for field, value in ((out.q1, n1), (out.q2, n2), (out.r1, r1),
                                         (out.r2, r2), (out.increment, dw),
                                         (out.ledger, led)):
                        if field is not None:
                            field[row, j0:j1] = value
                q1, n1 = n1, q1
                q2, n2 = n2, q2


def _per_step(
    s: _Rates,
    cov: np.ndarray,
    noise: np.ndarray,
    start: tuple[float, float],
    rows: dict[int, int],
    out: Steps,
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
    added to the first column, so they add in the loop's order.  When ``out``
    records no running sum, only the recorded steps are taken, their noise
    and covariance rows gathered into the tiles; the harvest and the ledger
    increment are taken only if ``out`` records them or their sums.
    """
    m, n_steps, _ = noise.shape
    dt = s.dt
    c3, c4, c5 = np.ascontiguousarray(cov[:n_steps].T)
    a1, b1, a2, b2 = c3 * s.i1, c4 * s.i2, c4 * s.i1, c5 * s.i2
    if s.ito:
        nu = 0.5 * c3
        drift = nu * nu / s.tau1 * dt
    ledger = out.increment is not None or out.ledger is not None
    harvest = out.harvest is not None or out.harvested is not None
    running = out.ledger is not None or out.harvested is not None

    # recorded grid points 1..n_steps, the steps to take (all of them for a
    # running sum, else the recorded ones), each recorded step's position
    # among them and where each tile's run of those positions starts
    grid = np.array(sorted(k for k in rows if 0 < k <= n_steps), dtype=int)
    grid_rows = np.array([rows[k] for k in grid], dtype=int)
    steps = np.arange(n_steps) if running else grid - 1
    pos = grid - 1 if running else np.arange(len(grid))
    edges = np.searchsorted(pos, np.arange(0, len(steps) + TILE_STEPS, TILE_STEPS))

    buffers = [np.empty((min(m, TILE_TRAJ), min(len(steps), TILE_STEPS))) for _ in range(7)]
    for j0 in range(0, m, TILE_TRAJ):
        j1 = min(j0 + TILE_TRAJ, m)
        led = np.zeros(j1 - j0)
        ext = np.zeros(j1 - j0)
        for t, i0 in enumerate(range(0, len(steps), TILE_STEPS)):
            i1 = min(i0 + TILE_STEPS, len(steps))
            cols = slice(i0, i1) if running else steps[i0:i1]
            r1, r2, n1, n2, x, dw, h = (b[: j1 - j0, : i1 - i0] for b in buffers)
            g = noise[j0:j1, cols]

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
            first = steps[i0] == 0
            if first:
                q1 = np.full(j1 - j0, float(start[0]))
                q2 = np.full(j1 - j0, float(start[1]))
                r1[:, 0], r2[:, 0], n1[:, 0], n2[:, 0], dw0 = _step(
                    s, q1, q2, g[:, 0, 0], g[:, 0, 1], *cov[0]
                )
            if harvest:
                # harvest 0.5*(new1*new1 + new2*new2)
                np.multiply(n1, n1, out=h)
                np.multiply(n2, n2, out=x)
                h += x
                h *= 0.5
            at = pos[edges[t]:edges[t + 1]] - i0
            into = grid_rows[edges[t]:edges[t + 1]]
            if len(at):
                for field, tile in ((out.q1, n1), (out.q2, n2), (out.r1, r1),
                                    (out.r2, r2)):
                    if field is not None:
                        field[into, j0:j1] = tile[:, at].T

            if ledger and s.ito:
                # nu**2/tau*dt + (q1*c3)*inc1 + (q2*c5)*inc2 at q1 = q2 = 0:
                # for finite normals the products are signed zeros, and the
                # drift (>= +0) plus a signed zero is the drift
                dw[...] = drift[cols]
            elif ledger:
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
            if ledger and first:
                dw[:, 0] = dw0

            for taken, tile, total, field, running_sum in (
                (ledger, dw, led, out.increment, out.ledger),
                (harvest, h, ext, out.harvest, out.harvested),
            ):
                if not taken:
                    continue
                if field is not None and len(at):
                    field[into, j0:j1] = tile[:, at].T
                if running_sum is not None:
                    tile[:, 0] += total
                    np.add.accumulate(tile, axis=1, out=tile)
                    total[:] = tile[:, -1]
                    if len(at):
                        running_sum[into, j0:j1] = tile[:, at].T


def run_trajectory(config: EngineConfig, j: int = 0) -> Steps:
    """Trajectory j of config's ensemble at every grid point 0..n_steps.

    The m = 1 case of ``_advance``, with every field recorded.  Its noise is
    drawn from block stream (config.seed, j // STREAM_BLOCK) after the
    j mod STREAM_BLOCK trajectories before it, so its one column equals
    column j of ``run_ensemble_arrays`` at the same grid points.
    """
    config.validate()
    n = config.n_steps
    cov = covariance_series(config.nbar, config.tau1, config.tau2, config.resolved_dt, n)
    noise = _noise_block(config.seed, j, j + 1, n)
    return _advance(config, cov, noise, (0.0, 0.0), range(n + 1))


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


def _noise_block(seed: int, start: int, stop: int, n_steps: int) -> np.ndarray:
    """Noise of trajectories start..stop-1 of the ensemble with seed."""
    noise = np.empty((stop - start, n_steps, 2))
    _BlockStreams(seed, start, stop).fill(noise)
    return noise


def _run_blocks(
    config: EngineConfig,
    cov: np.ndarray,
    cp_idx: np.ndarray,
    streams: _BlockStreams,
    edges: list[int],
    out: dict[str, np.ndarray],
    cancel: Event,
) -> None:
    """Advance the chunks between consecutive edges into their columns of out,
    which maps the ``Steps`` fields asked for to their arrays.  Stops before
    its next chunk once cancel is set.
    """
    # an anonymous mapping rather than the heap: its pages go back to the
    # system when the ensemble ends, so the next ensemble's buffers are not
    # stranded beside freed heap memory that malloc keeps once its mmap
    # threshold has risen to the size of a noise buffer
    shape = (max(np.diff(edges)), config.n_steps, 2)
    buffer = np.frombuffer(mmap.mmap(-1, 16 * shape[0] * shape[1])).reshape(shape)
    for a, b in pairwise(edges):
        if cancel.is_set():
            return
        noise = buffer[: b - a]
        streams.fill(noise)
        steps = _advance(config, cov, noise, (0.0, 0.0), cp_idx, out.keys())
        for name, target in out.items():
            target[:, a:b] = getattr(steps, name)


def run_ensemble_arrays(
    config: EngineConfig,
    checkpoints: Sequence[float],
    fields: Collection[str] = STEP_FIELDS,
) -> Steps:
    """Advance n_traj independent trajectories, recording them at the checkpoints.

    Trajectory j consumes its slice of block stream (config.seed,
    j // STREAM_BLOCK).  The blocks are split into one contiguous range per
    worker thread (``_layout``); every block generator is created here, on
    the calling thread, and each worker refills its own noise buffer for
    each of its chunks and writes its own columns.  Every normal is drawn
    once, so results are independent of chunking and of the worker count,
    and column j equals ``run_trajectory(config, j)`` at the checkpoints.
    When a worker raises, or the caller is interrupted, the other workers
    stop at their next chunk and the exception is raised here.
    Checkpoint times must lie on the step grid, each at most once.

    Returns the ``Steps`` of the ensemble at the checkpoints, one column per
    trajectory.  ``fields`` names the per-trajectory fields to compute (by
    default all of STEP_FIELDS); the others are None.
    """
    unknown = set(fields) - set(STEP_FIELDS)
    if unknown:
        raise ValueError(f"not a per-trajectory Steps field: {', '.join(sorted(unknown))}")
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
        config.nbar, config.tau1, config.tau2, config.resolved_dt, n_steps
    )

    n_traj = config.n_traj
    out = {name: np.zeros((len(cp_idx), n_traj)) for name in STEP_FIELDS if name in fields}
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

    return Steps(*(out.get(name) for name in STEP_FIELDS), cov=cov[cp_idx])
