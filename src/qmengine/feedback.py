"""Conditional-state step kernel, work extraction, and trajectory drivers.

Each step of the monitored oscillator is one Gaussian conditional-state
update: the two readouts r_i = q_i + sqrt(tau_i/dt) * g_i (g_i standard
normal; an unmonitored channel reports r_i = q_i), an Euler-Maruyama mean
step driven by the innovations r_i - q_i weighted by the current
covariances, a work-ledger increment, and an optional reset.  One array
function, ``_advance``, performs this update for a block of m trajectories
and returns one record, ``Steps``: the means, readouts, ledger and harvest
of each trajectory at the recorded grid points, and the covariances shared
by all of them.  ``run_trajectory`` is its m = 1 case at every grid point.
``run_ensemble_arrays`` builds the run's constants once (``_tables``),
advances each chunk of trajectories with them (``_chunk``) and returns the
same record at the checkpoints.  Noise comes from one stream per block
of STREAM_BLOCK trajectories, so a trajectory's noise does not depend on
how the ensemble is chunked.  ``_layout`` shares the blocks out in
contiguous ranges among up to one thread per CPU (``worker_threads``) and
cuts the ranges into cache-sized chunks: a per-step chunk is one tile of
PER_STEP_TILE trajectory-steps, a free-policy chunk at most FREE_TILE
trajectory-steps or FREE_WIDTH trajectories, whichever is wider, within
the bound on the noise in flight.  Each thread draws and advances its own
trajectories into its own columns of the outputs; numpy releases the GIL
in the draws and in the kernel's array operations, so the threads run at
the same time, and results do not depend on their number.  One thread at
a time steps a free-policy chunk, whose numpy calls are too short for two
threads to share the GIL well, while the others draw.

Work is harvested by shifting the bottom of the harmonic trap onto the
conditional mean, which zeroes (q1, q2), leaves the covariances untouched,
and banks (q1**2 + q2**2)/2 units of hbar*omega.  ``_per_step``, which
``_chunk`` calls for the per-step policy, is the only reset code: every
step after the first starts at the origin, so it takes a chunk's steps in
spans rather than one at a time.  ``_free`` takes the steps of the other
policies in order, into buffers allocated once, with each operation on the
two channels paired into one call on two rows.  Both compute only the
``Steps`` fields their caller asks for; the others are None.  The
covariances stay untouched because the kernel only reads them, from
``gaussian.covariance_series``.  The policies are:

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
from contextlib import AbstractContextManager, nullcontext
from threading import Event, Lock
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

#: Trajectory-steps of a per-step chunk, the kernel's one tile: chunks of
#: max(1, PER_STEP_TILE // n_steps) trajectories keep their noise (640 kB at
#: 2500 steps) and the kernel's seven buffers (2.2 MB) in cache.
PER_STEP_TILE = 40_000

#: Trajectory-steps of a free-policy chunk, and the fewest trajectories one
#: holds: chunks of max(FREE_WIDTH, FREE_TILE // n_steps) trajectories keep
#: their noise near cache size (3.3 MB at 100 steps, 8.2 MB at 500) and wide
#: enough that each of the kernel's numpy calls outlasts its overhead.
FREE_TILE = 204_800
FREE_WIDTH = 1024

#: Bytes of noise an ensemble may hold at once, across all its workers.
NOISE_BUDGET = 48_000_000

#: Bytes of the free policies' time-major noise copy, per worker: the copy
#: takes at most FREE_SCRATCH // 16 trajectories by as many steps as fit.
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


@dataclass(frozen=True, slots=True)
class _Tables:
    """What every chunk of one run shares: built once by ``_tables``, then
    only read, by every chunk and worker thread."""

    rates: _Rates
    per_step: bool
    cov: np.ndarray  # covariance triplets (q3, q4, q5) at grid points 0..n_steps
    recorded_cov: np.ndarray  # the rows of cov at the recorded grid points
    rows: dict[int, int]  # the record row of each recorded grid point
    grid: np.ndarray  # the recorded grid points 1..n_steps, ascending
    grid_rows: np.ndarray  # their record rows
    # per step, under per-step: rows c3, c4, c5, c3*i1, c4*i2, c4*i1 and
    # c5*i2, shape (7, n_steps)
    columns: np.ndarray | None
    # per step, for the free policies: the pairs [c3*i1, c4*i1], [c4*i2,
    # c5*i2] and the ledger's two (see _free), shape (n_steps, 4, 2, 1)
    pairs: np.ndarray | None
    drift: np.ndarray  # per step, the Ito ledger's drift nu**2/tau*dt (0 if unused)


def _tables(config: EngineConfig, cov: np.ndarray, record: Sequence[int]) -> _Tables:
    """The constants of config's steps along cov, recording the grid points in record."""
    s = _rates(config, cov)
    rows = {int(k): i for i, k in enumerate(record)}
    n_steps = len(cov) - 1
    grid = np.array(sorted(k for k in rows if 0 < k <= n_steps), dtype=int)
    c3, c4, c5 = cov[:n_steps].T
    # the products c3*i1 etc. of _step, and its Ito drift
    a1, b1, a2, b2 = c3 * s.i1, c4 * s.i2, c4 * s.i1, c5 * s.i2
    nu = 0.5 * c3
    drift = nu * nu / s.tau1 * s.dt if s.ito else np.zeros(n_steps)
    per_step = config.policy == "per-step"
    columns = pairs = None
    if per_step:
        columns = np.array([c3, c4, c5, a1, b1, a2, b2])
    else:
        ledger = (c3, c5, c3, c5) if s.ito else (c3, c4, c4, c5)
        pairs = np.stack([a1, a2, b1, b2, *ledger], axis=1).reshape(n_steps, 4, 2, 1)
    return _Tables(
        rates=s,
        per_step=per_step,
        cov=cov,
        recorded_cov=cov[np.asarray(record, dtype=int)],
        rows=rows,
        grid=grid,
        grid_rows=np.array([rows[k] for k in grid], dtype=int),
        columns=columns,
        pairs=pairs,
        drift=drift,
    )


def _advance(
    config: EngineConfig,
    cov: np.ndarray,
    noise: np.ndarray,
    start: tuple[float, float],
    record: Sequence[int],
    fields: Collection[str] = STEP_FIELDS,
    work: np.ndarray | None = None,
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
    ``_per_step`` takes the steps in spans, in ``work`` if given; otherwise
    the means evolve freely and ``_free`` takes them in order.
    """
    return _chunk(_tables(config, cov, record), noise, start, fields, work)


def _chunk(
    t: _Tables,
    noise: np.ndarray,
    start: tuple[float, float],
    fields: Collection[str] = STEP_FIELDS,
    work: np.ndarray | None = None,
) -> Steps:
    """``_advance`` with the run's constants built already: one chunk of a run."""
    m = len(noise)
    out = Steps(
        *(np.zeros((len(t.recorded_cov), m)) if name in fields else None for name in STEP_FIELDS),
        cov=t.recorded_cov,
    )
    row = t.rows.get(0)
    for field, value in ((out.q1, start[0]), (out.q2, start[1])):
        if row is not None and field is not None:
            field[row] = value
    if t.per_step:
        _per_step(t, noise, start, out, work)
    else:
        _free(t, noise, start, out)
    return out


def _free(t: _Tables, noise: np.ndarray, start: tuple[float, float], out: Steps) -> None:
    """The free policies: fill ``out`` as a loop of ``_step`` calls would.

    The means evolve without resets, so the steps run in order.  They are
    held as one (3, m) array z = [q1, q2, -q1], whose rows 0:2 are q =
    [q1, q2] and rows 1:3 are p = [q2, -q1], the drift of the mean update.
    So each operation of ``_step`` on the two channels is one call on two
    rows: with the readouts r = q + w*g and the innovations u = r - q,
    new = q + dt*((p + u1*[c3*i1, c4*i1]) + u2*[c4*i2, c5*i2]), which adds
    in ``_step``'s order, as -q1 + y is y + (-q1) exactly.  The ledger
    increments are inc = u*[i1, i2]*dt, and the ledger rules pair up the
    same way: the midpoints m = 0.5*(q + new) give (m1*[c3, c4] +
    m2*[c4, c5])*inc, whose two rows ``_step`` adds; the Ito rule adds
    q*[c3, c5]*inc to the drift.  The ledger is taken only if ``out``
    records it or its running sum.  Every operation writes into a buffer
    allocated once, never into one of its own inputs: numpy checks such an
    overlap on every call, which costs more than the arithmetic when m is
    small.  The noise is read from a time-major copy, scaled by the readout
    weights, made for at most FREE_SCRATCH // 16 trajectories by as many
    steps as fit FREE_SCRATCH bytes at a time, so each step reads its
    normals contiguously.
    """
    m, n_steps, _ = noise.shape
    s, rows = t.rates, t.rows
    dt = s.dt
    ledger = out.increment is not None or out.ledger is not None
    recorded = [(f, i) for i, f in enumerate((out.q1, out.q2, out.r1, out.r2,
                                              out.increment, out.ledger)) if f is not None]

    width = min(m, FREE_SCRATCH // 16)
    span = max(1, min(n_steps, FREE_SCRATCH // (16 * width)))
    noise_t = np.empty((span, 2, width))
    weights = np.array([[s.w1], [s.w2]])
    inv = np.array([[s.i1], [s.i2]])
    buffers = np.empty((20, width))
    for j0 in range(0, m, width):
        j1 = min(j0 + width, m)
        buf = buffers[:, : j1 - j0]
        r, u, x, y, v = buf[6:8], buf[8:10], buf[10:12], buf[12:14], buf[14:16]
        r1, r2, u1, u2, x1, x2, y1, y2 = r[0], r[1], u[0], u[1], x[0], x[1], y[0], y[1]
        dw, tmp = buf[16:18]
        # step k reads z and the ledger from one set of buffers and writes
        # the next into the other, set k % 2: q, p, the new q, its rows and
        # -new q1, the ledger and the new ledger
        sides = [
            (z[0:2], z[1:3], zn[0:2], zn[0], zn[1], zn[2], led, led_next)
            for z, zn, led, led_next in (
                (buf[0:3], buf[3:6], buf[18], buf[19]),
                (buf[3:6], buf[0:3], buf[19], buf[18]),
            )
        ]
        buf[0], buf[1], buf[2] = start[0], start[1], -start[0]
        buf[18] = 0.0
        for k0 in range(0, n_steps, span):
            k1 = min(k0 + span, n_steps)
            tile = noise_t[: k1 - k0, :, : j1 - j0]
            np.copyto(tile, noise[j0:j1, k0:k1].transpose(1, 2, 0))
            tile *= weights  # w*g
            for k, wg, (a, c, l1, l2), d in zip(
                range(k0, k1), tile, t.pairs[k0:k1], t.drift[k0:k1].tolist()
            ):
                q, p, new, new1, new2, neg, led, led_next = sides[k % 2]
                np.add(wg, q, r)  # readouts q + w*g
                np.subtract(r, q, u)  # innovations r - q
                np.multiply(u1, a, x)
                np.add(x, p, y)
                np.multiply(u2, c, x)
                np.add(y, x, v)
                np.multiply(v, dt, x)
                np.add(x, q, new)
                np.negative(new1, neg)
                if ledger:
                    np.multiply(u, inv, x)
                    np.multiply(x, dt, u)  # inc = innov*i*dt
                    if s.ito:
                        # (nu**2/tau*dt + q1*c3*inc1) + q2*c5*inc2
                        np.multiply(q, l1, x)
                        np.multiply(x, u, y)
                        np.add(y1, d, tmp)
                        np.add(tmp, y2, dw)
                    else:
                        # (m1*c3 + m2*c4)*inc1 + (m1*c4 + m2*c5)*inc2
                        np.add(q, new, x)
                        np.multiply(x, 0.5, y)
                        np.multiply(y1, l1, x)
                        np.multiply(y2, l2, v)
                        np.add(x, v, y)
                        np.multiply(y, u, x)
                        np.add(x1, x2, dw)
                    np.add(led, dw, led_next)
                row = rows.get(k + 1)
                if row is not None:
                    values = (new1, new2, r1, r2, dw, led_next)
                    for field, i in recorded:
                        field[row, j0:j1] = values[i]


def _per_step(
    t: _Tables,
    noise: np.ndarray,
    start: tuple[float, float],
    out: Steps,
    work: np.ndarray | None = None,
) -> None:
    """The per-step policy: fill ``out`` as a step loop with resets would.

    After each step the trap is re-centred, so every step from the second on
    starts at the origin: its readouts, updated means, harvest and ledger
    increment depend only on its own normals and covariance row.  The m
    trajectories take their steps at once, in spans of PER_STEP_TILE // m
    (at least one) into seven buffers in ``work`` (new if None), with the
    expressions of ``_step`` at q1 = q2 = 0, in the same order.  A term is
    dropped only where it cannot change a bit of the result, such as a
    ``0.0 +`` that cannot change the sign of a zero.  The first step starts
    from ``start`` and is taken by ``_step`` itself.  Running sums are
    cumulative sums along the steps, with the previous span's total added to
    the first column, so they add in the loop's order.  When ``out`` records
    no running sum, only the recorded steps are taken, their noise and
    covariance rows gathered into the spans; the harvest and the ledger
    increment are taken only if ``out`` records them or their sums.
    """
    m, n_steps, _ = noise.shape
    s = t.rates
    dt = s.dt
    c3, c4, c5, a1, b1, a2, b2 = t.columns
    ledger = out.increment is not None or out.ledger is not None
    harvest = out.harvest is not None or out.harvested is not None
    running = out.ledger is not None or out.harvested is not None

    # the steps to take (all of them for a running sum, else the recorded
    # ones), each recorded step's position among them and where each
    # span's run of those positions starts
    grid, grid_rows = t.grid, t.grid_rows
    steps = np.arange(n_steps) if running else grid - 1
    pos = grid - 1 if running else np.arange(len(grid))
    span = max(1, min(len(steps), PER_STEP_TILE // m))
    edges = np.searchsorted(pos, np.arange(0, len(steps) + span, span))

    size = 7 * m * span
    buffers = (np.empty(size) if work is None else work)[:size].reshape(7, m, span)
    led, ext = np.zeros((2, m))
    for n, i0 in enumerate(range(0, len(steps), span)):
        i1 = min(i0 + span, len(steps))
        cols = slice(i0, i1) if running else steps[i0:i1]
        r1, r2, n1, n2, x, dw, h = buffers[:, :, : i1 - i0]
        g = noise[:, cols]

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
            q1, q2 = (np.full(m, float(v)) for v in start)
            r1[:, 0], r2[:, 0], n1[:, 0], n2[:, 0], dw0 = _step(s, q1, q2, *g[:, 0].T, *t.cov[0])
        if harvest:
            # harvest 0.5*(new1*new1 + new2*new2)
            np.multiply(n1, n1, out=h)
            np.multiply(n2, n2, out=x)
            h += x
            h *= 0.5
        at = pos[edges[n]:edges[n + 1]] - i0
        into = grid_rows[edges[n]:edges[n + 1]]
        for field, tile in ((out.q1, n1), (out.q2, n2), (out.r1, r1), (out.r2, r2)):
            if field is not None:
                field[into] = tile[:, at].T

        if ledger and s.ito:
            # nu**2/tau*dt + (q1*c3)*inc1 + (q2*c5)*inc2 at q1 = q2 = 0:
            # for finite normals the products are signed zeros, and the
            # drift (>= +0) plus a signed zero is the drift
            dw[...] = t.drift[cols]
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
            if field is not None:
                field[into] = tile[:, at].T
            if running_sum is not None:
                tile[:, 0] += total
                np.add.accumulate(tile, axis=1, out=tile)
                total[:] = tile[:, -1]
                running_sum[into] = tile[:, at].T


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
    """Trajectories of a free-policy ensemble in flight at once, across all
    workers: the whole ensemble if NOISE_BUDGET holds it, else as many whole
    blocks as it holds (trajectories, under one block); never fewer than
    min(128, what it holds), nor than one."""
    fits = NOISE_BUDGET // (16 * max(n_steps, 1))
    if fits >= STREAM_BLOCK:
        fits -= fits % STREAM_BLOCK  # whole blocks, as the workers' chunks are
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


def _layout(n_traj: int, n_steps: int, per_step: bool = False) -> list[list[int]]:
    """Chunk edges of each worker thread of an ensemble.

    Each worker takes one contiguous range of whole blocks and advances it in
    near-equal chunks, so no narrow tail chunk is left.  A per-step chunk is
    the kernel's tile, at most max(1, PER_STEP_TILE // n_steps) trajectories.
    A free-policy chunk holds at most max(FREE_WIDTH, FREE_TILE // n_steps)
    trajectories, so its noise stays near cache size, and at most the
    ``_chunk_size`` bound divided by the workers, so the noise in flight
    does not grow with them; it is cut at whole blocks where it holds one.
    No more workers run than their chunks fit the NOISE_BUDGET: for the
    free policies, than the bound holds whole blocks (but at least one).
    """
    bound = _chunk_size(n_traj, n_steps)
    tile = max(1, PER_STEP_TILE // n_steps)
    cap = NOISE_BUDGET // (16 * n_steps * tile) if per_step else bound // STREAM_BLOCK
    workers = min(worker_threads(), -(-n_traj // STREAM_BLOCK), max(1, cap))
    ranges = list(pairwise(_split(0, n_traj, workers, STREAM_BLOCK)))
    if per_step:
        width, unit = tile, 1
    else:
        width = min(bound // workers, max(FREE_WIDTH, FREE_TILE // n_steps))
        unit = STREAM_BLOCK if width >= STREAM_BLOCK else 1
        width -= width % unit
    return [_split(a, b, -(-(b - a) // width), unit) for a, b in ranges]


def ensemble_workers(config: EngineConfig) -> int:
    """Worker threads that ``run_ensemble_arrays`` uses for config's ensemble."""
    return len(_layout(config.n_traj, config.n_steps, config.policy == "per-step"))


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
    t: _Tables,
    streams: _BlockStreams,
    edges: list[int],
    out: dict[str, np.ndarray],
    cancel: Event,
    stepping: AbstractContextManager,
) -> None:
    """Advance the chunks between consecutive edges into their columns of out,
    which maps the ``Steps`` fields asked for to their arrays, each chunk's
    steps within stepping.  Stops before its next chunk once cancel is set.
    """
    # an anonymous mapping rather than the heap: its pages go back to the
    # system when the ensemble ends, so the next ensemble's buffers are not
    # stranded beside freed heap memory that malloc keeps once its mmap
    # threshold has risen to the size of a noise buffer
    shape = (max(np.diff(edges)), len(t.cov) - 1, 2)
    buffer = np.frombuffer(mmap.mmap(-1, 16 * shape[0] * shape[1])).reshape(shape)
    # the per-step kernel's seven buffers, each at most one tile
    work = np.empty(7 * PER_STEP_TILE) if t.per_step else None
    for a, b in pairwise(edges):
        if cancel.is_set():
            return
        noise = buffer[: b - a]
        streams.fill(noise)
        with stepping:
            steps = _chunk(t, noise, (0.0, 0.0), out.keys(), work)
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

    tables = _tables(config, cov, cp_idx)

    n_traj = config.n_traj
    out = {name: np.zeros((len(cp_idx), n_traj)) for name in STEP_FIELDS if name in fields}
    plan = _layout(n_traj, n_steps, tables.per_step)
    streams = [_BlockStreams(config.seed, edges[0], edges[-1]) for edges in plan]
    cancel = Event()
    # one worker at a time takes a free-policy chunk's steps while the others
    # draw: the numpy calls of those steps are short, so two workers stepping
    # at once mostly wait to hand the GIL back and forth between calls
    stepping = nullcontext() if tables.per_step else Lock()
    with ThreadPoolExecutor(len(plan)) as pool:
        try:
            jobs = [
                pool.submit(_run_blocks, tables, s, edges, out, cancel, stepping)
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

    return Steps(*(out.get(name) for name in STEP_FIELDS), cov=tables.recorded_cov)
