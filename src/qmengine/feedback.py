"""Conditional-state step kernel, work extraction, and trajectory drivers.

Each step of the monitored oscillator is one Gaussian conditional-state
update: the two readouts r_i = q_i + sqrt(tau_i/dt) * g_i (g_i standard
normal; an unmonitored channel reports r_i = q_i), an Euler-Maruyama mean
step driven by the innovations r_i - q_i weighted by the current
covariances, a work-ledger increment, and an optional reset.  Every
trajectory starts at the origin, the means of the thermal state.  One array
function, ``_chunk``, performs this update for a block of m trajectories
with the run's constants (``_tables``) and fills one record, ``Steps``,
supplied by its caller: the means, readouts, ledger and harvest of each
trajectory at the recorded grid points, and the covariances shared by all
of them.  ``run_ensembles`` hands it views of each ensemble's columns,
one chunk at a time, and returns the records at the checkpoints: ensembles
that agree on the seed, the trajectory count, the step grid and the policy
(figure-S3's three channel ratios) step on the same normals, drawn once.
``run_ensemble_arrays`` is its one-ensemble case and ``run_trajectory`` the
m = 1 column of that at every grid point.  Noise comes from one stream per
block of STREAM_BLOCK trajectories, so a trajectory's noise does not depend
on how the ensemble is chunked.  ``_layout`` alone decides the cut:
contiguous ranges of whole blocks, one per worker (up to one per CPU), each
cut into near-equal cache-sized chunks within the bound on the noise in
flight.  Worker 0 runs in the caller and every other worker in a process
forked for the ensemble: the kernel's numpy calls are too short for two
threads to share the GIL well, so threads would take their steps one at a
time.  Every field of every record lives in one anonymous shared mapping,
which the workers fill in place, and one byte of it is the ensemble's
cancel flag.  Each worker draws its own trajectories' noise and advances
them into its own columns of every record, chunk after chunk in one
anonymous mapping that holds its widest chunk's noise and its kernel's
scratch (``_scratch``), so no buffer of a chunk's size is taken from the
heap, where freed memory would stay resident; the kernel reads the noise
read-only, so no ensemble changes the next one's.  Results do not depend on
the number of workers.  Where ``os.fork`` does not exist, ``_layout`` plans
one worker, the caller.

Work is harvested by shifting the bottom of the harmonic trap onto the
conditional mean, which zeroes (q1, q2), leaves the covariances untouched,
and banks (q1**2 + q2**2)/2 units of hbar*omega.  ``_per_step``, which
``_chunk`` calls for the per-step policy, is the only reset code: every
step starts at the origin, so it takes a chunk's steps in spans rather
than one at a time.  ``_free`` takes the steps of the other policies in
order, with each operation on the two channels paired into one call on two
rows; the two hold the only copies of the step expressions.  Both compute
only the ``Steps`` fields their caller asks for; the others are None.  The
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
import pickle
import warnings
from dataclasses import replace
from itertools import pairwise, product
from typing import Callable, Collection, NamedTuple, Sequence

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
#: max(1, PER_STEP_TILE // n_steps) trajectories keep their noise (320 kB at
#: 2500 steps) and the kernel's seven buffers (1.1 MB) in cache.
PER_STEP_TILE = 20_000

#: Trajectory-steps of a free-policy chunk, and the fewest trajectories one
#: holds: chunks of max(FREE_WIDTH, FREE_TILE // n_steps) trajectories keep
#: their noise near cache size (3.3 MB at 100 steps, 4.1 MB at 500) and wide
#: enough that each of the kernel's numpy calls outlasts its overhead.
FREE_TILE = 204_800
FREE_WIDTH = 512

#: Bytes of noise an ensemble may hold at once, across all its workers.
NOISE_BUDGET = 48_000_000

#: Bytes of the free policies' time-major noise copy, per worker: a
#: free-policy chunk holds at most FREE_SCRATCH // 16 trajectories, and the
#: copy takes them by as many steps as fit.
FREE_SCRATCH = 2**20

#: The noise layout of ensembles, as recorded in each run's manifest.
STREAM_LAYOUT = {
    "bit_generator": "PCG64",
    "seeding": "SeedSequence(seed, spawn_key=(block,))",
    "stream_block": STREAM_BLOCK,
    "order": "trajectory-major within a block",
}


class Steps(NamedTuple):
    """The record of a run, one trajectory or an ensemble: what ``_chunk``
    fills and what ``run_trajectory`` and ``run_ensembles`` return.

    The per-trajectory fields have shape (len(record), m), one column per
    trajectory.  Row i belongs to the step ending at grid point record[i]; a
    row for grid point 0 is zeros, the origin where every trajectory starts.
    A field that the caller did not ask for is None.  ``cov`` holds the
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
STEP_FIELDS = Steps._fields[:-1]


class _Tables(NamedTuple):
    """The constants of one run's steps: built once by ``_tables``, then only
    read, by every chunk and worker."""

    dt: float
    w1: float  # readout noise weight sqrt(tau_i/dt), 0 for an unmonitored channel
    w2: float
    i1: float  # 1/(2 tau_i), 0 for an unmonitored channel
    i2: float
    ito: bool
    per_step: bool
    recorded_cov: np.ndarray  # the covariance rows at the recorded grid points
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
    """The constants of config's steps along cov, recording the grid points in
    record; an Ito ledger needs cov in normal form."""
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
    record = np.asarray(record, dtype=int)
    rows = np.argsort(record, kind="stable")
    grid_rows = rows[record[rows] > 0]
    n_steps = len(cov) - 1
    c3, c4, c5 = cov[:n_steps].T
    # the gains c3*i1 etc. of the mean update, and the Ito ledger's drift
    a1, b1, a2, b2 = c3 * i1, c4 * i2, c4 * i1, c5 * i2
    nu = 0.5 * c3
    drift = nu * nu / config.tau1 * dt if ito else np.zeros(n_steps)
    per_step = config.policy == "per-step"
    columns = pairs = None
    if per_step:
        columns = np.array([c3, c4, c5, a1, b1, a2, b2])
    else:
        ledger = (c3, c5, c3, c5) if ito else (c3, c4, c4, c5)
        pairs = np.stack([a1, a2, b1, b2, *ledger], axis=1).reshape(n_steps, 4, 2, 1)
    return _Tables(
        dt=dt,
        w1=math.sqrt(config.tau1 / dt) if i1 else 0.0,
        w2=math.sqrt(config.tau2 / dt) if i2 else 0.0,
        i1=i1,
        i2=i2,
        ito=ito,
        per_step=per_step,
        recorded_cov=cov[record],
        grid=record[grid_rows],
        grid_rows=grid_rows,
        columns=columns,
        pairs=pairs,
        drift=drift,
    )


def _scratch(m: int, n_steps: int, per_step: bool) -> int:
    """Floats of kernel scratch that ``_chunk`` needs for any chunk of at
    most m trajectories by n_steps steps.

    A kernel span holds at most max(m, min(m * n_steps, tile))
    trajectory-steps, where the tile is PER_STEP_TILE under per-step and
    FREE_SCRATCH // 16 otherwise.  ``_per_step`` takes seven buffers of a
    span and two rows of m, the running sums' totals; ``_free`` takes two,
    its time-major noise copy, and twenty rows of m, its operands.  The bound
    grows with m, so a worker's widest chunk sizes the scratch of them all.
    """
    tile = PER_STEP_TILE if per_step else FREE_SCRATCH // 16
    spans = max(m, min(m * n_steps, tile))
    return 7 * spans + 2 * m if per_step else 2 * spans + 20 * m


def _chunk(t: _Tables, noise: np.ndarray, out: Steps, work: np.ndarray) -> None:
    """Advance m trajectories from the origin by noise.shape[1] steps into out.

    ``noise`` has shape (m, n_steps, 2): two standard normals per trajectory
    and step, consumed also for unmonitored channels so the stream layout
    does not depend on the channel setup, and only read.  ``t`` holds the
    run's constants and the grid points to record, and ``out`` zeros in
    each field to record, one row per recorded grid point and one column per
    trajectory; the others are None, and only what the recorded ones need is
    computed.
    A row for grid point 0 keeps its zeros.  ``work`` is the kernel's
    scratch, a flat float array of at least ``_scratch(m, n_steps,
    t.per_step)`` elements, which the kernel overwrites.  The scheme picks
    the ledger rule.  Under ``per-step`` the means are reset after every step
    and ``_per_step`` takes the steps in spans; otherwise the means evolve
    freely and ``_free`` takes them in order.
    """
    if t.per_step:
        _per_step(t, noise, out, work)
    else:
        _free(t, noise, out, work)


def _free(t: _Tables, noise: np.ndarray, out: Steps, work: np.ndarray) -> None:
    """The free policies: fill ``out`` with the steps taken one at a time.

    Step k from the means (q1, q2), with normals g and the covariance row
    (c3, c4, c5) of grid point k, reads r_i = q_i + w_i*g_i and takes the
    innovations u_i = r_i - q_i; then new1 = q1 + dt*((q2 + c3*i1*u1) +
    c4*i2*u2) and new2 = q2 + dt*((-q1 + c4*i1*u1) + c5*i2*u2), and with
    inc_i = u_i*i_i*dt the ledger increment (m1*c3 + m2*c4)*inc1 + (m1*c4 +
    m2*c5)*inc2 at the midpoints m = 0.5*(q + new) (Stratonovich) or
    (nu**2/tau1*dt + q1*c3*inc1) + q2*c5*inc2 with nu = c3/2 (Ito).

    The means evolve without resets, so the steps run in order.  They are
    held as one (3, m) array z = [q1, q2, -q1], whose rows 0:2 are q =
    [q1, q2] and rows 1:3 are p = [q2, -q1], the drift of the mean update.
    So each operation on the two channels is one call on two rows, adding
    in the step's order (-q1 + y is y + (-q1) exactly): new = q + dt*((p +
    u1*[c3*i1, c4*i1]) + u2*[c4*i2, c5*i2]), inc = u*[i1, i2]*dt, and the
    ledger's (m1*[c3, c4] + m2*[c4, c5])*inc, whose two rows are added, or
    q*[c3, c5]*inc, added to the drift.  The ledger is taken only if
    ``out`` records it or its running sum.  Every operation writes into a
    (20, m) buffer at the head of ``work``, never into one of its own inputs:
    numpy checks such an overlap on every call, which costs more than the
    arithmetic when m is small.  The noise is read from a time-major copy in
    the rest of ``work``, scaled by the readout weights, made for as many
    steps as fit FREE_SCRATCH bytes at a time (at least one), so each step
    reads its normals contiguously; ``_layout`` keeps a chunk within
    FREE_SCRATCH // 16 trajectories, so one step fits.  Nothing of the chunk's
    size is allocated here: the caller's ``work`` is reused chunk after chunk.
    """
    m, n_steps, _ = noise.shape
    dt = t.dt
    ledger = out.increment is not None or out.ledger is not None
    recorded = [(f, i) for i, f in enumerate((out.q1, out.q2, out.r1, out.r2,
                                              out.increment, out.ledger)) if f is not None]

    span = max(1, min(n_steps, FREE_SCRATCH // (16 * m)))
    buf = work[: 20 * m].reshape(20, m)
    noise_t = work[20 * m : (20 + 2 * span) * m].reshape(span, 2, m)
    weights = np.array([[t.w1], [t.w2]])
    inv = np.array([[t.i1], [t.i2]])
    r, u, x, y, v = buf[6:8], buf[8:10], buf[10:12], buf[12:14], buf[14:16]
    r1, r2, u1, u2, x1, x2, y1, y2 = r[0], r[1], u[0], u[1], x[0], x[1], y[0], y[1]
    dw, tmp = buf[16:18]
    # step k reads z and the ledger from one set of buffers and writes the
    # next into the other, set k % 2: q, p, the new q, its rows and -new q1,
    # the ledger and the new ledger
    sides = [
        (z[0:2], z[1:3], zn[0:2], zn[0], zn[1], zn[2], led, led_next)
        for z, zn, led, led_next in (
            (buf[0:3], buf[3:6], buf[18], buf[19]),
            (buf[3:6], buf[0:3], buf[19], buf[18]),
        )
    ]
    buf[0:3] = [[0.0], [0.0], [-0.0]]
    buf[18] = 0.0
    # the recorded grid points and their rows, walked in step order
    marks = zip(map(int, t.grid), map(int, t.grid_rows))
    mark, row = next(marks, (0, 0))
    for k0 in range(0, n_steps, span):
        k1 = min(k0 + span, n_steps)
        tile = noise_t[: k1 - k0]
        np.copyto(tile, noise[:, k0:k1].transpose(1, 2, 0))
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
                if t.ito:
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
            if k + 1 == mark:
                values = (new1, new2, r1, r2, dw, led_next)
                for field, i in recorded:
                    field[row] = values[i]
                mark, row = next(marks, (0, 0))


def _per_step(t: _Tables, noise: np.ndarray, out: Steps, work: np.ndarray) -> None:
    """The per-step policy: fill ``out`` as a step loop with resets would.

    After each step the trap is re-centred, so every step starts at the
    origin: its readouts, updated means, harvest and ledger increment depend
    only on its own normals and covariance row.  The m trajectories take
    their steps at once, in spans of PER_STEP_TILE // m (at least one) into
    seven buffers in ``work``, after two rows of m for the running sums'
    totals, with the expressions of ``_free``'s step at q1 = q2 = 0, in the
    same order.  A term is dropped only where it cannot change a bit of the
    result, such as a ``0.0 +`` that cannot change the sign of a zero.  Running sums are cumulative sums
    along the steps, with the previous span's total added to the first
    column, so they add in the loop's order.  When ``out`` records no
    running sum, only the recorded steps are taken, their noise and
    covariance rows gathered into the spans; the harvest and the ledger
    increment are taken only if ``out`` records them or their sums.
    """
    m, n_steps, _ = noise.shape
    dt = t.dt
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

    totals = work[: 2 * m].reshape(2, m)
    totals[...] = 0.0
    led, ext = totals
    buffers = work[2 * m : (2 + 7 * span) * m].reshape(7, m, span)
    for n, i0 in enumerate(range(0, len(steps), span)):
        i1 = min(i0 + span, len(steps))
        cols = slice(i0, i1) if running else steps[i0:i1]
        r1, r2, n1, n2, x, dw, h = buffers[:, :, : i1 - i0]
        g = noise[:, cols]

        # readouts 0 + w*g, which are also the innovations r - 0
        np.multiply(g[:, :, 0], t.w1, out=r1)
        r1 += 0.0
        np.multiply(g[:, :, 1], t.w2, out=r2)
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

        if ledger and t.ito:
            # nu**2/tau*dt + (q1*c3)*inc1 + (q2*c5)*inc2 at q1 = q2 = 0:
            # for finite normals the products are signed zeros, and the
            # drift (>= +0) plus a signed zero is the drift
            dw[...] = t.drift[cols]
        elif ledger:
            # (m1*c3 + m2*c4)*inc1 + (m1*c4 + m2*c5)*inc2, m_i = 0.5*(0 + new_i)
            # and inc_i = innov_i*i_i*dt
            r1 *= t.i1
            r1 *= dt
            r2 *= t.i2
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


def worker_threads() -> int:
    """CPUs this process may run on: the most workers one ensemble uses, and
    the CSV writer's threads."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _split(start: int, stop: int, parts: int, unit: int = 1) -> list[int]:
    """Edges of parts near-equal pieces of start..stop-1, cut every unit from start."""
    units = -(-(stop - start) // unit)
    return [min(stop, start + unit * (units * i // parts)) for i in range(parts + 1)]


def _layout(n_traj: int, n_steps: int, per_step: bool = False) -> list[list[int]]:
    """Chunk edges of each worker of an ensemble: the caller, then one forked
    process per further range, and the caller alone where ``os.fork`` does not
    exist.

    Each worker takes one contiguous range of whole blocks and advances it in
    near-equal chunks, cut at any trajectory, so no narrow tail chunk is
    left.  A per-step chunk is the kernel's tile, at most
    max(1, PER_STEP_TILE // n_steps) trajectories; a free-policy chunk holds
    at most max(FREE_WIDTH, FREE_TILE // n_steps) trajectories, so its noise
    stays near cache size, and at most FREE_SCRATCH // 16, so ``_free``'s
    noise copy holds a step of it.  NOISE_BUDGET holds the noise of ``fits``
    trajectories: no more workers run than it holds a tile (per-step) or a
    block (free) for each, and each worker's chunks hold at most its share
    of ``fits`` (but at least one trajectory).
    """
    fits = max(1, NOISE_BUDGET // (16 * n_steps))
    if per_step:
        width = floor = max(1, PER_STEP_TILE // n_steps)
    else:
        width = min(max(FREE_WIDTH, FREE_TILE // n_steps), FREE_SCRATCH // 16)
        floor = STREAM_BLOCK
    cpus = worker_threads() if hasattr(os, "fork") else 1
    workers = min(cpus, -(-n_traj // STREAM_BLOCK), max(1, fits // floor))
    width = max(1, min(width, fits // workers))
    ranges = pairwise(_split(0, n_traj, workers, STREAM_BLOCK))
    return [_split(a, b, -(-(b - a) // width)) for a, b in ranges]


def _mapping_floats(edges: list[int], n_steps: int, per_step: bool) -> int:
    """Floats of the one mapping of a worker whose chunks lie between edges:
    the noise of its widest chunk, then the kernel's scratch for it."""
    width = int(np.diff(edges).max())
    return 2 * width * n_steps + _scratch(width, n_steps, per_step)


def ensemble_layout(config: EngineConfig) -> dict[str, int]:
    """The workers that ``run_ensembles`` uses for config's ensemble
    (``workers``: the caller and the processes it forks), the bytes of their
    noise and scratch mappings (``scratch_bytes``), their chunks (``chunks``)
    and the widest chunk's trajectories (``chunk_width``), as each run's
    manifest records them; ensembles that share their noise share these too."""
    per_step = config.policy == "per-step"
    plan = _layout(config.n_traj, config.n_steps, per_step)
    floats = sum(_mapping_floats(edges, config.n_steps, per_step) for edges in plan)
    return {
        "workers": len(plan),
        "scratch_bytes": 8 * floats,
        "chunks": sum(len(edges) - 1 for edges in plan),
        "chunk_width": max(int(np.diff(edges).max()) for edges in plan),
    }


class _BlockStreams:
    """Draws the noise of trajectories first..stop-1 from their block streams;
    first is the first trajectory of a block, as every worker's range starts.

    The generators of the blocks are created here, once each and in block
    order, so the fills may run in a forked worker; each generator is carried
    across fills, so a run of fills draws every normal exactly once.
    """

    def __init__(self, seed: int, first: int, stop: int) -> None:
        self.next = first
        self.gens = {
            block: NoiseSource(seed, block).generator()
            for block in range(first // STREAM_BLOCK, -(-stop // STREAM_BLOCK))
        }

    def fill(self, out: np.ndarray) -> None:
        """Fill out, shape (m, n_steps, 2), with the next m trajectories."""
        pos = 0
        while pos < len(out):
            block, offset = divmod(self.next, STREAM_BLOCK)
            take = min(len(out) - pos, STREAM_BLOCK - offset)
            self.gens[block].standard_normal(out=out[pos:pos + take])
            pos += take
            self.next += take


def _run_blocks(
    tables: Sequence[_Tables],
    streams: _BlockStreams,
    edges: list[int],
    outs: Sequence[Steps],
    cancelled: Callable[[], bool],
) -> None:
    """Advance the chunks between consecutive edges of every run in tables,
    each into views of its columns of that run's record in outs.  A chunk's
    noise is drawn once and handed to each run read-only.  Stops before its
    next chunk once cancelled() is true.
    """
    # one anonymous mapping per worker holds its noise and its kernel's
    # scratch, so no buffer of a chunk's size comes from the heap: the
    # mapping's pages go back to the system when the ensemble ends, while
    # freed heap memory can stay resident (malloc's mmap threshold rises to
    # the largest block freed), raising the peak of every later run in the
    # process
    n_steps, per_step = len(tables[0].drift), tables[0].per_step
    noise_floats = 2 * int(np.diff(edges).max()) * n_steps
    mapping = np.frombuffer(mmap.mmap(-1, 8 * _mapping_floats(edges, n_steps, per_step)))
    buffer = mapping[:noise_floats].reshape(-1, n_steps, 2)
    work = mapping[noise_floats:]
    # the kernel reads the noise through a read-only view, so that no run
    # can change the normals of the runs after it
    shared = buffer.view()
    shared.flags.writeable = False
    fields = [[getattr(out, name) for name in STEP_FIELDS] for out in outs]
    for a, b in pairwise(edges):
        if cancelled():
            return
        streams.fill(buffer[: b - a])
        for t, out, columns in zip(tables, outs, fields):
            view = Steps(*(f if f is None else f[:, a:b] for f in columns), cov=out.cov)
            _chunk(t, shared[: b - a], view, work)


def _fork(
    tables: Sequence[_Tables],
    streams: _BlockStreams,
    edges: list[int],
    outs: Sequence[Steps],
    flag: np.ndarray,
) -> tuple[int, int]:
    """Run ``_run_blocks`` on edges in a forked child, which writes outs (in
    the shared mapping) in place; returns the child's pid and the read end of
    the pipe that brings back its exception.

    The child stops before its next chunk once flag[0] is set or its parent
    is gone.  When it fails, it sets flag[0] and sends its exception pickled
    (or, if that does not pickle, a RuntimeError with its repr); it leaves
    through ``os._exit``, so no exit handler or buffered stream of the
    caller's runs in it.
    """
    parent = os.getpid()
    read, write = os.pipe()
    # Python 3.12 and later warn that forking a process with other threads
    # (numpy's OpenBLAS starts one at import) may deadlock the child on a
    # lock one of them held.  The child takes no lock that another thread
    # uses: it runs only numpy ufuncs, the block generators that it alone
    # draws from, the pickling of its error and os._exit
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    try:
        os.close(read)
        _run_blocks(tables, streams, edges, outs, lambda: flag[0] or os.getppid() != parent)
        if os.getppid() != parent:
            raise RuntimeError("ensemble worker stopped: its caller is gone")
        os._exit(0)
    except BaseException as exc:
        flag[0] = 1
        try:
            message = pickle.dumps(exc)
            pickle.loads(message)
        except Exception:
            message = pickle.dumps(RuntimeError(repr(exc)))
        with open(write, "wb") as pipe:
            pipe.write(message)
    finally:
        os._exit(1)


def _raise_failure(pid: int, message: bytes, status: int) -> None:
    """Raise the failure of the reaped worker pid: the exception it sent,
    message, or a ChildProcessError if its wait status says it died without
    one, e.g. killed by a signal, whose columns are then not results."""
    code = os.waitstatus_to_exitcode(status)
    if message:
        raise pickle.loads(message)
    if code < 0:
        import signal  # its enums cost a millisecond at import, paid only here

        raise ChildProcessError(
            f"ensemble worker {pid} was killed by signal {signal.Signals(-code).name}"
        )
    if code:
        raise ChildProcessError(f"ensemble worker {pid} exited with status {code}")


#: The config values of the ensembles that ``run_ensembles`` runs on one
#: set of normals: they fix the noise and the step grid.
SHARED_NOISE = ("seed", "n_traj", "t_final", "dt", "policy")


def run_ensembles(
    configs: Sequence[EngineConfig],
    checkpoints: Sequence[float],
    fields: Collection[str] = STEP_FIELDS,
) -> list[Steps]:
    """Advance the n_traj trajectories of each config on the same normals,
    recording them at the checkpoints.

    The configs must agree on SHARED_NOISE (dt as resolved), and may differ
    in everything else, such as the channels or nbar: each normal is drawn
    once and every config steps on it, so the result for each config is
    that of its own run, bit for bit, for the cost of one run's draws.
    Trajectory j consumes its slice of block stream (seed, j //
    STREAM_BLOCK).  The blocks are split into one contiguous range per
    worker (``_layout``); every block generator is created here, and so are
    the tables of every config, which checks them all before any worker
    starts.  The caller runs the first range and a forked child each of the
    others (``_fork``), and every record field lives in one anonymous shared
    mapping, which the children fill in place.  Each worker refills its own
    noise buffer for each of its chunks and advances the chunk in its own
    columns of each config's record.  Every normal is drawn once, so results
    are independent of chunking and of the worker count, and column j equals
    ``run_trajectory(config, j)`` at the checkpoints.
    When a worker raises, it sets the cancel flag, a byte of the mapping,
    and the other workers stop at their next chunk; its exception is raised
    here.  After any error or interrupt, every child still running is killed,
    and no child is left unreaped.
    Checkpoint times must lie on the step grid, each at most once.

    Returns the ``Steps`` of each config's ensemble at the checkpoints, one
    column per trajectory, in the order of configs.  ``fields`` names the
    per-trajectory fields to compute (by default all of STEP_FIELDS); the
    others are None.
    """
    unknown = set(fields) - set(STEP_FIELDS)
    if unknown:
        raise ValueError(f"not a per-trajectory Steps field: {', '.join(sorted(unknown))}")
    if not configs:
        raise ValueError("need at least one config")
    for config in configs:
        config.validate()
    first = configs[0]
    for config, name in product(configs[1:], SHARED_NOISE):
        a, b = (getattr(c, "resolved_dt" if name == "dt" else name) for c in (first, config))
        if a != b:
            raise ValueError(
                f"ensembles on shared noise must agree on {name}, got {a!r} and {b!r}"
            )
    n_steps = first.n_steps
    cp_idx = first.step_index(np.asarray(checkpoints, dtype=float))
    if len(cp_idx) == 0:
        raise ValueError("need at least one checkpoint")
    # the later occurrences of repeated checkpoints: a stable sort keeps the first first
    order = np.argsort(cp_idx, kind="stable")
    repeats = order[1:][np.diff(cp_idx[order]) == 0]
    if len(repeats):
        i = repeats.min()
        raise ValueError(f"checkpoint time {checkpoints[i]} is repeated (step {cp_idx[i]})")
    tables = [
        _tables(c, covariance_series(c.nbar, c.tau1, c.tau2, c.resolved_dt, n_steps), cp_idx)
        for c in configs
    ]

    shape = (len(cp_idx), first.n_traj)
    size = len(tables) * sum(name in fields for name in STEP_FIELDS) * math.prod(shape)
    # every record field, then the cancel flag's byte, in one mapping that
    # forked workers share
    mapping = mmap.mmap(-1, 8 * size + 1)
    records = iter(np.frombuffer(mapping, count=size).reshape(-1, *shape))
    flag = np.frombuffer(mapping, np.uint8, 1, offset=8 * size)
    outs = [
        Steps(*(next(records) if name in fields else None for name in STEP_FIELDS),
              cov=t.recorded_cov)
        for t in tables
    ]
    plan = _layout(first.n_traj, n_steps, tables[0].per_step)
    streams = [_BlockStreams(first.seed, edges[0], edges[-1]) for edges in plan]
    workers: dict[int, int] = {}  # the pid of each child not yet reaped, and its pipe
    pipes = []
    try:
        for s, edges in zip(streams[1:], plan[1:]):
            pid, pipe = _fork(tables, s, edges, outs, flag)
            workers[pid] = pipe
            pipes.append(pipe)
        _run_blocks(tables, streams[0], plan[0], outs, lambda: flag[0])
        for pid, pipe in list(workers.items()):
            with open(pipe, "rb", closefd=False) as reader:
                message = reader.read()  # until the child exits
            status = os.waitpid(pid, 0)[1]
            del workers[pid]
            _raise_failure(pid, message, status)
    finally:
        if workers:
            # an error or an interrupt: no running child's columns are needed
            import signal

            for pid in workers:
                os.kill(pid, signal.SIGKILL)
            for pid in workers:
                os.waitpid(pid, 0)
        for pipe in pipes:
            os.close(pipe)
    return outs


def run_ensemble_arrays(
    config: EngineConfig,
    checkpoints: Sequence[float],
    fields: Collection[str] = STEP_FIELDS,
) -> Steps:
    """The ensemble of config at the checkpoints: the one-config case of
    ``run_ensembles``, whose record it returns."""
    return run_ensembles([config], checkpoints, fields)[0]


def run_trajectory(config: EngineConfig, j: int = 0) -> Steps:
    """Trajectory j of config's ensemble at every grid point 0..n_steps.

    The m = 1 case of ``run_ensemble_arrays``: column j of its record of the
    first j + 1 trajectories, with every field, at every grid point.
    """
    config.validate()
    times = np.arange(config.n_steps + 1) * config.resolved_dt
    steps = run_ensemble_arrays(replace(config, n_traj=j + 1), times)
    return Steps(*(getattr(steps, name)[:, j:] for name in STEP_FIELDS), cov=steps.cov)
