"""Conditional-state step kernel, work extraction, and trajectory drivers.

Each step of the monitored oscillator is one Gaussian conditional-state
update: the two readouts r_i = q_i + sqrt(tau_i/dt) * g_i (g_i standard
normal; an unmonitored channel reports r_i = q_i), an Euler-Maruyama mean
step driven by the innovations r_i - q_i weighted by the current
covariances, a work-ledger increment, and an optional reset.  One array
function, ``_advance``, performs this update for a block of trajectories;
``run_ensemble_arrays`` calls it once per chunk of trajectories and
``run_trajectory`` calls it for a single trajectory, recording every step.

Work is harvested by shifting the bottom of the harmonic trap onto the
conditional mean, which zeroes (q1, q2), leaves the covariances untouched,
and banks (q1**2 + q2**2)/2 units of hbar*omega.  Two extraction policies
are supported:

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
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .config import EngineConfig
from .errors import UnsupportedConfigurationError
from .gaussian import GaussianState, NoiseSource, covariance_series, thermal_state

#: Absolute slack on |q4| and |q3 - q5| when the Ito ledger checks that the
#: covariance matrix is in normal form.
NORMAL_FORM_TOL = 1e-9


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
    the shared deterministic covariance triplet at each checkpoint.  Means
    q1, q2 are recorded after the mean update and before any reset.
    """

    times: np.ndarray
    cov: np.ndarray
    ledger_cum: np.ndarray
    extracted_cum: np.ndarray
    displacement_energy: np.ndarray
    step_work: np.ndarray
    q1: np.ndarray
    q2: np.ndarray


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
    grid point 0, and ``record`` the grid points to record.  The policy
    decides whether the means are reset after each step; the scheme picks
    the ledger rule.
    """
    m, n_steps, _ = noise.shape
    dt = config.resolved_dt
    channels = config.channels()
    i1 = channels.inv_2tau1
    i2 = channels.inv_2tau2
    w1 = math.sqrt(channels.tau1 / dt) if channels.monitors_position else 0.0
    w2 = math.sqrt(channels.tau2 / dt) if channels.monitors_momentum else 0.0

    use_ito = config.scheme == "ito"
    if use_ito and (
        np.abs(cov[:, 1]).max() > NORMAL_FORM_TOL
        or np.abs(cov[:, 0] - cov[:, 2]).max() > NORMAL_FORM_TOL
    ):
        raise UnsupportedConfigurationError(
            "Ito work ledger requires the covariance normal form along the run"
        )
    per_step = config.policy == "per-step"

    out = _Steps(*(np.zeros((len(record), m)) for _ in range(8)))
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
            dW = nu * nu / channels.tau1 * dt + q1 * c3 * inc1 + q2 * c5 * inc2
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


def apply_reset(state: GaussianState) -> tuple[GaussianState, float]:
    """Shift the trap onto the conditional mean and bank the work.

    Returns the reset state (means zeroed, covariances bit-identical) and
    the extracted work (q1**2 + q2**2)/2.
    """
    extracted = state.displacement_energy()
    return replace(state, q1=0.0, q2=0.0), extracted


def run_trajectory(config: EngineConfig, noise: NoiseSource) -> TrajectoryRecord:
    """Simulate one trajectory from a thermal state under the configured policy.

    Pure function of (config, noise): identical inputs reproduce identical
    records, and trajectory j of ``run_ensemble_arrays`` equals this record
    for NoiseSource(config.seed, j).  The work ledger accrues increments in
    config.scheme; harvested work is recorded separately in ``extracted``
    (every step for the per-step policy, once at the horizon for the
    terminal policy).
    """
    config.validate()
    n = config.n_steps
    cov = covariance_series(
        thermal_state(config.nbar), config.channels(), config.resolved_dt, n
    )
    g = noise.generator().standard_normal((1, n, 2))
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
    budget = 48_000_000  # bytes of noise per chunk
    per_traj = 16 * max(n_steps, 1)
    return max(128, min(n_traj, budget // per_traj))


def _noise_block(base: NoiseSource, start: int, stop: int, n_steps: int) -> np.ndarray:
    """Noise of trajectories start..stop-1, each from its own stream (seed, j)."""
    noise = np.empty((stop - start, n_steps, 2))
    for j in range(start, stop):
        noise[j - start] = base.substream(j).generator().standard_normal((n_steps, 2))
    return noise


def run_ensemble_arrays(
    config: EngineConfig,
    checkpoints: Sequence[float],
    base_noise: NoiseSource | None = None,
) -> EnsembleRecord:
    """Advance n_traj independent trajectories, checkpointing work quantities.

    Trajectory j consumes noise stream (config.seed, j), so results are
    independent of chunking and equal to run_trajectory with the matching
    substream.  Checkpoint times must lie on the step grid.

    Returns per-trajectory arrays at each checkpoint: the ledger cumulative,
    the cumulative harvested work, the displacement energy (q1**2+q2**2)/2
    of the running state before any reset at that step, the single-step
    harvest/increment of the step ending at the checkpoint, and the means.
    """
    config.validate()
    if base_noise is None:
        base_noise = NoiseSource(config.seed)
    n_steps = config.n_steps
    cp_idx = np.array([config.step_index(tc) for tc in checkpoints], dtype=int)
    if len(cp_idx) == 0:
        raise ValueError("need at least one checkpoint")
    cov = covariance_series(
        thermal_state(config.nbar), config.channels(), config.resolved_dt, n_steps
    )

    n_traj = config.n_traj
    ledger_cum, extracted_cum, displacement, step_work, mean_q1, mean_q2 = (
        np.zeros((len(cp_idx), n_traj)) for _ in range(6)
    )
    chunk = _chunk_size(n_traj, n_steps)
    for start in range(0, n_traj, chunk):
        stop = min(start + chunk, n_traj)
        noise = _noise_block(base_noise, start, stop, n_steps)
        steps = _advance(config, cov, noise, (0.0, 0.0), cp_idx)
        ledger_cum[:, start:stop] = steps.ledger
        extracted_cum[:, start:stop] = steps.harvested
        displacement[:, start:stop] = 0.5 * (steps.q1 * steps.q1 + steps.q2 * steps.q2)
        step_work[:, start:stop] = (
            steps.harvest if config.policy == "per-step" else steps.increment
        )
        mean_q1[:, start:stop] = steps.q1
        mean_q2[:, start:stop] = steps.q2

    return EnsembleRecord(
        times=np.asarray(checkpoints, dtype=float),
        cov=cov[cp_idx],
        ledger_cum=ledger_cum,
        extracted_cum=extracted_cum,
        displacement_energy=displacement,
        step_work=step_work,
        q1=mean_q1,
        q2=mean_q2,
    )
