"""Gaussian conditional state of a weakly monitored harmonic oscillator.

The oscillator is described in dimensionless units (x in units of
sqrt(hbar/m*omega), p in units of sqrt(hbar*m*omega), time in units of
1/omega, energy in units of hbar*omega).  Both quadratures are monitored
simultaneously by independent weak-measurement channels with characteristic
times tau1 (position) and tau2 (momentum); ``inv_2tau`` switches a channel
off at or beyond NO_MEASUREMENT_TAU.  The conditional state stays
Gaussian, so five numbers carry it:

    q1 = <x>,  q2 = <p>,
    q3 = 2 var(x),  q4 = <xp + px> - 2<x><p>,  q5 = 2 var(p).

The means obey an innovations stochastic differential equation driven by the
readouts r_i = q_i + sqrt(tau_i) * zeta_i (unit-intensity white noise
zeta_i); the step kernel in ``feedback`` integrates it.  The covariances
obey a deterministic Riccati flow that is independent of the measurement
record; ``covariance_series`` integrates them from the thermal state by an
explicit midpoint (second-order) step on three floats.  Nothing else holds
the state: the means live in the kernel's arrays and the covariances in the
series that the kernel reads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
# numpy loads its submodules on first use; loading this one here keeps its
# cost in the import instead of inside the first run
import numpy.random

#: Channels with tau at or beyond this sentinel are treated as unmonitored:
#: every 1/(2*tau) backaction factor is dropped and the readout is silent.
NO_MEASUREMENT_TAU = 1e12

#: Relative slack allowed on the uncertainty product q3*q5 - q4**2 >= 1.
UNCERTAINTY_TOL = 1e-6


def inv_2tau(tau: float) -> float:
    """The backaction factor 1/(2*tau) of a channel with measurement time tau;
    0 for an unmonitored channel, tau at or beyond NO_MEASUREMENT_TAU."""
    return 0.5 / tau if tau < NO_MEASUREMENT_TAU else 0.0


class NoiseSource(NamedTuple):
    """Deterministic, splittable randomness handle: a seed and a block stream.

    ``generator()`` is a PCG64 generator seeded by
    SeedSequence(seed, spawn_key=(stream,)).  Ensembles give stream b to
    trajectories b*STREAM_BLOCK..(b+1)*STREAM_BLOCK-1 (see ``feedback``); the
    single-shot, binary and classical samplers draw from stream 0.
    Identical (seed, stream) pairs reproduce identical deviate sequences;
    distinct streams are statistically independent.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


def _covariance_rates(
    c3: float, c4: float, c5: float, i1: float, i2: float
) -> tuple[float, float, float]:
    """Riccati right-hand side for (q3, q4, q5); i_k = 1/(2*tau_k)."""
    d3 = 2.0 * c4 - c3 * c3 * i1 - c4 * c4 * i2 + i2
    d4 = c5 - c3 - c3 * c4 * i1 - c4 * c5 * i2
    d5 = -2.0 * c4 - c4 * c4 * i1 - c5 * c5 * i2 + i1
    return d3, d4, d5


def covariance_series(
    nbar: float,
    tau1: float,
    tau2: float,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Integrate the covariance flow from the thermal state with nbar quanta
    under channels with measurement times tau1 (position) and tau2
    (momentum); math.inf switches a channel off.

    The thermal state has q3 = q5 = 2*nbar + 1 and q4 = 0.  Each step is one
    explicit-midpoint step of the Riccati flow, which is deterministic
    (independent of the readouts).  Returns (q3, q4, q5) at grid points
    0..n_steps as an (n_steps + 1, 3) array.  Raises ValueError if a step
    leaves the physical region q3*q5 - q4**2 >= 1 by more than
    UNCERTAINTY_TOL, instead of clamping: such a step means dt is too large
    for the requested channels.
    """
    if not tau1 > 0.0 or not tau2 > 0.0:
        raise ValueError(f"measurement times must be positive, got ({tau1}, {tau2})")
    if nbar < 0.0:
        raise ValueError(f"mean thermal occupation must be >= 0, got {nbar}")
    if dt <= 0.0:
        raise ValueError(f"step length must be positive, got {dt}")
    i1 = inv_2tau(tau1)
    i2 = inv_2tau(tau2)
    half = 0.5 * dt
    c3 = c5 = 2.0 * nbar + 1.0
    c4 = 0.0
    out = np.empty((n_steps + 1, 3))
    out[0] = c3, c4, c5
    for k in range(1, n_steps + 1):
        k3, k4, k5 = _covariance_rates(c3, c4, c5, i1, i2)
        f3, f4, f5 = _covariance_rates(
            c3 + half * k3, c4 + half * k4, c5 + half * k5, i1, i2
        )
        c3 = c3 + dt * f3
        c4 = c4 + dt * f4
        c5 = c5 + dt * f5
        if not (c3 > 0.0 and c5 > 0.0 and c3 * c5 - c4 * c4 >= 1.0 - UNCERTAINTY_TOL):
            raise ValueError(
                f"covariance step violated the uncertainty bound at dt={dt}: "
                f"(q3, q4, q5) = ({c3}, {c4}, {c5})"
            )
        out[k] = c3, c4, c5
    return out
