"""Gaussian conditional state of a weakly monitored harmonic oscillator.

The oscillator is described in dimensionless units (x in units of
sqrt(hbar/m*omega), p in units of sqrt(hbar*m*omega), time in units of
1/omega, energy in units of hbar*omega).  Both quadratures are monitored
simultaneously by independent weak-measurement channels with characteristic
times tau1 (position) and tau2 (momentum).  The conditional state stays
Gaussian, so five numbers carry it:

    q1 = <x>,  q2 = <p>,
    q3 = 2 var(x),  q4 = <xp + px> - 2<x><p>,  q5 = 2 var(p).

The means obey an innovations stochastic differential equation driven by the
readouts r_i = q_i + sqrt(tau_i) * zeta_i (unit-intensity white noise
zeta_i); the step kernel in ``feedback`` integrates it.  The covariances
obey a deterministic Riccati flow that is independent of the measurement
record; this module advances them by an explicit midpoint (second-order)
step.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import UncertaintyViolationError

#: Channels with tau at or beyond this sentinel are treated as unmonitored:
#: every 1/(2*tau) backaction factor is dropped and the readout is silent.
NO_MEASUREMENT_TAU = 1e12

#: Relative slack allowed on the uncertainty product q3*q5 - q4**2 >= 1.
UNCERTAINTY_TOL = 1e-6


@dataclass(frozen=True, slots=True)
class GaussianState:
    """Means and covariance entries of the conditional Gaussian state."""

    q1: float
    q2: float
    q3: float
    q4: float
    q5: float

    def uncertainty_product(self) -> float:
        """q3*q5 - q4**2; >= 1 for physical states, = 1 for pure ones."""
        return self.q3 * self.q5 - self.q4 * self.q4

    def displacement_energy(self) -> float:
        """Energy stored in the mean displacement, (q1^2 + q2^2)/2."""
        return 0.5 * (self.q1 * self.q1 + self.q2 * self.q2)

    def is_physical(self, tol: float = UNCERTAINTY_TOL) -> bool:
        return (
            self.q3 > 0.0
            and self.q5 > 0.0
            and self.uncertainty_product() >= 1.0 - tol
        )


@dataclass(frozen=True, slots=True)
class MeasurementChannels:
    """Characteristic measurement times of the two quadrature channels.

    tau1 monitors position, tau2 momentum.  math.inf (or any value at or
    beyond NO_MEASUREMENT_TAU) switches a channel off.
    """

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        if not self.tau1 > 0.0 or not self.tau2 > 0.0:
            raise ValueError(
                f"measurement times must be positive, got ({self.tau1}, {self.tau2})"
            )

    @property
    def monitors_position(self) -> bool:
        return self.tau1 < NO_MEASUREMENT_TAU

    @property
    def monitors_momentum(self) -> bool:
        return self.tau2 < NO_MEASUREMENT_TAU

    @property
    def inv_2tau1(self) -> float:
        return 0.5 / self.tau1 if self.monitors_position else 0.0

    @property
    def inv_2tau2(self) -> float:
        return 0.5 / self.tau2 if self.monitors_momentum else 0.0

    @property
    def symmetric(self) -> bool:
        return self.tau1 == self.tau2


@dataclass(frozen=True, slots=True)
class NoiseSource:
    """Deterministic, splittable randomness handle.

    Identical (seed, stream) pairs reproduce identical deviate sequences;
    distinct streams are statistically independent, so ensembles assign
    stream j to trajectory j.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def substream(self, index: int) -> "NoiseSource":
        return NoiseSource(self.seed, index)


def thermal_state(nbar: float) -> GaussianState:
    """Zero-mean thermal state with nbar mean quanta; q3 = q5 = 2*nbar + 1."""
    if nbar < 0.0:
        raise ValueError(f"mean thermal occupation must be >= 0, got {nbar}")
    width = 2.0 * nbar + 1.0
    return GaussianState(0.0, 0.0, width, 0.0, width)


def _covariance_rates(
    c3: float, c4: float, c5: float, i1: float, i2: float
) -> tuple[float, float, float]:
    """Riccati right-hand side for (q3, q4, q5); i_k = 1/(2*tau_k)."""
    d3 = 2.0 * c4 - c3 * c3 * i1 - c4 * c4 * i2 + i2
    d4 = c5 - c3 - c3 * c4 * i1 - c4 * c5 * i2
    d5 = -2.0 * c4 - c4 * c4 * i1 - c5 * c5 * i2 + i1
    return d3, d4, d5


def covariance_step(
    state: GaussianState, channels: MeasurementChannels, dt: float
) -> GaussianState:
    """Advance (q3, q4, q5) by one explicit-midpoint step; means untouched.

    The covariance flow is deterministic (independent of the readouts).
    Raises UncertaintyViolationError if the step leaves the physical region,
    which signals that dt is too large for the requested channels.
    """
    if dt <= 0.0:
        raise ValueError(f"step length must be positive, got {dt}")
    i1 = channels.inv_2tau1
    i2 = channels.inv_2tau2
    c3, c4, c5 = state.q3, state.q4, state.q5

    k3, k4, k5 = _covariance_rates(c3, c4, c5, i1, i2)
    half = 0.5 * dt
    f3, f4, f5 = _covariance_rates(
        c3 + half * k3, c4 + half * k4, c5 + half * k5, i1, i2
    )
    n3 = c3 + dt * f3
    n4 = c4 + dt * f4
    n5 = c5 + dt * f5

    if not (n3 > 0.0 and n5 > 0.0 and n3 * n5 - n4 * n4 >= 1.0 - UNCERTAINTY_TOL):
        raise UncertaintyViolationError(
            f"covariance step violated the uncertainty bound at dt={dt}: "
            f"(q3, q4, q5) = ({n3}, {n4}, {n5})"
        )
    return replace(state, q3=n3, q4=n4, q5=n5)


def covariance_series(
    state: GaussianState,
    channels: MeasurementChannels,
    dt: float,
    n_steps: int,
) -> np.ndarray:
    """Integrate the covariance flow; returns an (n_steps + 1, 3) array."""
    out = np.empty((n_steps + 1, 3))
    out[0] = (state.q3, state.q4, state.q5)
    current = state
    for k in range(n_steps):
        current = covariance_step(current, channels, dt)
        out[k + 1] = (current.q3, current.q4, current.q5)
    return out
