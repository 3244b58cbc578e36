"""The one description of a run, shared by every family, preset and library call.

All quantities are dimensionless: energies in hbar*omega, times in 1/omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import UnsupportedConfigurationError
from .gaussian import inv_2tau

POLICIES = ("terminal", "per-step", "none")
SCHEMES = ("stratonovich", "ito")

DEFAULT_N_TRAJ = 10_000
#: Default step: about min(tau1, tau2)/100, capped so dt stays small against
#: the oscillation period as well, and adjusted so it divides t_final (or a
#: preset's checkpoint spacing).
DT_DIVISOR = 100.0
#: Largest acceptable dt relative to min(tau1, tau2, 1).
MAX_DT_FRACTION = 0.1
#: Most steps a run may take; the covariance series and a trajectory's noise
#: grow linearly with it (24 and 16 bytes per step).
MAX_N_STEPS = 10**6
#: Largest nbar, and largest r0**2, a run accepts (energies in hbar*omega).
#: Work samples then stay below 50 * MAX_ENERGY unless an exponential
#: deviate passes 50 (probability e**-50 each), so the sample variance, a
#: sum of their squares, stays finite up to 1.8e308 / (50 * MAX_ENERGY)**2,
#: about 7e24 samples.
MAX_ENERGY = 1e140


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Physical and numerical parameters of one engine run."""

    nbar: float = 0.0
    tau1: float = 1.0
    tau2: float = 1.0
    dt: float | None = None
    t_final: float = 1.0
    n_traj: int = DEFAULT_N_TRAJ
    policy: str = "terminal"
    scheme: str = "stratonovich"
    r0: float = 1.0
    demon_kbtd: float = 0.0
    spring_k: float = 1.0
    kbt: float = 1.0
    seed: int = 0
    output_path: Path | None = None

    @property
    def resolved_dt(self) -> float:
        return self.dt if self.dt is not None else self.default_dt(self.t_final)

    def default_dt(self, spacing: float) -> float:
        """About min(tau1, tau2, 1)/DT_DIVISOR, adjusted so it divides spacing.

        Every multiple of ``spacing`` then lies on the step grid.
        """
        base = min(self.tau1, self.tau2, 1.0) / DT_DIVISOR
        steps = spacing / base
        # an overflowed step count keeps base, for validate to reject
        return spacing / max(round(steps), 1) if steps < math.inf else base

    @property
    def n_steps(self) -> int:
        steps = round(self.t_final / self.resolved_dt)
        return max(int(steps), 1)

    def step_index(self, t: float | np.ndarray) -> int | np.ndarray:
        """Grid index of time t, or of each of an array of times; each must lie on
        the step grid within the horizon, and an error names the first that does not."""
        dt = self.resolved_dt
        times = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and nan fail the grid
            k = np.round(times / dt)
            off_grid = ~(np.abs(k * dt - times) <= 1e-9)
        bad = np.flatnonzero(off_grid | (k < 0) | (k > self.n_steps))
        if len(bad):
            first = t if times.ndim == 0 else times.flat[bad[0]].item()
            if off_grid.flat[bad[0]]:
                raise ValueError(f"time {first} does not lie on the step grid with dt={dt}")
            raise ValueError(f"time {first} outside the horizon {self.t_final}")
        return int(k) if times.ndim == 0 else k.astype(int)

    def validate(self) -> "EngineConfig":
        """Check every domain constraint; returns self for chaining.

        Values may come from a JSON file, so types are checked first, and
        every comparison is written so that NaN fails it.  tau = inf is valid
        and switches a channel off.
        """
        for name in ("nbar", "tau1", "tau2", "dt", "t_final", "r0", "demon_kbtd",
                     "spring_k", "kbt"):
            value = getattr(self, name)
            if name == "dt" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("n_traj", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0.0 <= self.nbar <= MAX_ENERGY:
            raise ValueError(f"nbar must lie in [0, {MAX_ENERGY:g}], got {self.nbar}")
        if not self.tau1 > 0.0 or not self.tau2 > 0.0:
            raise ValueError(
                f"measurement times must be positive, got ({self.tau1}, {self.tau2})"
            )
        if not 0.0 < self.t_final < math.inf:
            raise ValueError(f"t_final must be finite and > 0, got {self.t_final}")
        dt = self.resolved_dt
        if not dt > 0.0:
            raise ValueError(f"dt must be > 0, got {dt}")
        if not dt <= MAX_DT_FRACTION * min(self.tau1, self.tau2, 1.0):
            raise ValueError(
                f"dt={dt} too large: must be <= {MAX_DT_FRACTION} * min(tau1, tau2, 1)"
            )
        # a monitored channel's readout noise weight sqrt(tau/dt) must be
        # finite; a float quotient overflows to inf, as a subnormal dt may make it
        for name in ("tau1", "tau2"):
            tau = getattr(self, name)
            if inv_2tau(tau) and not tau / dt < math.inf:
                raise ValueError(
                    f"{name}={tau} with dt={dt}: the readout noise weight "
                    f"sqrt({name}/dt) overflows"
                )
        # a float quotient, so a subnormal dt that overflows it still compares
        steps = self.t_final / dt
        if steps > MAX_N_STEPS + 0.5:
            raise ValueError(
                f"t_final={self.t_final} with dt={dt} needs {steps:.6g} steps; "
                f"at most {MAX_N_STEPS} are allowed"
            )
        # the horizon must lie on the step grid, as every checkpoint must
        self.step_index(self.t_final)
        if self.n_traj < 1:
            raise ValueError(f"n_traj must be >= 1, got {self.n_traj}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "ito" and self.tau1 != self.tau2:
            raise UnsupportedConfigurationError(
                "the Ito work ledger is defined only for symmetric channels "
                f"(tau1 == tau2); got ({self.tau1}, {self.tau2})"
            )
        if not 0.0 < self.r0 <= math.sqrt(MAX_ENERGY):
            raise ValueError(
                f"r0 must lie in (0, {math.sqrt(MAX_ENERGY):g}], got {self.r0}"
            )
        if not 0.0 <= self.demon_kbtd < math.inf:
            raise ValueError(
                f"demon_kbtd must be finite and >= 0, got {self.demon_kbtd}"
            )
        if not 0.0 < self.spring_k < math.inf:
            raise ValueError(
                f"spring constant must be finite and > 0, got {self.spring_k}"
            )
        # W = kbt*g**2/2 for a standard normal g, so a bounded kbt keeps the
        # samples and their variance finite, as MAX_ENERGY does for nbar; a
        # bounded kbt/k keeps x ~ N(0, kbt/k) finite
        if not 0.0 <= self.kbt <= MAX_ENERGY:
            raise ValueError(f"kB*T must lie in [0, {MAX_ENERGY:g}], got {self.kbt}")
        if not self.kbt / self.spring_k <= MAX_ENERGY**2:
            raise ValueError(
                f"kB*T / spring constant must be <= {MAX_ENERGY**2:g}, "
                f"got {self.kbt / self.spring_k}"
            )
        return self
