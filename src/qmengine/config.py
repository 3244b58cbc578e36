"""Run configuration shared by the trajectory engine, ensembles, and the CLI.

All quantities are dimensionless: energies in hbar*omega, times in 1/omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from pathlib import Path

from .errors import UnsupportedConfigurationError
from .gaussian import MeasurementChannels

POLICIES = ("terminal", "per-step", "none")
SCHEMES = ("stratonovich", "ito")

DEFAULT_N_TRAJ = 10_000
#: Default sample count of the binary family: its 1% mean gate then sits at
#: about 3.2 standard errors.
BINARY_N_TRAJ = 100_000
#: Default step: about min(tau1, tau2)/100, capped so dt stays small against
#: the oscillation period as well, and adjusted so it divides t_final (or a
#: preset's checkpoint spacing).
DT_DIVISOR = 100.0
#: Largest acceptable dt relative to min(tau1, tau2, 1).
MAX_DT_FRACTION = 0.1
#: Most steps a run may take; the covariance series and a trajectory's noise
#: grow linearly with it (24 and 16 bytes per step).
MAX_N_STEPS = 10**6


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
    seed: int = 0
    output_path: Path | None = None

    def channels(self) -> MeasurementChannels:
        return MeasurementChannels(self.tau1, self.tau2)

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

    def step_index(self, t: float) -> int:
        """Index of the grid point at time t; t must sit on the step grid."""
        k = round(t / self.resolved_dt)
        if abs(k * self.resolved_dt - t) > 1e-9:
            raise ValueError(
                f"time {t} does not lie on the step grid with dt={self.resolved_dt}"
            )
        if not 0 <= k <= self.n_steps:
            raise ValueError(f"time {t} outside the horizon {self.t_final}")
        return int(k)

    def validate(self) -> "EngineConfig":
        """Check every domain constraint; returns self for chaining.

        Values may come from a JSON file, so types are checked first, and
        every comparison is written so that NaN fails it.  tau = inf is valid
        and switches a channel off.
        """
        for name in ("nbar", "tau1", "tau2", "dt", "t_final", "r0", "demon_kbtd"):
            value = getattr(self, name)
            if name == "dt" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, Real):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in ("n_traj", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0.0 <= self.nbar < math.inf:
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")
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
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme == "ito" and self.tau1 != self.tau2:
            raise UnsupportedConfigurationError(
                "the Ito work ledger is defined only for symmetric channels "
                f"(tau1 == tau2); got ({self.tau1}, {self.tau2})"
            )
        if not 0.0 < self.r0 < math.inf:
            raise ValueError(f"r0 must be finite and > 0, got {self.r0}")
        if not 0.0 <= self.demon_kbtd < math.inf:
            raise ValueError(
                f"demon_kbtd must be finite and >= 0, got {self.demon_kbtd}"
            )
        return self

    def with_updates(self, **kwargs) -> "EngineConfig":
        return replace(self, **kwargs)
