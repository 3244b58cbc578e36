"""Classical Brownian baseline and demon-memory erasure accounting.

The classical limit of the engine is a Brownian particle in a harmonic trap:
an error-free position measurement plus an ideal trap shift converts all
available information into work, W = k*x**2/2, averaging kB*T/2 per cycle.
The quantum engine beats this bound at T = 0 thanks to the quantum of noise
added by the dual-quadrature measurement.  k and kB*T are the run config's
``spring_k`` and ``kbt``.

Erasing the demon's memory costs at least kB*T_D times the Shannon entropy
of the record (Landauer); for the binary protocol the record is one bit.
"""

from __future__ import annotations

import math

import numpy as np

from .config import EngineConfig
from .single_shot import binary_average_work


def classical_cycle(config: EngineConfig, rng: np.random.Generator) -> np.ndarray:
    """Sample config.n_traj works of the ideal classical cycle at k = spring_k:
    x ~ N(0, kbt/k), W = k*x**2/2."""
    config.validate()
    x = rng.normal(0.0, math.sqrt(config.kbt / config.spring_k), size=config.n_traj)
    return 0.5 * config.spring_k * x * x


def binary_p0(nbar: float, r0: float) -> float:
    """Probability that the measured amplitude triggers the binary shift.

    P(r >= r0/2) = exp(-r0**2 / (4*(nbar + 1))) for the thermal-state
    outcome law.
    """
    if nbar < 0.0:
        raise ValueError(f"mean thermal occupation must be >= 0, got {nbar}")
    if r0 < 0.0:
        raise ValueError(f"threshold parameter must be >= 0, got {r0}")
    return math.exp(-r0 * r0 / (4.0 * (nbar + 1.0)))


def shannon_entropy_bit(p0: float) -> float:
    """Binary Shannon entropy in nats, with H(0) = H(1) = 0 by continuity."""
    if not 0.0 <= p0 <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {p0}")
    if p0 == 0.0 or p0 == 1.0:
        return 0.0
    return -p0 * math.log(p0) - (1.0 - p0) * math.log(1.0 - p0)


def binary_erasure_cost(p0: float, demon_kbtd: float) -> float:
    """Minimum energy to erase the one-bit record: kB*T_D * H(p0)."""
    if demon_kbtd < 0.0:
        raise ValueError(f"demon kB*T_D must be >= 0, got {demon_kbtd}")
    return demon_kbtd * shannon_entropy_bit(p0)


def binary_thermo_efficiency(nbar: float, r0: float, demon_kbtd: float) -> float:
    """Thermodynamic efficiency of the binary cycle including erasure.

    (<W'> - kB*T_D*H(p0)) / (1 + nbar); reported as-is, so it can turn
    negative when erasure dominates.
    """
    work = binary_average_work(nbar, r0)
    cost = binary_erasure_cost(binary_p0(nbar, r0), demon_kbtd)
    return (work - cost) / (1.0 + nbar)
