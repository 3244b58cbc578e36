"""Single-shot engine cycle: thermalize, measure in the coherent-state basis,
rectify by free evolution, extract work by a sudden trap shift.

A coherent-state-basis (phase-preserving) measurement of a thermal state with
nbar mean quanta yields outcomes alpha = r * exp(i*theta) distributed
according to the Husimi function of the state: theta is uniform and r**2 is
exponential with mean 1 + nbar, i.e. the measurement adds one quantum on
average.  Full feedback shifts the trap onto the outcome and harvests
W = r**2 (units of hbar*omega); the binary variant shifts the trap by a fixed
amount r0 only when r >= r0/2.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
#: Range and spacing of the u grid that max_binary_efficiency searches.
EFFICIENCY_U_MAX = 5.0
EFFICIENCY_U_STEP = 1e-3


def erfc(x):
    """Complementary error function of a float or an array: libm's math.erfc,
    element by element, read through a memoryview rather than a list."""
    if np.ndim(x) == 0:
        return math.erfc(x)
    a = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erfc, memoryview(a.ravel())), float, a.size).reshape(a.shape)


def sample_outcomes(
    nbar: float, n_samples: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw n_samples outcomes from the thermal-state Husimi law.

    Uses inverse-transform sampling of the exact radial law (r**2 exponential
    with mean 1 + nbar) and a uniform phase.  Returns (r, theta) arrays; all
    radial deviates are drawn first, then all phases.
    """
    if nbar < 0.0:
        raise ValueError(f"mean thermal occupation must be >= 0, got {nbar}")
    if n_samples < 1:
        raise ValueError(f"need at least one sample, got {n_samples}")
    r = np.sqrt(rng.exponential(1.0 + nbar, size=n_samples))
    theta = rng.uniform(0.0, TWO_PI, size=n_samples)
    return r, theta


def extract_work_binary(r: np.ndarray, r0: float) -> np.ndarray:
    """Work of the binary protocol with trap shift r0, per outcome amplitude.

    Zero where r < r0/2 (no action); otherwise 2*r*r0 - r0**2, continuous at
    the threshold.
    """
    r = np.asarray(r, dtype=float)
    if r0 <= 0.0:
        raise ValueError(f"shift threshold must be > 0, got {r0}")
    if np.any(r < 0.0):
        raise ValueError("amplitudes must be >= 0")
    return np.where(r >= 0.5 * r0, 2.0 * r * r0 - r0**2, 0.0)


def binary_average_work(nbar, r0):
    """Closed-form mean work of the binary protocol, of floats or arrays.

    <W'> = r0 * sqrt(pi * (1 + nbar)) * erfc(r0 / (2 * sqrt(1 + nbar))),
    in units of hbar*omega.
    """
    if np.any(np.less(nbar, 0.0)):
        raise ValueError(f"mean thermal occupation must be >= 0, got {nbar}")
    if np.any(np.less_equal(r0, 0.0)):
        raise ValueError(f"shift threshold must be > 0, got {r0}")
    scale = 1.0 + nbar
    work = r0 * np.sqrt(math.pi * scale) * erfc(r0 / (2.0 * np.sqrt(scale)))
    return work if np.ndim(work) else float(work)


def binary_efficiency(nbar, r0):
    """Work-conversion efficiency of the binary protocol, <W'> / (1 + nbar).

    Depends on (nbar, r0) only through u = r0 / sqrt(1 + nbar): it equals
    sqrt(pi) * u * erfc(u / 2), and is < 1 for every u > 0.
    """
    return binary_average_work(nbar, r0) / (1.0 + nbar)


def max_binary_efficiency() -> tuple[float, float]:
    """Maximize sqrt(pi) * u * erfc(u/2) on a dense grid; returns (u*, eta*).

    A one-dimensional grid suffices because the efficiency collapses onto the
    single variable u = r0 / sqrt(1 + nbar).
    """
    u = np.arange(0.0, EFFICIENCY_U_MAX + 0.5 * EFFICIENCY_U_STEP, EFFICIENCY_U_STEP)
    eta = math.sqrt(math.pi) * u * erfc(0.5 * u)
    best = int(np.argmax(eta))
    return float(u[best]), float(eta[best])


def added_quantum_check(
    nbar: float, n_samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte Carlo estimate of the mean quanta after measurement.

    Returns (mean of r**2, standard error); the expected value is nbar + 1.
    """
    if n_samples < 1000:
        raise ValueError(f"need at least 1000 samples, got {n_samples}")
    r, _ = sample_outcomes(nbar, n_samples, rng)
    quanta = r * r
    mean = float(np.mean(quanta))
    stderr = float(np.std(quanta, ddof=1) / math.sqrt(n_samples))
    return mean, stderr
