"""Single-shot engine cycle: thermalize, measure in the coherent-state basis,
rectify by free evolution, extract work by a sudden trap shift.

A coherent-state-basis (phase-preserving) measurement of a thermal state with
nbar mean quanta yields outcomes alpha = r * exp(i*theta) distributed
according to the Husimi function of the state: theta is uniform and r**2 is
exponential with mean 1 + nbar, i.e. the measurement adds one quantum on
average.  Full feedback shifts the trap onto the outcome and harvests
W = r**2 (units of hbar*omega); the binary variant shifts the trap by a fixed
amount r0 only when r >= r0/2.

``erfc`` is a port of Cephes ``erfc`` (``ndtr.c``, as ``scipy.special.erfc``
evaluates it), so the closed forms match scipy's bit for bit without
importing ``scipy.special``.  Cephes Math Library, Release 2.8, June 2000;
Copyright 1984, 1987, 1988, 1992, 2000 by Stephen L. Moshier.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
#: Range and spacing of the u grid that max_binary_efficiency searches.
EFFICIENCY_U_MAX = 5.0
EFFICIENCY_U_STEP = 1e-3

# Cephes ndtr.c: erfc(x) = exp(-x**2) P(x)/Q(x) for 1 <= x < 8 and
# exp(-x**2) R(x)/S(x) for x >= 8; erf(x) = x T(x**2)/U(x**2) for |x| <= 1.
# Cephes leaves the leading 1 of Q, S and U implied (p1evl); 1.0*x == x, so
# writing it out gives the same bits.
_ERFC_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_ERFC_Q = (
    1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_ERFC_S = (
    1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_ERF_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_ERF_U = (
    1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
#: log(DBL_MAX): exp(-x*x) underflows to zero for x*x beyond it (|x| > 26.64).
_MAXLOG = 7.09782712893383996843e2


def _polevl(x, coef):
    """coef[0]*x**n + ... + coef[n] in Cephes' Horner order."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erfc_scalar(a: float) -> float:
    x = abs(a)
    if not x >= 1.0:  # also NaN
        z = a * a
        return 1.0 - a * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    if a * a > _MAXLOG:
        return 2.0 if a < 0.0 else 0.0
    p, q = (_ERFC_P, _ERFC_Q) if x < 8.0 else (_ERFC_R, _ERFC_S)
    y = math.exp(-a * a) * _polevl(x, p) / _polevl(x, q)
    return 2.0 - y if a < 0.0 else y


def erfc(x):
    """Complementary error function of a float or an array, bit for bit as
    Cephes ``erfc`` (``scipy.special.erfc``) computes it.

    1 - erf(x) for |x| < 1; exp(-x**2) times a rational function of |x|
    beyond, reflected as 2 - erfc(|x|) for x < 0; 0 or 2 where exp(-x**2)
    underflows.  exp(-x**2) is libm's, through math.exp: numpy's vectorised
    exp differs from it in the last bit at some points.  An array takes the
    same branches and Horner steps as numpy arrays, whose + - * / round
    like Python floats and are never fused; only exp(-x**2) is evaluated
    element by element.
    """
    if np.ndim(x) == 0:
        return _erfc_scalar(float(x))
    a = np.asarray(x, dtype=float)
    x = np.abs(a)
    y = np.where(a < 0.0, 2.0, 0.0)  # where exp(-x*x) underflows
    # each branch sees only its own lanes, so inf and nan raise no warning
    near = ~(x >= 1.0)  # also NaN
    s = a[near]
    z = s * s
    y[near] = 1.0 - s * _polevl(z, _ERF_T) / _polevl(z, _ERF_U)
    with np.errstate(over="ignore"):  # x*x is inf past 1.3e154, as in Python floats
        tail = ~near & (a * a <= _MAXLOG)
    branches = ((tail & (x < 8.0), _ERFC_P, _ERFC_Q), (tail & (x >= 8.0), _ERFC_R, _ERFC_S))
    for lanes, p, q in branches:
        s, t = a[lanes], x[lanes]
        e = np.fromiter(map(math.exp, (-s * s).tolist()), float, len(s))
        v = e * _polevl(t, p) / _polevl(t, q)
        y[lanes] = np.where(s < 0.0, 2.0 - v, v)
    return y


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
