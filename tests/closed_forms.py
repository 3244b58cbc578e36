"""Closed forms of the symmetric-channel covariance flow that several test
modules check the integrators against."""

from __future__ import annotations

import math

import numpy as np


def riccati_q3_closed_form(q3_0: float, tau: float, t) -> np.ndarray:
    """q3 at each time of t under dq3/dt = (1 - q3**2)/(2 tau), q3(0) = q3_0 >= 1."""
    t = np.asarray(t, dtype=float)
    if q3_0 == 1.0:
        return np.ones_like(t)
    c = 2.0 * tau * math.atanh(1.0 / q3_0)
    return 1.0 / np.tanh((t + c) / (2.0 * tau))


def sigma_closed_form(q3_0: float, tau: float, t) -> np.ndarray:
    """Integral of nu**2 for symmetric channels: t/4 + (tau/2)(q3(0)-q3(t))."""
    return 0.25 * np.asarray(t, dtype=float) + 0.5 * tau * (
        q3_0 - riccati_q3_closed_form(q3_0, tau, t)
    )
