"""Exception types shared across the engine modules."""


class UncertaintyViolationError(RuntimeError):
    """Covariance update left the physical region q3*q5 - q4**2 >= 1.

    Raised instead of clamping: a violation beyond tolerance means the
    integration step is too large for the requested measurement times.
    """


class UnsupportedConfigurationError(ValueError):
    """Requested operation is only defined for a restricted configuration.

    Typical cases: the exponential work law (``sigma_schedule``) requires
    symmetric measurement channels (tau1 == tau2), and the mean-work curve,
    the power estimate and the efficiency series each require one policy.
    """
