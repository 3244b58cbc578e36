"""Exception types shared across the engine modules."""


class UncertaintyViolationError(RuntimeError):
    """Covariance update left the physical region q3*q5 - q4**2 >= 1.

    Raised instead of clamping: a violation beyond tolerance means the
    integration step is too large for the requested measurement times.
    """


class UnsupportedConfigurationError(ValueError):
    """Requested operation is only defined for a restricted configuration.

    Typical case: the Ito work ledger and the variance schedule require
    symmetric measurement channels (tau1 == tau2) in covariance normal form.
    """
