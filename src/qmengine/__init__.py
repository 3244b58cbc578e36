"""Simulator and analysis toolkit for a quantum harmonic-oscillator engine
fueled by simultaneous weak measurements of position and momentum.

All quantities are dimensionless: energies in units of hbar*omega, times in
units of 1/omega, quadratures scaled by sqrt(m*omega/hbar).
"""

from .config import EngineConfig
from .ensembles import (
    EfficiencySeries,
    KsResult,
    MeanWorkSeries,
    WorkStatistics,
    efficiency_series,
    exact_work_cdf,
    exact_work_pdf,
    ks_compare,
    mean_work_curve,
    monte_carlo_power,
    run_ensemble,
    sigma_schedule,
)
from .errors import UncertaintyViolationError, UnsupportedConfigurationError
from .feedback import Steps, run_trajectory
from .gaussian import NoiseSource, covariance_series
from .single_shot import (
    added_quantum_check,
    binary_average_work,
    binary_efficiency,
    extract_work_binary,
    max_binary_efficiency,
    sample_outcomes,
)
from .thermo import (
    binary_erasure_cost,
    binary_p0,
    binary_thermo_efficiency,
    classical_cycle,
)

__version__ = "0.4.0"
