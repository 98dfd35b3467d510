"""Trace-distance speed-limit analysis for the detuned spontaneous-decay model."""

from .bounds import BoundReport, bures_comparator, qsl_ratio, qsl_ratio_evolved
from .model import (
    ModelParams,
    amplitude_series,
    decay_rate,
    excited_population,
    lamb_shift,
    markov_limit,
    memory_kernel,
    oracle_amplitude,
    population_rate,
    spectral_density,
)
from .quad import QuadratureError, QuadratureSpec, find_sign_changes, integrate
from .scan import (
    ScanGrid,
    TimeSeries,
    default_delta_axis,
    default_gamma0_axis,
    grid_scan,
    markov_tail,
    sweep_decay_rate,
    sweep_tau,
    transition_boundary,
)
from .smatrix import DensityMatrix2

__all__ = [
    "BoundReport",
    "DensityMatrix2",
    "ModelParams",
    "QuadratureError",
    "QuadratureSpec",
    "ScanGrid",
    "TimeSeries",
    "amplitude_series",
    "bures_comparator",
    "decay_rate",
    "default_delta_axis",
    "default_gamma0_axis",
    "excited_population",
    "find_sign_changes",
    "grid_scan",
    "integrate",
    "lamb_shift",
    "markov_limit",
    "markov_tail",
    "memory_kernel",
    "oracle_amplitude",
    "population_rate",
    "qsl_ratio",
    "qsl_ratio_evolved",
    "spectral_density",
    "sweep_decay_rate",
    "sweep_tau",
    "transition_boundary",
]

__version__ = "0.1.0"
