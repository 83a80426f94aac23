"""Spectra of two non-resonant oscillators with quartic coupling.

Three routes to the same energy levels, cross-validated against each
other: torus quantization of second-order classical perturbation
theory, closed-form quantum perturbation theory with explicit hbar^2
corrections, and converged truncated-basis diagonalization.
"""

from .classical import ActionPair, ebk_actions, semiclassical_series
from .diag import BudgetExceeded, ConvergenceReport, SpectrumLevel, converged_levels
from .model import (
    DEFAULT_PARAMS,
    ModelError,
    ModelParams,
    NegativeCoupling,
    NonPositiveParameter,
    PerturbationSeries,
    QuantumNumbers,
    ResonantFrequencies,
    validate,
)
from .quantum import decompose_e2, qp_series
from .report import ComparisonRow, comparison_table, hbar_scan

__all__ = [
    "ActionPair",
    "BudgetExceeded",
    "ComparisonRow",
    "ConvergenceReport",
    "DEFAULT_PARAMS",
    "ModelError",
    "ModelParams",
    "NegativeCoupling",
    "NonPositiveParameter",
    "PerturbationSeries",
    "QuantumNumbers",
    "ResonantFrequencies",
    "SpectrumLevel",
    "comparison_table",
    "converged_levels",
    "decompose_e2",
    "ebk_actions",
    "hbar_scan",
    "qp_series",
    "semiclassical_series",
    "validate",
]

__version__ = "0.1.0"
