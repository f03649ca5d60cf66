"""Symbol error probability analysis and simulation for cognitive radio links
operating under imperfect spectrum sensing, Gaussian-mixture interference,
and transmit/interference power constraints.
"""

from .analytic import (
    ConstraintSet,
    OptimalPowers,
    Scenario,
    Scheme,
    max_power_osa,
    optimize_powers_sss,
    peak_power_policy,
    sep_class_conditional,
    sep_conditional,
    sep_general_numeric,
    sep_peak_interference,
    sep_peak_interference_exact,
    sep_peak_interference_oracle,
    sep_rayleigh,
    sep_rayleigh_numeric,
    sep_upper_bound,
)
from .detection import detect_threshold, map_detect_numeric
from .mathcore import GaussianMixture, craig_q_numeric, gaussian_q
from .modulation import ConstellationSpec, PointClass
from .sensing import Occupancy, SensingModel
from .simulation import MonteCarloConfig, SepEstimate, run_monte_carlo

__version__ = "0.1.0"

__all__ = [
    "ConstellationSpec",
    "ConstraintSet",
    "GaussianMixture",
    "MonteCarloConfig",
    "Occupancy",
    "OptimalPowers",
    "PointClass",
    "Scenario",
    "Scheme",
    "SensingModel",
    "SepEstimate",
    "craig_q_numeric",
    "detect_threshold",
    "gaussian_q",
    "map_detect_numeric",
    "max_power_osa",
    "optimize_powers_sss",
    "peak_power_policy",
    "run_monte_carlo",
    "sep_class_conditional",
    "sep_conditional",
    "sep_general_numeric",
    "sep_peak_interference",
    "sep_peak_interference_exact",
    "sep_peak_interference_oracle",
    "sep_rayleigh",
    "sep_rayleigh_numeric",
    "sep_upper_bound",
]
