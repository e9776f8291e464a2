"""Sampled-data Kalman filtering of modal PDE truncations.

The package answers one question deterministically: how far is the Kalman
estimate built from finitely many sampled outputs from the continuous-data
limit, as a function of the sample count?  Everything runs on diagonal
(modal) state models with exact Gaussian transition algebra: no ODE solvers,
no sampling needed for covariances.

Layers, bottom up: ``spectral_model`` (model containers and the heat / wave
builders), ``kernels`` (exact transition and covariance blocks plus a
quadrature oracle), ``filter_core`` (information-form filter for undriven
systems, sequential filter for driven ones, batch conditioning oracle,
one-insertion increments), ``refinement`` (dyadic grids, discrepancy
curves, telescoping, level sums), ``theory`` (closed-form rate bounds and
rate fitting), ``montecarlo`` (path sampling validation), ``cli`` (the
``sampledkf`` experiment runner).
"""

from .errors import (ConfigError, GramSingularError, NumericalError,
                     ReferenceUnconvergedError)
from .filter_core import (FilterRun, batch_condition, increment_variance,
                          information_filter, sequential_filter)
from .kernels import (AugmentedTransition, augmented_covariance, phi_h,
                      quadrature_oracle_transition, transition_block)
from .montecarlo import SimulationBatch, empirical_error, sample_path
from .refinement import (DiscrepancyCurve, TelescopeReport, discrepancy_curve,
                         dyadic_grid, level_sum, telescope_check)
from .spectral_model import (ModalSystem, SpectralParams, build_heat_model,
                             build_wave_model, domain_weights,
                             fractional_weights, index_weights,
                             model_from_mapping, spectral_parameters,
                             unit_weights)
from .theory import (BoundCheck, RateFit, TheoremBound,
                     admissibility_constant, analytic_constant, check_bound,
                     fit_rate, observability_gram, theorem1_bound,
                     theorem2_bound, theorem3_bound, theorem4_bound,
                     theorem5_bound)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ConfigError", "NumericalError", "ReferenceUnconvergedError",
    "GramSingularError",
    # models
    "ModalSystem", "SpectralParams", "build_heat_model", "build_wave_model",
    "model_from_mapping", "spectral_parameters", "unit_weights",
    "domain_weights", "fractional_weights", "index_weights",
    # kernels
    "AugmentedTransition", "phi_h", "transition_block",
    "augmented_covariance", "quadrature_oracle_transition",
    # filtering
    "FilterRun", "information_filter", "sequential_filter",
    "batch_condition", "increment_variance",
    # refinement
    "dyadic_grid", "DiscrepancyCurve", "discrepancy_curve",
    "TelescopeReport", "telescope_check", "level_sum",
    # theory
    "TheoremBound", "BoundCheck", "RateFit", "admissibility_constant",
    "observability_gram", "analytic_constant", "theorem1_bound",
    "theorem2_bound", "theorem3_bound", "theorem4_bound", "theorem5_bound",
    "check_bound", "fit_rate",
    # simulation
    "SimulationBatch", "sample_path", "empirical_error",
]
