"""Interacting spin systems on quenched geometric graphs.

Finite-volume SDE truncations with common random numbers, weighted-norm
convergence diagnostics, operator-bound certification on a scale of
weighted sequence spaces, and Gibbs-measure reversibility tests.
"""

from .errors import (ConfigError, ConstructionError, IntegrityError,
                     NonFiniteState, NumericError, ParameterError,
                     SpindynError)
from .geometry import (Configuration, GeometricGraph, build_graph,
                       configuration_from_csv, configuration_to_csv,
                       fit_degree_constant, graph_to_csv,
                       lattice_configuration, sample_poisson)
from .spaces import (ScaleInterval, WeightedSeq, embedding_check, norm_lp,
                     weighted_seq_from_csv, weighted_seq_to_csv)
from .ovsbound import (ComparisonReport, FiniteRangeMatrix, comparison_check,
                       estimate_L, gronwall_bound, induced_matrix, k_series,
                       series_solve)
from .coeffs import (AssumptionReport, CoefficientField, SinglePotentialDrift,
                     eval_diffusion, eval_drift, make_field,
                     validate_assumptions)
from .engine import (NestedEnsemble, RandomInit, SimPlan, VolumeSequence,
                     cauchy_gap, integrate_truncated, moment_p,
                     radial_volumes, run_nested, semigroup_apply,
                     tagged_particle_solve, weighted_uniform_moment)
from .gibbs import (ChainParams, DlrReport, GibbsModel, SpecKernelSample,
                    dlr_residual, gradient_dynamics_field, kernel_sample,
                    local_energy, make_model, reversibility_test,
                    sample_window_measure)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
