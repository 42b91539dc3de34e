"""Interacting spin systems on quenched geometric graphs.

Finite-volume SDE truncations with common random numbers, weighted-norm
convergence diagnostics, operator-bound certification on a scale of
weighted sequence spaces, and Gibbs-measure reversibility tests.
"""

from .errors import (ConfigError, NonFiniteState, NumericError, ParameterError,
                     SpindynError)
from .geometry import (Configuration, GeometricGraph, build_graph,
                       configuration_from_csv, configuration_to_csv,
                       fit_degree_constant, graph_to_csv,
                       lattice_configuration, sample_poisson)
from .spaces import ScaleInterval, WeightedSeq, norm_l1, weighted_seq_from_csv
from .ovsbound import (ComparisonReport, comparison_check, estimate_L,
                       gronwall_bound, induced_matrix, k_series, series_solve)
from .coeffs import (CoefficientField, Polynomial, SinglePotentialDrift,
                     make_field)
from .engine import (RandomInit, SimPlan, VolumeSequence, cauchy_gap, moment_p,
                     nested_gap_sums, radial_volumes, run_nested,
                     tagged_particle_solve)
from .gibbs import (ChainParams, DlrReport, GibbsModel, SpecKernelSample,
                    dlr_residual, gradient_dynamics_field, kernel_sample,
                    make_model, reversibility_test,
                    sample_window_measure)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
