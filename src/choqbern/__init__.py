"""Choquet integration on finite capacity spaces and Bernstein approximation
of random functions, with a verification harness for the quantitative
convergence estimates."""

from .capacity import (Capacity, CapacityTooLargeError, ConstructionError, Distortion,
                       InputError, PropertyReport, capacity_from_spec, check_properties,
                       distortion_from_spec, eval_capacity, eval_sets, make_distorted,
                       make_distortion, make_possibility, make_table, subset_table)
from .choquet import (IntegralResult, capacity_distribution_function,
                      choquet_integral, choquet_integral_oracle, choquet_lp_norm,
                      comonotone, integral_batch)
from .randomfn import (Grid, RandomFunction, build_family, choquet_modulus,
                       list_families, stochastic_modulus)
from .bernstein import (basis_matrix, bernstein_basis, bernstein_multivariate,
                        bernstein_univariate, moment_sum, sikkema_constant, tail_sum)
from .stochastic import (SeededStream, k_inverse, k_modulus, lemma51_bound,
                         max_deviation_rows, sample_rows, stochastic_bernstein,
                         theorem6_bound)
from .experiments import (BoundRow, ConfigError, ExperimentConfig, ExperimentResult,
                          run_capacity_convergence, run_experiment,
                          run_mean_convergence, run_possibility_convergence,
                          run_stochastic_experiment, semi_metric)

__version__ = "0.1.0"
