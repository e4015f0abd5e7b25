"""Online sketched Newton methods with online covariance estimation.

Library layout:

- problems: streaming regression models, defined on stacks of
  replications, and the Gaussian noise of the constrained problems'
  gradient and Hessian observations
- sketch: the Newton- and KKT-system solves (one direct LU solve, and
  coordinate and Gaussian sketch-and-project sweeps), each written once
  on stacks of systems; run and the batched harness both call them
- optimizer: the averaged-Hessian stochastic Newton iteration; one step
  for both families and for stacks of replications, and one sequential
  entry point, run, that steps a regression model or a constrained problem
- covariance: running covariance estimators (weighted sample covariance
  with O(d^2) state and a rank-3 inverse recursion, plus plug-in and
  batch-means baselines)
- inference: self-contained normal/chi-square quantiles, confidence
  intervals and ellipsoidal confidence regions
- oracle: ground-truth limiting covariances of regression studies (closed
  forms or quadrature; Monte Carlo for q >= 2 Gaussian sketches) and the
  relative error metrics the harness reports against them
- sqp: equality-constrained extension (stochastic SQP on the KKT system):
  its problems, which hold their noise level sigma2 (quadratic ones are
  data of one builder), and the observation that feeds the one step work
  on stacks of replications, so run and the batched harness share them
- config / experiment / cli: study configs, the replication-batched
  Monte-Carlo harness, and the ``snewt`` command-line entry point; every
  study is a config file that ``snewt run`` runs

Independent reference implementations that only the tests compare against
live in tests/oracles.py, not here.
"""

from .config import ConfigError, ExperimentConfig, parse_config
from .covariance import (BatchMeansAccumulator, PlugInAccumulator,
                         WscAccumulator, WscInverseTracker, WscSink,
                         plugin_estimate)
from .experiment import (ExperimentResult, run_experiment,
                         write_aggregate_csv, write_summary_csv)
from .inference import (ConfidenceInterval, ConfidenceRegion, chi2_quantile,
                        confidence_region, directional_ci, normal_quantile)
from .optimizer import (DivergenceError, NewtonState, RngStreams,
                        StepsizeSchedule, newton_step, run)
from .oracle import OracleCovariance, omega_star, oracle_covariance, xi_star
from .problems import RegressionModel, default_x_star
from .sketch import SketchDistribution, SketchSolveConfig
from .sqp import EqConstrainedProblem, builtin_problem

__version__ = "0.1.0"

__all__ = [
    "BatchMeansAccumulator",
    "ConfidenceInterval",
    "ConfidenceRegion",
    "ConfigError",
    "DivergenceError",
    "EqConstrainedProblem",
    "ExperimentConfig",
    "ExperimentResult",
    "NewtonState",
    "OracleCovariance",
    "PlugInAccumulator",
    "RegressionModel",
    "RngStreams",
    "SketchDistribution",
    "SketchSolveConfig",
    "StepsizeSchedule",
    "WscAccumulator",
    "WscInverseTracker",
    "WscSink",
    "builtin_problem",
    "chi2_quantile",
    "confidence_region",
    "default_x_star",
    "directional_ci",
    "newton_step",
    "normal_quantile",
    "omega_star",
    "oracle_covariance",
    "parse_config",
    "plugin_estimate",
    "run",
    "run_experiment",
    "write_aggregate_csv",
    "write_summary_csv",
    "xi_star",
    "__version__",
]
