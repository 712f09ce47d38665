"""spcalab: sparse-PCA consistency laboratory for the d >> n regime.

Estimators (dual PCA, simple thresholding, iterative penalized rank-one,
oracle subspace), BIC threshold selection, spiked-model samplers, the
theorem's threshold range and the counterexample law, and a reproducible
Monte-Carlo harness with CSV/SVG output.
"""

from .config import PAPER_PAIRS, ExperimentConfig
from .eigen import DualComponent, dual_first_component
from .estimators import (
    RspcaIteration,
    RspcaTrace,
    oracle_estimator,
    pca_first,
    rspca,
    st_estimator,
)
from .exceptions import (
    ConfigError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    NumericError,
    SpcaLabError,
    WorkerError,
)
from .experiment import (
    CounterexampleResult,
    ExperimentResult,
    ReplicationRecord,
    SummaryRow,
    emit_csv,
    emit_summary_csv,
    run_and_emit,
    run_counterexample,
    run_experiment,
)
from .metrics import (
    BicValue,
    LambdaSelection,
    MetricRow,
    angle_degrees,
    default_lambda_grid,
    evaluate_estimate,
    select_lambda_bic,
    support_errors,
)
from .model import DataMatrix, SpikedSpec, sample_gaussian
from .penalties import PenaltySpec, threshold
from .theory import (
    LambdaBounds,
    default_gamma,
    failure_probability,
    gamma_is_valid,
    theorem_lambda_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BicValue",
    "ConfigError",
    "CounterexampleResult",
    "DataMatrix",
    "DegenerateInputError",
    "DimensionError",
    "DomainError",
    "DualComponent",
    "ExperimentConfig",
    "ExperimentResult",
    "LambdaBounds",
    "LambdaSelection",
    "MetricRow",
    "NumericError",
    "PAPER_PAIRS",
    "PenaltySpec",
    "ReplicationRecord",
    "RspcaIteration",
    "RspcaTrace",
    "SpcaLabError",
    "SpikedSpec",
    "SummaryRow",
    "WorkerError",
    "angle_degrees",
    "default_gamma",
    "default_lambda_grid",
    "dual_first_component",
    "emit_csv",
    "emit_summary_csv",
    "evaluate_estimate",
    "failure_probability",
    "gamma_is_valid",
    "oracle_estimator",
    "pca_first",
    "rspca",
    "run_and_emit",
    "run_counterexample",
    "run_experiment",
    "sample_gaussian",
    "select_lambda_bic",
    "st_estimator",
    "support_errors",
    "theorem_lambda_bounds",
    "threshold",
]
