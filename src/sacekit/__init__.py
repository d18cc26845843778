"""Estimation of survivor average causal effects when outcomes are truncated by death.

The package identifies and estimates the mean treatment effect inside the
always-survivor stratum using a substitution variable: nonparametric
identification on discrete cell tables, two-stage parametric estimators
with a monotonicity-respecting survival model, a stochastic-monotonicity
sensitivity analysis, falsification diagnostics, and a simulation
benchmark harness.
"""

from .data import (
    Dataset,
    Schema,
    StratumLabel,
    ValidationReport,
    load_dataset,
    save_dataset,
    validate,
)
from .diagnostics import (
    DiagnosticsReport,
    check_monotone,
    check_relevance,
    quantile_binner,
    run_diagnostics,
)
from .errors import (
    CollinearityError,
    DataError,
    EstimationError,
    MonotonicityError,
    RelevanceError,
    SacekitError,
)
from .identify import (
    CellStats,
    CellTable,
    IdentificationWarning,
    gmm_overidentified,
    sace_monotone_exclusion,
    sace_no_interaction,
    sace_stochastic_monotone,
    solve_two_point_mixture,
    strata_probs_monotone,
    strata_probs_stochastic,
)
from .models import (
    OutcomeParams,
    SaceEstimate,
    SensitivityCurve,
    SmFit,
    SurvivalParamsER,
    SurvivalParamsSM,
    bootstrap,
    dgyz_estimator,
    estimate_sace,
    fit_ni,
    fit_outcome_er,
    fit_sm,
    fit_survival_er,
    fit_survival_sm,
    naive_estimator,
    sensitivity_sweep,
)
from .numerics import (
    OptimizerResult,
    check_gradient,
    expit,
    fit_logistic,
    fit_ols,
    maximize_loglik,
    rng_stream,
)
from .simulate import (
    BenchReport,
    OracleTable,
    SimulationSetting,
    gen_dataset,
    run_benchmark,
    true_sace,
)

__version__ = "0.1.0"

__all__ = [
    "BenchReport",
    "CellStats",
    "CellTable",
    "CollinearityError",
    "DataError",
    "Dataset",
    "DiagnosticsReport",
    "EstimationError",
    "IdentificationWarning",
    "MonotonicityError",
    "OptimizerResult",
    "OracleTable",
    "OutcomeParams",
    "RelevanceError",
    "SaceEstimate",
    "SacekitError",
    "Schema",
    "SensitivityCurve",
    "SimulationSetting",
    "SmFit",
    "StratumLabel",
    "SurvivalParamsER",
    "SurvivalParamsSM",
    "ValidationReport",
    "bootstrap",
    "check_gradient",
    "check_monotone",
    "check_relevance",
    "dgyz_estimator",
    "estimate_sace",
    "expit",
    "fit_logistic",
    "fit_ni",
    "fit_ols",
    "fit_outcome_er",
    "fit_sm",
    "fit_survival_er",
    "fit_survival_sm",
    "gen_dataset",
    "gmm_overidentified",
    "load_dataset",
    "maximize_loglik",
    "naive_estimator",
    "quantile_binner",
    "rng_stream",
    "run_benchmark",
    "run_diagnostics",
    "sace_monotone_exclusion",
    "sace_no_interaction",
    "sace_stochastic_monotone",
    "save_dataset",
    "sensitivity_sweep",
    "solve_two_point_mixture",
    "strata_probs_monotone",
    "strata_probs_stochastic",
    "true_sace",
    "validate",
]
