"""Bias correction for least squares regression with misclassified
categorical covariates."""

__version__ = "0.1.0"

from .categorical import (
    CategoricalSpec,
    DesignBundle,
    ObservedDataset,
    encode_dummy,
    validate_dataset,
)
from .diagnostics import (
    BiasReport,
    VarianceReport,
    conditional_bias,
    var_beta0_c_uncorrelated,
    variance_report,
)
from .estimators import (
    CorrectedFit,
    NaiveFit,
    correct_intercept,
    correct_slopes,
    fit_corrected,
    ols_fit,
)
from .misclass import (
    Posterior,
    estimate_marginal,
    posterior_from,
    posterior_rows,
    scenario_theta,
)
from .moments import MomentBlocks, build_moment_blocks
from .simkit import (
    EqpTable,
    ScenarioConfig,
    TruthSpec,
    eqp,
    run_grid,
    run_replicate,
    simulate_w,
    simulate_x,
    simulate_y,
)

__all__ = [
    "BiasReport",
    "CategoricalSpec",
    "CorrectedFit",
    "DesignBundle",
    "EqpTable",
    "MomentBlocks",
    "NaiveFit",
    "ObservedDataset",
    "Posterior",
    "ScenarioConfig",
    "TruthSpec",
    "VarianceReport",
    "build_moment_blocks",
    "conditional_bias",
    "correct_intercept",
    "correct_slopes",
    "encode_dummy",
    "eqp",
    "estimate_marginal",
    "fit_corrected",
    "ols_fit",
    "posterior_from",
    "posterior_rows",
    "run_grid",
    "run_replicate",
    "scenario_theta",
    "simulate_w",
    "simulate_x",
    "simulate_y",
    "validate_dataset",
    "var_beta0_c_uncorrelated",
    "variance_report",
]
