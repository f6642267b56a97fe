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
    PrefixFits,
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
from .moments import MomentBlocks
from .simkit import (
    EqpTable,
    ScenarioConfig,
    TruthSpec,
    eqp,
    run_grid,
    simulate_w,
    simulate_x,
)

__all__ = [
    "BiasReport",
    "CategoricalSpec",
    "DesignBundle",
    "EqpTable",
    "MomentBlocks",
    "ObservedDataset",
    "Posterior",
    "PrefixFits",
    "ScenarioConfig",
    "TruthSpec",
    "VarianceReport",
    "conditional_bias",
    "encode_dummy",
    "eqp",
    "estimate_marginal",
    "fit_corrected",
    "ols_fit",
    "posterior_from",
    "posterior_rows",
    "run_grid",
    "scenario_theta",
    "simulate_w",
    "simulate_x",
    "validate_dataset",
    "var_beta0_c_uncorrelated",
    "variance_report",
]
