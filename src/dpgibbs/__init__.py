"""Differentially private Gaussian releases and constraint-aware posterior inference."""

from .release import (
    Bounds,
    Budget,
    GaussianSummary,
    PrivateRelease,
    release,
    summarize,
)
from .gibbs import (
    ConstraintMode,
    GibbsState,
    PosteriorDraws,
    PredictiveMode,
    PriorSpec,
    SamplerConfig,
    gibbs_step,
    init_state,
    predictive_draws,
    run_chain,
)
from .augmented import run_augmented_chain
from .summary import (
    CoverageRecord,
    IntervalEstimate,
    coverage_aggregate,
    ess,
    hpd_interval,
    kde_mode,
    mc_se,
)

__all__ = [
    "Bounds",
    "Budget",
    "ConstraintMode",
    "CoverageRecord",
    "GaussianSummary",
    "GibbsState",
    "IntervalEstimate",
    "PosteriorDraws",
    "PredictiveMode",
    "PriorSpec",
    "PrivateRelease",
    "SamplerConfig",
    "coverage_aggregate",
    "ess",
    "gibbs_step",
    "hpd_interval",
    "init_state",
    "kde_mode",
    "mc_se",
    "predictive_draws",
    "release",
    "run_augmented_chain",
    "run_chain",
    "summarize",
]

__version__ = "0.1.0"
