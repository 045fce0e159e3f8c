"""Differentially private Gaussian releases and constraint-aware posterior inference."""

from .release import (
    Bounds,
    Budget,
    GaussianSummary,
    PrivateRelease,
    from_unit_release,
    release,
    sensitivities,
    summarize,
    to_unit_scale,
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
from .augmented import mh_accept_prob, moments_swap_update, run_augmented_chain
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
    "from_unit_release",
    "gibbs_step",
    "hpd_interval",
    "init_state",
    "kde_mode",
    "mc_se",
    "mh_accept_prob",
    "moments_swap_update",
    "predictive_draws",
    "release",
    "run_augmented_chain",
    "run_chain",
    "sensitivities",
    "summarize",
    "to_unit_scale",
]

__version__ = "0.1.0"
