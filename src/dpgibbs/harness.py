"""Repeated-sampling experiment engine for coverage/length/RMSE studies.

One replication = generate a bounded dataset, release it with Laplace
noise, run the selected sampler, summarize the mu chain with a 95% HPD
interval and a KDE mode.  Replication r is seeded by
SeedSequence((scenario.base_seed, r)), so results do not depend on grid
position, execution order, or worker count; scenarios sharing a
base_seed see identical datasets, which pairs their comparisons.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator

from .augmented import run_augmented_chain
from .distributions import sample_trunc_normal_block
from .errors import ConfigurationError, NumericalError
from .gibbs import (ConstraintMode, PriorSpec, SamplerConfig, _physical_memory, check_config,
                    run_chain)
from .release import UNIT, Budget, GaussianSummary, release
from .summary import (
    KDE_MIN_SAMPLES,
    CoverageRecord,
    coverage_aggregate,
    hpd_interval,
    kde_mode,
)

_MODES = ("unconstrained", "constrained", "likelihood")
_BYTES_PER_VALUE = 17  # peak bytes per value of generate_dataset (tracemalloc)


@dataclass(frozen=True)
class Scenario:
    n: int
    eps1: float
    eps2: float
    truth_mu: float
    truth_sigma: float
    mode: str
    prior: PriorSpec
    reps: int
    iters: int
    base_seed: int

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigurationError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.reps <= 0:
            raise ConfigurationError("reps must be positive")
        if self.iters < KDE_MIN_SAMPLES:
            raise ConfigurationError(
                f"iters must be at least {KDE_MIN_SAMPLES}, the draws kde_mode summarizes")
        if self.n < 2 or self.base_seed < 0:
            raise ConfigurationError("a scenario needs n >= 2 and base_seed >= 0")
        try:  # rejects the budget before any replication runs
            budget = Budget(self.eps1, self.eps2)
        except ValueError as exc:
            raise ConfigurationError(str(exc)) from exc
        check_config(self.n, budget, self.prior, self.mode != "likelihood")
        # every mode draws the n data values; likelihood mode's latents were capped above
        if self.n * _BYTES_PER_VALUE > (memory := _physical_memory()):
            raise ConfigurationError(
                f"n = {self.n} data values need about {self.n * _BYTES_PER_VALUE:.3g} bytes, "
                f"more than the {memory:.3g} bytes of physical memory")
        if not (0.0 < self.truth_mu < 1.0 and 0.0 < self.truth_sigma < math.inf):
            raise ConfigurationError("need truth_mu in (0, 1) and finite truth_sigma > 0")


@dataclass(frozen=True)
class ScenarioResult:
    scenario: Scenario
    coverage: float
    coverage_se: float
    avg_len: float
    rmse: float
    errors: int


def generate_dataset(n: int, truth_mu: float, truth_sigma: float,
                     rng: Generator) -> GaussianSummary:
    """Exact moments of n draws from a normal truncated to [0, 1]."""
    y = sample_trunc_normal_block(truth_mu, truth_sigma, 0.0, 1.0, n, rng)
    return GaussianSummary(ybar=float(y.mean()), s_sq=float(y.var(ddof=1)), n=n)


def _one_rep(scenario: Scenario, rep: int) -> CoverageRecord | None:
    seed_seq = np.random.SeedSequence((scenario.base_seed, rep))
    data_seq, chain_seq = seed_seq.spawn(2)
    rng = np.random.default_rng(data_seq)
    try:
        summary = generate_dataset(scenario.n, scenario.truth_mu,
                                   scenario.truth_sigma, rng)
        rel = release(summary, UNIT, Budget(scenario.eps1, scenario.eps2), rng)
        chain_seed = int(chain_seq.generate_state(1, np.uint64)[0])
        config = SamplerConfig(iters=scenario.iters, seed=chain_seed, burn_in=0)
        if scenario.mode == "likelihood":
            draws = run_augmented_chain(rel, True, config, prior=scenario.prior)
        else:
            mode = (ConstraintMode.MOMENT_CONSTRAINED if scenario.mode == "constrained"
                    else ConstraintMode.UNCONSTRAINED)
            draws = run_chain(rel, scenario.prior, mode, config)
        interval = hpd_interval(draws.mu, 0.95)
        point = kde_mode(draws.mu)
        return CoverageRecord(interval=interval, point=point, truth=scenario.truth_mu)
    except NumericalError:
        return None


def _aggregate(scenario: Scenario, recs: list[CoverageRecord | None]) -> ScenarioResult:
    """Summarize one scenario's replications; None marks a failed one."""
    records = [rec for rec in recs if rec is not None]
    if not records:
        raise ConfigurationError(
            f"every replication of the scenario failed (n={scenario.n}, "
            f"mode={scenario.mode}, eps1={scenario.eps1:g}, eps2={scenario.eps2:g}, "
            f"base_seed={scenario.base_seed})")
    agg = coverage_aggregate(records)
    return ScenarioResult(
        scenario=scenario,
        coverage=agg["coverage"],
        coverage_se=math.sqrt(0.95 * 0.05 / scenario.reps),
        avg_len=agg["avg_len"],
        rmse=agg["rmse"],
        errors=len(recs) - len(records),
    )


def _grid_task(args):
    return _one_rep(*args)


def run_grid(scenarios, parallelism: int = 1) -> list[ScenarioResult]:
    """Run a scenario grid; returns one result per scenario, in scenario order.

    The results are identical for any parallelism level because each
    (scenario, rep) pair owns its seed.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ConfigurationError("scenario grid is empty")
    tasks = [(s, r) for s in scenarios for r in range(s.reps)]
    parallelism = min(parallelism, len(tasks))  # a forked pool starts every worker up front
    if parallelism <= 1:
        records = list(map(_grid_task, tasks))
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            records = list(pool.map(_grid_task, tasks, chunksize=8))
    remaining = iter(records)  # in task order, from either map
    return [_aggregate(s, [next(remaining) for _ in range(s.reps)]) for s in scenarios]


def paper_scale(scenario: Scenario) -> Scenario:
    """Restore the full-size replication counts of the published study."""
    return replace(scenario, reps=10_000, iters=20_000)
