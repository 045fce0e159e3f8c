"""Repeated-sampling experiment engine for coverage/length/RMSE studies.

One replication = generate a bounded dataset, release it with Laplace
noise, run the selected sampler, summarize the mu chain with a 95% HPD
interval and a KDE mode.  Replication r is seeded by
SeedSequence((scenario.base_seed, r)), so results do not depend on grid
position, execution order, or worker count; scenarios sharing a
base_seed see identical datasets, which pairs their comparisons.
"""

from __future__ import annotations

import io
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.random import Generator
from scipy import special as sc

from .augmented import run_augmented_chain
from .errors import ConfigurationError, DpGibbsError
from .gibbs import ConstraintMode, PriorSpec, SamplerConfig, run_chain
from .release import UNIT, Budget, GaussianSummary, release
from .summary import CoverageRecord, coverage_aggregate, hpd_interval, kde_mode

RESULT_HEADER = "n,eps,mode,prior,mu_true,coverage,coverage_se,avg_len,rmse,errors"

_MODES = ("unconstrained", "constrained", "likelihood")


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
        if self.reps <= 0 or self.iters <= 0:
            raise ConfigurationError("reps and iters must be positive")
        if not 0.0 < self.truth_mu < 1.0 or self.truth_sigma <= 0:
            raise ConfigurationError("need truth_mu in (0, 1) and truth_sigma > 0")


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
    a = (0.0 - truth_mu) / truth_sigma
    b = (1.0 - truth_mu) / truth_sigma
    pa, pb = sc.ndtr(a), sc.ndtr(b)
    u = rng.random(n)
    y = truth_mu + truth_sigma * sc.ndtri(pa + u * (pb - pa))
    np.clip(y, 0.0, 1.0, out=y)
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
    except DpGibbsError:
        return None


def _aggregate(scenario: Scenario, recs: list[CoverageRecord | None]) -> ScenarioResult:
    """Summarize one scenario's replications; None marks a failed one."""
    records = [rec for rec in recs if rec is not None]
    if not records:
        raise ConfigurationError("every replication of the scenario failed")
    agg = coverage_aggregate(records)
    return ScenarioResult(
        scenario=scenario,
        coverage=agg["coverage"],
        coverage_se=math.sqrt(0.95 * 0.05 / scenario.reps),
        avg_len=agg["avg_len"],
        rmse=agg["rmse"],
        errors=len(recs) - len(records),
    )


def run_scenario(scenario: Scenario) -> ScenarioResult:
    """All replications of one scenario, sequentially."""
    return _aggregate(scenario, [_one_rep(scenario, r) for r in range(scenario.reps)])


def _grid_task(args):
    scenario, scenario_index, rep = args
    return scenario_index, rep, _one_rep(scenario, rep)


def run_grid(scenarios, parallelism: int = 1) -> str:
    """Run a scenario grid; returns the results CSV.

    Output rows follow scenario order and are byte-identical for any
    parallelism level because each (scenario, rep) pair owns its seed.
    """
    scenarios = list(scenarios)
    if not scenarios:
        raise ConfigurationError("scenario grid is empty")
    tasks = [(s, i, r) for i, s in enumerate(scenarios) for r in range(s.reps)]
    per_scenario: dict[int, dict[int, CoverageRecord | None]] = {
        i: {} for i in range(len(scenarios))
    }
    if parallelism <= 1:
        results = map(_grid_task, tasks)
        for i, r, rec in results:
            per_scenario[i][r] = rec
    else:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            for i, r, rec in pool.map(_grid_task, tasks, chunksize=8):
                per_scenario[i][r] = rec

    out = io.StringIO()
    out.write("# format_version=1\n")
    out.write(RESULT_HEADER + "\n")
    for i, s in enumerate(scenarios):
        res = _aggregate(s, [per_scenario[i][r] for r in range(s.reps)])
        row = (
            f"{s.n},{s.eps1 + s.eps2:.17g},{s.mode},{s.prior.kind},"
            f"{s.truth_mu:.17g},{res.coverage:.17g},{res.coverage_se:.17g},"
            f"{res.avg_len:.17g},{res.rmse:.17g},{res.errors}"
        )
        out.write(row + "\n")
    return out.getvalue()


def paper_scale(scenario: Scenario) -> Scenario:
    """Restore the full-size replication counts of the published study."""
    return replace(scenario, reps=10_000, iters=20_000)
