"""The four workloads: their inputs, and the CLI commands of each round.

A workload is a closed loop of rounds.  Round i is a fixed list of CLI
commands whose inputs and seeds depend only on (workload seed, i), so a
run can replay any round byte for byte.  Each command belongs to a
sampler variant; the end-to-end rates are taken per variant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

# The blood-lead release of the README and acceptance criterion 07.
LEAD_RELEASE = {"format_version": 1, "ybar_star": 34.30, "s_sq_star": 47.16 ** 2,
                "n": 43, "eps1": 0.25, "eps2": 0.25, "a": 0.0, "b": 100.0}
LEAD_PRIOR = {"kind": "nig", "mu0": 12.5, "kappa0": 1.0, "nu0": 1.0,
              "sigma0_sq": 3.8 ** 2}
# Chain length per prior: the NIG chains mix about ten times slower, so
# they get longer chains and most of the time, which steadies the
# harmonic mean their rates dominate.  A rate does not depend on chain
# length beyond the 10% burn-in.
LEAD_ITERS = {"flat": 5_000, "nig": 20_000}

COVERAGE_ITERS = 5_000
COVERAGE_REPS_PER_ROUND = 2

# eps2 must stay below 2(n-1)/n = 1.98 at n = 100 for the collapsed sampler.
LIKELIHOOD_EPS = 1.9
LIKELIHOOD_TRUTH = (0.5, 0.2)
# The latent-value chains mix and run far slower, so they get most of the time.
LIKELIHOOD_COLLAPSED_ITERS = 1_000
LIKELIHOOD_AUGMENTED_ITERS = {100: 1_000, 1000: 250}

REGRESS_ITERS = 150
# (eps per query, constrained, chains per round).  How well theta1 mixes
# differs a lot from release to release: over releases at eps 1.0 its
# per-chain ESS has a coefficient of variation of about 1.5.  So the
# chains are short and the releases many, and the unconstrained eps-1.0
# variant, whose rate dominates the harmonic mean, gets six releases per
# round.  Constrained mode runs at eps 10 only: at eps 0.1 and 1.0 it
# raises StuckChainError on a large share of releases after 10-40 s each
# (see perfbench/README.md).
REGRESS_CONFIGS = ((0.1, False, 2), (1.0, False, 6), (10.0, True, 1))


@dataclass(frozen=True)
class Variant:
    name: str
    loc: str  # draws column of the location parameter
    loc_metric: str  # per-layer names of the variant's ESS rates
    s2_metric: str


@dataclass
class Command:
    variant: Variant
    argv: list
    out: Path
    n: int = 0
    constrained: bool = False
    pair: tuple | None = None  # commands sharing a pair analyse one release

    @property
    def kind(self) -> str:
        return self.argv[0]


_WARMUP_ROUND = 2**32 - 1  # a round index the timed loop never reaches


def _seed(*words) -> int:
    return int(np.random.SeedSequence(words).generate_state(1)[0])


class Workload:
    name = ""
    variants: tuple = ()

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed

    def prepare(self):
        """Write the inputs shared by every round."""

    def warmup(self) -> list:
        """A short command that loads every code path of the workload."""
        raise NotImplementedError

    def round(self, i: int) -> list:
        raise NotImplementedError


def _collapsed_variants():
    out = []
    for prior in ("flat", "nig"):
        for mode in ("unconstrained", "constrained"):
            name = f"{prior}_{mode}"
            out.append(Variant(name, "mu", f"gibbs.ess_per_s_mu.{name}",
                               f"gibbs.ess_per_s_sigma_sq.{name}"))
    return tuple(out)


class Lead(Workload):
    name = "lead"
    variants = _collapsed_variants()

    def prepare(self):
        (self.work / "lead_release.json").write_text(json.dumps(LEAD_RELEASE))
        (self.work / "lead_prior.json").write_text(json.dumps(LEAD_PRIOR))

    def _argv(self, variant: Variant, iters: int, seed: int, out: Path) -> list:
        prior = "flat" if variant.name.startswith("flat") else str(self.work / "lead_prior.json")
        argv = ["infer", "--release", str(self.work / "lead_release.json"),
                "--prior", prior, "--iters", str(iters), "--seed", str(seed),
                "--out", str(out)]
        if variant.name.endswith("_constrained"):
            argv.append("--constrained")
        return argv

    def warmup(self):
        out = self.work / "warmup.csv"
        return self._argv(self.variants[3], 200, 1, out)

    def round(self, i):
        cmds = []
        for k, v in enumerate(self.variants):
            out = self.work / f"lead_{i}_{k}.csv"
            iters = LEAD_ITERS[v.name.split("_")[0]]
            cmds.append(Command(v, self._argv(v, iters, _seed(self.seed, i, k), out),
                                out, n=LEAD_RELEASE["n"],
                                constrained=v.name.endswith("_constrained")))
        return cmds


def fig2_scenarios() -> list:
    text = resources.files("dpgibbs").joinpath("presets/fig2.json").read_text()
    return json.loads(text)["scenarios"]


class Coverage(Workload):
    name = "coverage"
    variants = (Variant("fig2", "mu", "", ""),)

    def _grid(self, path: Path, seed_words: tuple, reps: int, iters: int, scenarios=None):
        # fig2 gives every scenario one base_seed, so that scenarios see the
        # same datasets and pair their comparisons.  Here each scenario gets
        # its own: with a shared one, the chains of a round share their data
        # and random streams, and their ESS values rise and fall together.
        rows = []
        for k, s in enumerate(scenarios or fig2_scenarios()):
            rows.append(dict(s, reps=reps, iters=iters, base_seed=_seed(*seed_words, k)))
        path.write_text(json.dumps({"format_version": 1, "scenarios": rows}))
        return path

    def warmup(self):
        grid = self._grid(self.work / "warmup_grid.json", (1,), 1, 200, fig2_scenarios()[:1])
        return ["simulate", "--grid", str(grid), "--out", str(self.work / "warmup.csv")]

    def round(self, i):
        grid = self._grid(self.work / f"grid_{i}.json", (self.seed, i),
                          COVERAGE_REPS_PER_ROUND, COVERAGE_ITERS)
        out = self.work / f"coverage_{i}.csv"
        return [Command(self.variants[0],
                        ["simulate", "--grid", str(grid), "--parallelism", "1", "--out", str(out)],
                        out)]

    def parallel_grid_argvs(self) -> tuple:
        """A small grid run at --parallelism 1 and 2 for the byte-identity check."""
        picked = [s for s in fig2_scenarios() if s["n"] in (31, 100) and s["truth_mu"] == 0.5]
        grid = self._grid(self.work / "grid_parallel.json", (self.seed, _WARMUP_ROUND),
                          4, 300, picked)
        return tuple(["simulate", "--grid", str(grid), "--parallelism", str(p),
                      "--out", str(self.work / f"grid_parallel_{p}.csv")] for p in (1, 2))


def _bounded_release(rng, n: int, eps: float) -> dict:
    """Laplace release of n draws from N(mu, sigma^2) truncated to [0, 1]."""
    mu, sigma = LIKELIHOOD_TRUTH
    y = np.empty(0)
    while y.size < n:
        z = rng.normal(mu, sigma, 2 * n)
        y = np.concatenate([y, z[(z >= 0.0) & (z <= 1.0)]])
    y = y[:n]
    scale = 1.0 / (eps * n)  # sensitivity 1/n for both statistics on [0, 1]
    return {"format_version": 1,
            "ybar_star": float(y.mean() + rng.laplace(0.0, scale)),
            "s_sq_star": float(y.var(ddof=1) + rng.laplace(0.0, scale)),
            "n": n, "eps1": eps, "eps2": eps, "a": 0.0, "b": 1.0}


class Likelihood(Workload):
    name = "likelihood"
    variants = (
        Variant("collapsed_n100", "mu", "gibbs.ess_per_s_mu.flat_constrained_n100",
                "gibbs.ess_per_s_sigma_sq.flat_constrained_n100"),
        Variant("collapsed_n1000", "mu", "gibbs.ess_per_s_mu.flat_constrained_n1000",
                "gibbs.ess_per_s_sigma_sq.flat_constrained_n1000"),
        Variant("augmented_n100", "mu", "augmented.ess_per_s_mu.n100",
                "augmented.ess_per_s_sigma_sq.n100"),
        Variant("augmented_n1000", "mu", "augmented.ess_per_s_mu.n1000",
                "augmented.ess_per_s_sigma_sq.n1000"),
    )

    def _release(self, i: int, n: int) -> Path:
        path = self.work / f"release_{i}_{n}.json"
        rng = np.random.default_rng(_seed(self.seed, i, n))
        path.write_text(json.dumps(_bounded_release(rng, n, LIKELIHOOD_EPS)))
        return path

    def warmup(self):
        rel = self._release(_WARMUP_ROUND, 100)
        return ["infer", "--release", str(rel), "--sampler", "likelihood", "--constrained",
                "--iters", "50", "--seed", "1", "--out", str(self.work / "warmup.csv")]

    def round(self, i):
        cmds = []
        for j, n in enumerate((100, 1000)):
            rel = self._release(i, n)
            for sampler, v in (("moment", self.variants[j]), ("likelihood", self.variants[2 + j])):
                iters = (LIKELIHOOD_COLLAPSED_ITERS if sampler == "moment"
                         else LIKELIHOOD_AUGMENTED_ITERS[n])
                out = self.work / f"lik_{i}_{v.name}.csv"
                cmds.append(Command(
                    v,
                    ["infer", "--release", str(rel), "--sampler", sampler, "--constrained",
                     "--iters", str(iters), "--seed", str(_seed(self.seed, i, n, int(sampler == "moment"))),
                     "--out", str(out)],
                    out, n=n, constrained=True, pair=(i, n)))
        return cmds


def demo_regression_csv() -> str:
    return str(resources.files("dpgibbs").joinpath("data/demo_regression.csv"))


class Regress(Workload):
    name = "regress"
    variants = tuple(
        Variant(f"{'constrained' if c else 'unconstrained'}_eps{e:g}", "theta1",
                f"regression.ess_per_s_theta1.{'constrained' if c else 'unconstrained'}_eps{e:g}",
                f"regression.ess_per_s_sigma_sq.{'constrained' if c else 'unconstrained'}_eps{e:g}")
        for e, c, _chains in REGRESS_CONFIGS
    )

    def _argv(self, eps: float, constrained: bool, iters: int, seed: int, out: Path):
        argv = ["regress", "--data", demo_regression_csv(), "--eps-per-query", f"{eps:g}",
                "--iters", str(iters), "--seed", str(seed), "--out", str(out)]
        if constrained:
            argv.append("--constrained")
        return argv

    def warmup(self):
        eps, constrained, _chains = REGRESS_CONFIGS[-1]
        return self._argv(eps, constrained, 50, 1, self.work / "warmup.csv")

    def round(self, i):
        cmds = []
        for k, ((eps, constrained, chains), v) in enumerate(zip(REGRESS_CONFIGS, self.variants)):
            for j in range(chains):
                out = self.work / f"reg_{i}_{k}_{j}.csv"
                argv = self._argv(eps, constrained, REGRESS_ITERS, _seed(self.seed, i, k, j), out)
                cmds.append(Command(v, argv, out, constrained=constrained))
        return cmds


WORKLOADS = {w.name: w for w in (Lead, Coverage, Likelihood, Regress)}
