"""End-to-end acceptance suite.

Each test prints one line per criterion (and one per sub-check where a
criterion bundles several quantities) in the form

    criterion 07 [PASS] mu HPD unconstrained ...

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import math
import time

import numpy as np
import pytest

from dpgibbs.augmented import run_augmented_chain
from dpgibbs.cli import main as cli_main
from dpgibbs.feasible import (
    RegTheta,
    pair_feasible,
    regression_stats_feasible,
    regression_theta_feasible,
    stats_feasible,
)
from dpgibbs.gibbs import (
    ConstraintMode,
    PredictiveMode,
    PriorSpec,
    SamplerConfig,
    predictive_draws,
    run_chain,
)
from dpgibbs.harness import Scenario, run_grid
from dpgibbs.regression import (
    RegPriors,
    ingest_and_rescale,
    release_regression,
    run_regression_chain,
)
from dpgibbs.release import UNIT, Bounds, Budget, PrivateRelease
from dpgibbs.summary import hpd_interval, mc_se
from dpgibbs.validation import (
    check_matching,
    check_divergence_growth,
    check_evidence_grid,
    ks_distance,
    weighted_ecdf_sup_distance,
)
from dpgibbs.distributions import sample_tgm
from oracles import beta22_cdf, flat_posterior_grid_oracle, tgm_quadrature_cdf

pytestmark = pytest.mark.acceptance

LEAD_RELEASE = PrivateRelease(ybar_star=34.30, s_sq_star=47.16 ** 2, n=43,
                              budget=Budget(0.25, 0.25), bounds=Bounds(0.0, 100.0))
LEAD_PRIOR = PriorSpec.conjugate(mu0=12.5, kappa0=1.0, nu0=1.0, sigma0_sq=3.8 ** 2)
LEAD_ITERS = 100_000


def report(criterion: int, ok: bool, text: str):
    print(f"criterion {criterion:02d} [{'PASS' if ok else 'FAIL'}] {text}")
    return ok


@pytest.fixture(scope="module")
def lead_chains():
    chains = {}
    for name, prior, mode in (
        ("nig_unconstrained", LEAD_PRIOR, ConstraintMode.UNCONSTRAINED),
        ("nig_constrained", LEAD_PRIOR, ConstraintMode.MOMENT_CONSTRAINED),
        ("flat_unconstrained", PriorSpec.flat(), ConstraintMode.UNCONSTRAINED),
        ("flat_constrained", PriorSpec.flat(), ConstraintMode.MOMENT_CONSTRAINED),
    ):
        chains[name] = run_chain(LEAD_RELEASE, prior, mode,
                                 SamplerConfig(iters=LEAD_ITERS, seed=1107, burn_in=0))
    return chains


def test_criterion_01_tgm_sampler_matches_quadrature_cdf():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(101)
    for params in ((2.0, 2.0, 1.0, 1.0), (5.0, 3.0, 2.0, 0.5), (0.5, 1.0, 0.3, 2.0)):
        draws = np.array([sample_tgm(*params, math.inf, rng)
                          for _ in range(200_000)])
        ks = ks_distance(draws, tgm_quadrature_cdf(params))
        ok = report(1, ks < 0.01, f"TGM{params} KS = {ks:.4f} < 0.01")
        if not ok:
            failures.append(params)
    report(1, time.time() - t0 < 30.0, f"runtime {time.time() - t0:.1f}s < 30s")
    assert not failures


def test_criterion_02_tgm_collapse_and_posterior_oracle():
    t0 = time.time()
    rng = np.random.default_rng(202)
    draws = np.array([sample_tgm(2.0, 2.0, 0.0, 0.7, math.inf, rng)
                      for _ in range(100_000)])
    from oracles import gamma_cdf

    ks = ks_distance(draws, gamma_cdf(2.0, 2.0))
    ok1 = report(2, ks < 0.01, f"lambda=0 collapse KS = {ks:.4f} < 0.01")

    alpha, beta, lam, tau = 2.0, 2.0, 1.0, 1.0
    x = np.array([sample_tgm(alpha, beta, lam, tau, math.inf, rng)
                  for _ in range(150_000)])
    prior = rng.gamma(shape=alpha, scale=1.0 / beta, size=200_000)
    w = np.exp(-lam * np.abs(tau - prior))
    sup = weighted_ecdf_sup_distance(x, prior, w)
    ok2 = report(2, sup < 0.02, f"importance-sampling oracle sup = {sup:.4f} < 0.02")
    report(2, time.time() - t0 < 60.0, f"runtime {time.time() - t0:.1f}s < 60s")
    assert ok1 and ok2


def test_criterion_03_flat_evidence_grid():
    t0 = time.time()
    checks = check_evidence_grid(rel_err_tol=1e-3)
    worst = max(c["rel_err"] for c in checks)
    ok = report(3, all(c["passed"] for c in checks),
                f"evidence quadrature vs closed form on {len(checks)}-point grid, "
                f"worst rel_err = {worst:.2e} < 1e-3")
    report(3, time.time() - t0 < 60.0, f"runtime {time.time() - t0:.1f}s < 60s")
    assert ok


def test_criterion_04_scale_prior_divergence_witness():
    checks = check_divergence_growth(n=10, eps2=0.1)
    ok = report(4, all(c["passed"] for c in checks),
                "partial integrals grow >= 0.9 c log(1/delta) down to delta = 1e-6")
    assert ok


def test_criterion_05_laplace_uniform_matching():
    checks = check_matching(cases=100)
    worst = max(c["rel_err"] for c in checks)
    ok = report(5, all(c["passed"] for c in checks),
                f"credible = pivotal on 100 random cases, worst diff = {worst:.2e} <= 1e-12")
    assert ok


def test_criterion_06_posterior_matches_quadrature_oracle():
    t0 = time.time()
    rel = PrivateRelease(ybar_star=0.43, s_sq_star=0.28 ** 2, n=50,
                         budget=Budget(0.25, 0.25), bounds=UNIT)
    draws = run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED,
                      SamplerConfig(iters=100_000, seed=606, burn_in=0))
    mu_oracle, sig_oracle = flat_posterior_grid_oracle(0.43, 0.28 ** 2, 50, 0.25, 0.25,
                                                       n_mu=600, n_sig=600)
    ok = True
    for name, sample, target in (("mu", draws.mu, mu_oracle),
                                 ("sigma_sq", draws.sigma_sq, sig_oracle)):
        se = mc_se(sample)
        diff = abs(sample.mean() - target)
        ok &= report(6, diff < 3 * se,
                     f"{name}: |chain mean - quadrature| = {diff:.5f} < 3 SE = {3 * se:.5f}")
    report(6, time.time() - t0 < 300.0, f"runtime {time.time() - t0:.1f}s < 5 min")
    assert ok


def test_criterion_07_lead_example_reproduction(lead_chains):
    t0 = time.time()
    checks = []

    def check(ok, text):
        checks.append(report(7, ok, text))

    # HPD endpoints, mapped to the original scale
    hpd_targets = [
        ("nig_unconstrained", "mu", (3.4, 48.2)),
        ("nig_constrained", "mu", (1.9, 42.0)),
    ]
    for chain_name, _, (t_lo, t_hi) in hpd_targets:
        iv = hpd_interval(100.0 * lead_chains[chain_name].mu, 0.95)
        check(abs(iv.lo - t_lo) <= 1.5 and abs(iv.hi - t_hi) <= 1.5,
              f"{chain_name} mu HPD [{iv.lo:.2f}, {iv.hi:.2f}] "
              f"vs [{t_lo}, {t_hi}] +- 1.5")
    s2_targets = [
        ("nig_unconstrained", (1.2 ** 2, 50.8 ** 2)),
        ("nig_constrained", (1.0 ** 2, 39.3 ** 2)),
    ]
    for chain_name, (t_lo, t_hi) in s2_targets:
        iv = hpd_interval(1e4 * lead_chains[chain_name].sigma_sq, 0.95)
        check(abs(iv.lo - t_lo) <= 0.1 * t_lo and abs(iv.hi - t_hi) <= 0.1 * t_hi,
              f"{chain_name} sigma_sq HPD [{iv.lo:.2f}, {iv.hi:.2f}] "
              f"vs [{t_lo:.2f}, {t_hi:.2f}] +- 10%")

    # flat-prior predictive suite
    rng = np.random.default_rng(707)
    bounds = LEAD_RELEASE.bounds
    plain = predictive_draws(lead_chains["flat_unconstrained"],
                             PredictiveMode.PLAIN, bounds, rng)
    clip = predictive_draws(lead_chains["flat_unconstrained"],
                            PredictiveMode.CLIP_AD_HOC, bounds, rng)
    trunc_un = predictive_draws(lead_chains["flat_unconstrained"],
                                PredictiveMode.TRUNCATED_PER_DRAW, bounds, rng)
    trunc_co = predictive_draws(lead_chains["flat_constrained"],
                                PredictiveMode.TRUNCATED_PER_DRAW, bounds, rng)
    neg = (plain < 0.0).mean()
    above = (plain > 100.0).mean()
    check(abs(neg - 0.24) <= 0.02, f"predictive fraction < 0: {neg:.3f} vs 0.24 +- 0.02")
    check(abs(above - 0.10) <= 0.02, f"predictive fraction > 100: {above:.3f} vs 0.10 +- 0.02")
    check(abs(plain.std() - 53.0) <= 3.0, f"plain predictive sd {plain.std():.1f} vs 53 +- 3")
    check(abs(trunc_co.std() - 25.0) <= 2.0,
          f"constrained predictive sd {trunc_co.std():.1f} vs 25 +- 2")
    check(abs(clip.std() - 35.0) <= 3.0, f"clipped predictive sd {clip.std():.1f} vs 35 +- 3")
    check(abs(trunc_un.std() - 27.0) <= 2.0,
          f"per-draw truncated predictive sd {trunc_un.std():.1f} vs 27 +- 2")

    report(7, time.time() - t0 < 600.0, f"runtime {time.time() - t0:.1f}s < 10 min")
    assert all(checks), "lead-example sub-checks failed (see lines above)"


def test_criterion_08_coverage_calibration_desk_scale():
    t0 = time.time()
    scenarios = [
        Scenario(n=n, eps1=0.1, eps2=0.1, truth_mu=0.5, truth_sigma=0.2,
                 mode="unconstrained", prior=PriorSpec.flat(), reps=500,
                 iters=5000, base_seed=808)
        for n in (100, 316, 1000)
    ]
    results = run_grid(scenarios, parallelism=1)
    coverages = [r.coverage for r in results]
    lengths = [r.avg_len for r in results]
    ok = True
    for (n, cov) in zip((100, 316, 1000), coverages):
        ok &= report(8, abs(cov - 0.95) <= 0.03,
                     f"coverage at n={n}: {cov:.3f} within 0.95 +- 0.03")
    slope = float(np.polyfit(np.log([100, 316, 1000]), np.log(lengths), 1)[0])
    ok &= report(8, abs(slope + 1.0) <= 0.15,
                 f"avg-length log-log slope {slope:.3f} within -1 +- 0.15")
    report(8, time.time() - t0 < 3600.0, f"runtime {time.time() - t0:.1f}s < 1 hour")
    assert ok


def test_criterion_09_constraint_totality(lead_chains):
    # every stored draw of every constrained Gaussian chain in this suite
    ok_gauss = True
    for name in ("nig_constrained", "flat_constrained"):
        d = lead_chains[name]
        n = LEAD_RELEASE.n
        ok_gauss &= all(pair_feasible(m, s) for m, s in zip(d.mu, d.sigma_sq))
        ok_gauss &= all(stats_feasible(yb, s2, n) for yb, s2 in zip(d.ybar, d.s_sq))
    extra = run_chain(
        PrivateRelease(ybar_star=0.1, s_sq_star=0.3, n=30,
                       budget=Budget(0.1, 0.1), bounds=UNIT),
        PriorSpec.flat(), ConstraintMode.MOMENT_CONSTRAINED,
        SamplerConfig(iters=20_000, seed=909, burn_in=0))
    ok_gauss &= all(pair_feasible(m, s) for m, s in zip(extra.mu, extra.sigma_sq))
    ok_gauss &= all(stats_feasible(yb, s2, 30) for yb, s2 in zip(extra.ybar, extra.s_sq))
    report(9, ok_gauss, "zero violations across constrained Gaussian chains")

    from importlib import resources

    from dpgibbs.cli import _read_csv

    _, (x, y) = _read_csv(str(resources.files("dpgibbs").joinpath("data/demo_regression.csv")), 2)
    data = ingest_and_rescale(x, y)
    rel = release_regression(data, 0.1, np.random.default_rng(51))
    draws = run_regression_chain(rel, RegPriors.default(), True,
                                 SamplerConfig(iters=10_000, seed=7, burn_in=0))
    n = data.n
    ok_reg = all(regression_stats_feasible(*s, n) for s in draws.stats)
    ok_reg &= all(regression_theta_feasible(RegTheta(a, b))
                  for a, b in zip(draws.theta0, draws.theta1))
    ok_reg &= bool((draws.sigma_sq <= 0.25).all())
    for s in draws.stats:
        b = np.array([[n, s[0], s[2]], [s[0], s[1], s[3]], [s[2], s[3], s[4]]])
        ok_reg &= bool(np.linalg.eigvalsh(b).min() >= 0.0)
    report(9, ok_reg, "zero violations across 10^4 constrained regression iterations")
    assert ok_gauss and ok_reg


def test_criterion_10_sampler_cross_agreement():
    t0 = time.time()
    rel = PrivateRelease(ybar_star=0.43, s_sq_star=0.28 ** 2, n=50,
                         budget=Budget(0.25, 0.25), bounds=UNIT)
    collapsed = run_chain(rel, PriorSpec.flat(), ConstraintMode.UNCONSTRAINED,
                          SamplerConfig(iters=100_000, seed=1010))
    augmented = run_augmented_chain(rel, False, SamplerConfig(iters=50_000, seed=1011))
    ok = True
    for name, a, b in (("mu", collapsed.mu, augmented.mu),
                       ("sigma_sq", collapsed.sigma_sq, augmented.sigma_sq)):
        se = math.hypot(mc_se(a), mc_se(b))
        diff = abs(a.mean() - b.mean())
        ok &= report(10, diff < 3 * se,
                     f"{name}: |collapsed - augmented| = {diff:.5f} < 3 SE = {3 * se:.5f}")
    report(10, time.time() - t0 < 300.0, f"runtime {time.time() - t0:.1f}s < 5 min")
    assert ok


def test_criterion_11_induced_marginal_beta22():
    rng = np.random.default_rng(1111)
    accepted = np.empty(100_000)
    count = 0
    while count < accepted.size:
        mu = rng.random(300_000)
        sig = rng.random(300_000) * 0.25
        keep = mu * (1.0 - mu) >= sig
        take = min(int(keep.sum()), accepted.size - count)
        accepted[count:count + take] = mu[keep][:take]
        count += take
    ks = ks_distance(accepted, beta22_cdf)
    ok = report(11, ks < 0.02, f"mu marginal of uniform feasible draws: "
                               f"KS to Beta(2,2) = {ks:.4f} < 0.02")
    assert ok


def test_criterion_12_cli_determinism(tmp_path):
    rng = np.random.default_rng(3)
    (tmp_path / "data.csv").write_text(
        "value\n" + "\n".join(f"{v:.5f}" for v in rng.uniform(1, 99, 43)) + "\n")
    (tmp_path / "xy.csv").write_text(
        "x,y\n" + "\n".join(f"{a:.5f},{b:.5f}"
                            for a, b in zip(rng.uniform(0, 1, 20),
                                            rng.uniform(0, 1, 20))) + "\n")
    (tmp_path / "grid.json").write_text(json.dumps([{
        "n": 40, "eps1": 0.25, "eps2": 0.25, "truth_mu": 0.5, "truth_sigma": 0.2,
        "mode": "constrained", "prior": {"kind": "flat"}, "reps": 4, "iters": 300,
        "base_seed": 5,
    }]))

    def run_twice(args, out_name):
        texts = []
        for tag in ("a", "b"):
            out = tmp_path / f"{out_name}.{tag}"
            code = cli_main(list(args) + ["--out", str(out)])
            assert code == 0, f"{args} exited {code}"
            texts.append(out.read_bytes())
        return texts[0] == texts[1], texts[0]

    ok = True
    same, _ = run_twice(["release", "--data", str(tmp_path / "data.csv"),
                         "--lower", "0", "--upper", "100", "--eps1", "0.25",
                         "--eps2", "0.25", "--seed", "12"], "rel.json")
    ok &= report(12, same, "release: identical bytes across runs")
    cli_main(["release", "--data", str(tmp_path / "data.csv"), "--lower", "0",
              "--upper", "100", "--eps1", "0.25", "--eps2", "0.25", "--seed", "12",
              "--out", str(tmp_path / "rel.json")])
    for sampler in ("moment", "likelihood"):
        same, _ = run_twice(["infer", "--release", str(tmp_path / "rel.json"),
                             "--constrained", "--sampler", sampler,
                             "--iters", "500", "--seed", "4"], f"{sampler}.csv")
        ok &= report(12, same, f"infer --sampler {sampler}: identical bytes across runs")
    same, _ = run_twice(["regress", "--data", str(tmp_path / "xy.csv"),
                         "--eps-per-query", "0.5", "--iters", "300",
                         "--seed", "6"], "reg.csv")
    ok &= report(12, same, "regress: identical bytes across runs")
    same, first = run_twice(["simulate", "--grid", str(tmp_path / "grid.json"),
                             "--parallelism", "1"], "sim.csv")
    ok &= report(12, same, "simulate: identical bytes across runs")
    out_par = tmp_path / "sim.par"
    cli_main(["simulate", "--grid", str(tmp_path / "grid.json"),
              "--parallelism", "2", "--out", str(out_par)])
    ok &= report(12, out_par.read_bytes() == first,
                 "simulate: parallelism 1 and 2 byte-identical")
    cli_main(["infer", "--release", str(tmp_path / "rel.json"), "--iters", "500",
              "--seed", "4", "--out", str(tmp_path / "draws.csv")])
    same, _ = run_twice(["summarize", "--draws", str(tmp_path / "draws.csv"),
                         "--column", "mu"], "sum.json")
    ok &= report(12, same, "summarize: identical bytes across runs")
    same, _ = run_twice(["validate"], "validate.json")
    ok &= report(12, same, "validate: identical bytes across runs")
    assert ok
