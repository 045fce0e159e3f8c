"""SHA-256 digests of the package's seeded output, one line per layer.

Run as ``python tests/digests.py`` from the root of a checkout; it imports
the package from that checkout's ``src``.  Two trees that print the same
lines produce the same bytes on every path covered here, so a change that
claims byte-identical output can be checked by running this script on
both.  It is not a test and takes no options.

Each digest hashes float.hex of every value produced, or the class name
of the error raised, for a fixed list of seeded inputs:

- kernels: 4 000 random parameter sets through every distributions
  kernel and the log incomplete gammas behind the TGM weights;
- chain flat / chain nig: run_chain under the flat or the conjugate
  prior, in both constraint modes, on releases with n from 3 to 10**6,
  eps up to the 2(n-1)/n limit and noisy statistics outside [0, 1], plus
  the blood-lead release on [0, 100];
- augmented flat / augmented nig: run_augmented_chain under the flat or
  the conjugate prior, constrained and unconstrained;
- predictive: the three predictive modes;
- regression: run_regression_chain in both modes, plus the demo data
  under a near-singular prior (lambda0 = 1e-30 I) that makes the chain
  project lambda_n; the warnings counts are hashed too;
- summary: kde_mode and hpd_interval on mixed samples;
- grid collapsed / grid likelihood: a small grid of the collapsed
  modes, or of the latent-value ("likelihood") mode alone, through
  ``simulate``: the results CSV it writes;
- cli: stdout, stderr, exit code and --out file of in-process cli.main
  runs of release, infer (moment sampler flat and conjugate, likelihood
  sampler, each plain and constrained), regress (unconstrained at eps
  0.1, constrained at eps 10), simulate at parallelism 1 and 2,
  summarize, and a few commands that exit 2, 3 or 4.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import dpgibbs.regression as regression_module  # noqa: E402
from dpgibbs.augmented import run_augmented_chain  # noqa: E402
from dpgibbs.cli import _read_csv  # noqa: E402
from dpgibbs.cli import main as cli_main  # noqa: E402
from dpgibbs.distributions import (  # noqa: E402
    _log_reg_inc_gamma_lower,
    _log_reg_inc_gamma_upper,
    sample_inverse_gaussian,
    sample_laplace,
    sample_tgm,
    sample_trunc_gamma,
    sample_trunc_normal,
    tgm_pdf,
    tgm_weights,
)
from dpgibbs.errors import DpGibbsError  # noqa: E402
from dpgibbs.evidence import likelihood_s2_star  # noqa: E402
from dpgibbs.gibbs import (  # noqa: E402
    ConstraintMode,
    PredictiveMode,
    PriorSpec,
    SamplerConfig,
    predictive_draws,
    run_chain,
)
from dpgibbs.regression import (  # noqa: E402
    RegPriors,
    ingest_and_rescale,
    release_regression,
    run_regression_chain,
)
from dpgibbs.release import UNIT, Bounds, Budget, PrivateRelease  # noqa: E402
from dpgibbs.summary import hpd_interval, kde_mode  # noqa: E402

# per kind: (prior for the unit-scale releases, prior for the blood-lead release on [0, 100])
_PRIORS = {"flat": (PriorSpec.flat(), PriorSpec.flat()),
           "nig": (PriorSpec.conjugate(0.4, 2.0, 3.0, 0.05),
                   PriorSpec.conjugate(12.5, 1.0, 1.0, 14.44))}
_MODES = (ConstraintMode.UNCONSTRAINED, ConstraintMode.MOMENT_CONSTRAINED)


class Digest:
    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, *values):
        for v in values:
            if isinstance(v, np.ndarray):
                self._h.update(np.ascontiguousarray(v, dtype=float).tobytes())
            else:
                self._h.update(float(v).hex().encode())
            self._h.update(b";")

    def attempt(self, fn, *args):
        """fn(*args), or None after hashing the class of the error it raises."""
        try:
            return fn(*args)
        except (DpGibbsError, ValueError) as exc:
            self._h.update(type(exc).__name__.encode() + b";")
            return None

    def call(self, fn, *args):
        """Hash the float or tuple of floats fn(*args) returns, or its error."""
        out = self.attempt(fn, *args)
        if out is not None:
            self.add(*(out if isinstance(out, tuple) else (out,)))

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def kernels() -> str:
    d = Digest()
    params = np.random.default_rng(101)
    for i in range(4000):
        rng = np.random.default_rng(i)
        shape = _log_uniform(params, 1e-3, 1e6)
        rate = _log_uniform(params, 1e-3, 1e6)
        mean = shape / rate
        lo = mean * params.choice([0.0, 1e-6, 0.5, 0.99, 3.0, 50.0])
        hi = lo + mean * params.choice([1e-9, 1e-3, 0.5, 2.0, math.inf])
        d.call(sample_trunc_gamma, shape, rate, lo, hi, rng)
        lam = rate * params.uniform(0.0, 0.999)
        tau = mean * params.choice([-2.0, 1e-8, 0.3, 1.0, 4.0, 1e3])
        upper = mean * params.choice([0.5, 2.0, 1e3, math.inf])
        d.call(sample_tgm, shape, rate, lam, tau, upper, rng)
        d.call(tgm_weights, shape, rate, lam, tau)
        d.call(tgm_pdf, shape, rate, lam, tau, mean * params.uniform(0.01, 3.0))
        x = mean * params.choice([1e-300, 1e-8, 0.5, 1.0, 30.0, 1e4])
        d.call(_log_reg_inc_gamma_lower, shape, x)
        d.call(_log_reg_inc_gamma_upper, shape, x)
        mu, sd = params.normal(0.0, 10.0), _log_uniform(params, 1e-8, 1e3)
        a = mu + sd * params.choice([-math.inf, -9.0, -1.0, 0.0, 2.0, 7.0])
        width = sd * params.choice([1e-6, 0.5, 3.0, math.inf])
        d.call(sample_trunc_normal, mu, sd, a, (a if math.isfinite(a) else mu) + width, rng)
        d.call(sample_inverse_gaussian, _log_uniform(params, 1e-6, 1e6),
               _log_uniform(params, 1e-6, 1e6), rng)
        d.call(sample_laplace, mu, sd, rng)
        n = int(params.integers(3, 10_000))
        eps2 = params.uniform(0.01, 1.0)
        d.call(likelihood_s2_star, params.normal(0.05, 0.1), _log_uniform(params, 1e-4, 0.25),
               n, eps2)
    return d.hexdigest()


def _releases(count, seed, max_n):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(round(_log_uniform(rng, 3, max_n)))
        limit = 2.0 * (n - 1.0) / n
        eps1 = _log_uniform(rng, 1e-3, 10.0)
        eps2 = rng.choice([_log_uniform(rng, 1e-3, limit), limit * (1.0 - 1e-9)])
        ybar_star = rng.normal(0.5, rng.choice([0.05, 0.5, 3.0]))
        s_sq_star = rng.normal(0.04, rng.choice([0.01, 0.2, 2.0]))
        yield PrivateRelease(ybar_star=ybar_star, s_sq_star=s_sq_star, n=n,
                             budget=Budget(eps1, float(eps2)), bounds=UNIT)


def _draws(d: Digest, draws):
    if draws is not None:
        d.add(draws.mu, draws.sigma_sq, draws.ybar, draws.s_sq)


def chain(kind: str) -> str:
    d = Digest()
    prior, lead_prior = _PRIORS[kind]
    for i, rel in enumerate(_releases(60, 202, 1e6)):
        for mode in _MODES:
            config = SamplerConfig(iters=150, seed=i, burn_in=0)
            _draws(d, d.attempt(run_chain, rel, prior, mode, config))
    scaled = PrivateRelease(ybar_star=34.3, s_sq_star=2224.0, n=43,
                            budget=Budget(0.25, 0.25), bounds=Bounds(0.0, 100.0))
    for mode in _MODES:
        config = SamplerConfig(iters=2000, seed=3)
        _draws(d, d.attempt(run_chain, scaled, lead_prior, mode, config))
    return d.hexdigest()


def augmented(kind: str) -> str:
    d = Digest()
    prior = _PRIORS[kind][0]
    for i, rel in enumerate(_releases(16, 303, 300)):
        for constrained in (False, True):
            config = SamplerConfig(iters=60, seed=i, burn_in=0)
            _draws(d, d.attempt(run_augmented_chain, rel, constrained, config, prior))
    return d.hexdigest()


def predictive() -> str:
    d = Digest()
    rel = PrivateRelease(ybar_star=0.3, s_sq_star=0.02, n=40, budget=Budget(0.5, 0.5),
                         bounds=UNIT)
    draws = run_chain(rel, PriorSpec.flat(), ConstraintMode.MOMENT_CONSTRAINED,
                      SamplerConfig(iters=1000, seed=4))
    for mode in PredictiveMode:
        d.add(predictive_draws(draws, mode, Bounds(-2.0, 5.0), np.random.default_rng(5)))
    return d.hexdigest()


def regression() -> str:
    d = Digest()
    rng = np.random.default_rng(404)
    x = rng.uniform(0.0, 10.0, 60)
    data = ingest_and_rescale(x, 2.0 + 3.0 * x + rng.normal(0.0, 4.0, 60))
    runs = [(data, RegPriors.default(), constrained, eps, SamplerConfig(iters=300, seed=seed), seed)
            for seed in range(3)
            for constrained, eps in ((False, 0.1), (False, 1.0), (True, 10.0))]
    _, (x, y) = _read_csv(str(resources.files("dpgibbs").joinpath("data/demo_regression.csv")), 2)
    near_singular = RegPriors(mu0=np.array([1.0, 0.0]), lambda0=1e-30 * np.eye(2), a0=20.0, b0=0.5)
    runs.append((ingest_and_rescale(x, y), near_singular, False, 0.1,
                 SamplerConfig(iters=500, seed=0, burn_in=0), 0))
    for data, priors, constrained, eps, config, seed in runs:
        rel = release_regression(data, eps, np.random.default_rng(seed))
        out = d.attempt(run_regression_chain, rel, priors, constrained, config)
        if out is not None:
            d.add(out.theta0, out.theta1, out.sigma_sq, out.stats,
                  *(count for _, count in sorted(out.warnings.items())))
    return d.hexdigest()


def summary() -> str:
    d = Digest()
    rng = np.random.default_rng(505)
    for i in range(120):
        t = int(_log_uniform(rng, 30, 20_000))
        kind = i % 6
        if kind == 0:
            x = rng.normal(0.3, 0.1, t)
        elif kind == 1:
            x = np.where(rng.random(t) < 0.6, rng.normal(0.0, 1.0, t), rng.normal(4.0, 0.5, t))
        elif kind == 2:
            x = np.round(rng.normal(0.0, 1.0, t), 1)
        elif kind == 3:
            x = rng.gamma(0.7, 2.0, t)
        elif kind == 4:
            x = rng.standard_cauchy(t)
        else:
            x = 2.5 + 1e-12 * rng.standard_normal(t)
        x = x + rng.choice([0.0, 1e6])
        d.add(kde_mode(x))
        iv = hpd_interval(x, rng.choice([0.5, 0.95]))
        d.add(iv.lo, iv.hi)
    return d.hexdigest()


_GRID = {"collapsed": ((31, 0.5, "unconstrained", 1), (100, 0.2, "constrained", 2)),
         "likelihood": ((40, 0.5, "likelihood", 3),)}


def _scenarios(rows):
    return [{"n": n, "eps1": 0.5, "eps2": 0.5, "truth_mu": mu, "truth_sigma": 0.2,
             "mode": mode, "prior": {"kind": "flat"}, "reps": 3, "iters": 300,
             "base_seed": seed} for n, mu, mode, seed in rows]


def _run_cli(argv, out=None):
    """Exit code, stdout, stderr and the --out file's text of one in-process cli.main run."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli_main(argv + (["--out", out] if out else []))
    text = Path(out).read_text() if out and Path(out).exists() else ""
    return code, stdout.getvalue(), stderr.getvalue(), text


@contextlib.contextmanager
def _workdir():
    """A fresh temporary working directory, so that file names in messages are relative."""
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(old)


def grid(kind: str) -> str:
    with _workdir():
        Path("grid.json").write_text(json.dumps({"scenarios": _scenarios(_GRID[kind])}))
        code, _, err, csv = _run_cli(["simulate", "--grid", "grid.json"], "results.csv")
    if code or err:
        raise RuntimeError(f"simulate exited {code}: {err}")
    return hashlib.sha256(csv.encode()).hexdigest()


def cli() -> str:
    h = hashlib.sha256()
    rng = np.random.default_rng(606)
    demo = resources.files("dpgibbs").joinpath("data/demo_regression.csv").read_text()
    nig = {"kind": "nig", "mu0": 12.5, "kappa0": 1.0, "nu0": 1.0, "sigma0_sq": 14.44}
    infer = ["infer", "--release", "release.json", "--iters", "1500", "--seed", "2"]
    regress = ["regress", "--data", "demo.csv", "--iters", "600", "--seed", "3"]
    simulate = ["simulate", "--grid", "grid.json", "--parallelism"]
    runs = [
        (["release", "--data", "data.csv", "--lower", "0", "--upper", "100",
          "--eps1", "0.25", "--eps2", "0.25", "--seed", "1"], "release.json"),
        (infer, None), (infer + ["--constrained"], None),
        (infer + ["--prior", "nig.json"], None),
        (infer + ["--prior", "nig.json", "--constrained"], "draws.csv"),
        (infer + ["--sampler", "likelihood", "--iters", "300"], None),
        (infer + ["--sampler", "likelihood", "--iters", "300", "--constrained"], None),
        (regress + ["--eps-per-query", "0.1"], None),
        (regress + ["--eps-per-query", "10", "--constrained"], "regress.csv"),
        (simulate + ["1"], "results1.csv"), (simulate + ["2"], "results2.csv"),
        (["summarize", "--draws", "draws.csv", "--column", "sigma_sq"], None),
        (["summarize", "--draws", "regress.csv", "--column", "theta1", "--mass", "0.5"],
         "summary.json"),
        # exit 2: flag values and a grid no sampler can run
        (infer + ["--burn-in", "1500"], None),
        (["summarize", "--draws", "draws.csv", "--mass", "1.5"], None),
        (["simulate", "--grid", "flat_n2.json"], None),
        # exit 3: file contents
        (["release", "--data", "outside.csv", "--lower", "0", "--upper", "1",
          "--eps1", "1", "--eps2", "1", "--seed", "1"], None),
        (["infer", "--release", "nig.json", "--seed", "1"], None),
        (["simulate", "--grid", "bad_n.json"], None),
        (["summarize", "--draws", "draws.csv", "--column", "nope"], None),
        # exit 4: a constrained regression whose imputation loop gives up
        (["regress", "--constrained", "--data", "demo.csv", "--eps-per-query", "1",
          "--iters", "2000", "--seed", "2"], None),
    ]
    cap = regression_module._REJECTION_CAP
    with _workdir():
        values = np.clip(rng.normal(32.0, 17.0, 43), 0.5, 99.5)
        Path("data.csv").write_text("value\n" + "\n".join(f"{v:.4f}" for v in values) + "\n")
        Path("demo.csv").write_text(demo)
        Path("outside.csv").write_text("value\n0.5\n1.5\n")
        Path("nig.json").write_text(json.dumps(nig))
        rows = _scenarios(((30, 0.4, "unconstrained", 7), (60, 0.6, "constrained", 8),
                           (25, 0.5, "likelihood", 9)))
        Path("grid.json").write_text(json.dumps({"scenarios": rows}))
        Path("flat_n2.json").write_text(json.dumps({"scenarios": [{**rows[0], "n": 2}]}))
        Path("bad_n.json").write_text(json.dumps({"scenarios": [{**rows[0], "n": "ten"}]}))
        regression_module._REJECTION_CAP = 20  # the exit-4 run gives up quickly
        try:
            for argv, out in runs:
                for part in (" ".join(argv), *_run_cli(argv, out)):
                    h.update(str(part).encode() + b"\0")
        finally:
            regression_module._REJECTION_CAP = cap
    return h.hexdigest()


def main():
    for name, fn in (("kernels", kernels),
                     ("chain flat", lambda: chain("flat")),
                     ("chain nig", lambda: chain("nig")),
                     ("augmented flat", lambda: augmented("flat")),
                     ("augmented nig", lambda: augmented("nig")),
                     ("predictive", predictive), ("regression", regression),
                     ("summary", summary),
                     ("grid collapsed", lambda: grid("collapsed")),
                     ("grid likelihood", lambda: grid("likelihood")),
                     ("cli", cli)):
        print(f"{name:<15} {fn()}", flush=True)


if __name__ == "__main__":
    main()
