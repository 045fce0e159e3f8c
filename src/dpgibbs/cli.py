"""Command-line surface: release, infer, regress, simulate, summarize, validate.

Every subcommand is a deterministic function of its inputs and a single
--seed flag; there is no ambient entropy anywhere.  Exit codes: 0 on
success, 2 for usage problems, 3 for data validation failures, 4 for
numerical failures (including a failing validate run).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from importlib import resources
from pathlib import Path

import numpy as np

from . import harness
from .augmented import run_augmented_chain
from .errors import (ConfigurationError, DpGibbsError, NumericalError, SamplingError,
                     ValidationError)
from .gibbs import ConstraintMode, PriorSpec, SamplerConfig, run_chain
from .regression import RegPriors, ingest_and_rescale, release_regression, \
    run_regression_chain
from .release import FORMAT_VERSION, Bounds, Budget, PrivateRelease, as_int, release, summarize
from .summary import hpd_interval, kde_mode
from .validation import run_validation

_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NUMERIC = 4


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _read_csv(path: str, width: int | None) -> tuple[list[str], list[np.ndarray]]:
    """The header and the first `width` numeric columns of a CSV file.

    Blank lines and '#' lines are skipped.  The first remaining line is
    the header when one of its first `width` cells is not a number.
    Every other row needs `width` finite numeric cells (None: as many as
    the first line has); cells past them are ignored.
    """
    header, values = [], []
    for lineno, line in enumerate(Path(path).read_text().split("\n"), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        width = width or len(cells)
        try:
            values.append([float(c) for c in cells[:width]])
        except ValueError:
            if not (header or values):
                header = cells
                continue
            raise ValidationError(f"non-numeric cell on line {lineno} of {path}")
        if len(cells) < width:
            raise ValidationError(f"need {width} columns on line {lineno} of {path}")
        if not all(map(math.isfinite, values[-1])):
            raise ValidationError(f"non-finite cell on line {lineno} of {path}")
    if not values:
        raise ValidationError(f"no numeric rows found in {path}")
    return header, [np.asarray(col) for col in zip(*values)]


def _load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}") from exc


@contextmanager
def _invalid(error: type[DpGibbsError], what: str):
    """Re-raise what building a domain object from outside input raises as `error`.

    `error` is ConfigurationError (exit 2) for flags and ValidationError
    (exit 3) for file contents.  Never wrap a sampler: a ValueError from
    sampling code is a bug and must crash the run.
    """
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        reason = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise error(f"{what}: {reason}") from exc


def _gaussian_prior(obj) -> PriorSpec:
    """A flat or conjugate ('nig') prior from its JSON object."""
    if not isinstance(obj, dict):
        raise ValidationError(f"a prior is a JSON object, got {type(obj).__name__}")
    with _invalid(ValidationError, "bad prior"):
        if obj.get("kind") == "nig":
            return PriorSpec.conjugate(float(obj["mu0"]), float(obj["kappa0"]),
                                       float(obj["nu0"]), float(obj["sigma0_sq"]))
        return PriorSpec(kind=obj.get("kind"))


def _load_prior_json(path: str):
    """The JSON object of a --prior file; a missing one is a bad flag (exit 2)."""
    try:
        return _load_json(path)
    except FileNotFoundError:
        raise ConfigurationError(f"prior file {path!r} not found")


def _format_draws_csv(columns: dict[str, np.ndarray]) -> str:
    row = "%d" + ",%.17g" * len(columns)
    lines = [f"# format_version={FORMAT_VERSION}", "t," + ",".join(columns)]
    lines.extend(row % (t, *cells) for t, cells in enumerate(zip(*columns.values())))
    return "\n".join(lines) + "\n"


def _format_results_csv(results: list[harness.ScenarioResult]) -> str:
    lines = [f"# format_version={FORMAT_VERSION}",
             "n,eps,mode,prior,mu_true,coverage,coverage_se,avg_len,rmse,errors"]
    for r in results:
        s = r.scenario
        lines.append(f"{s.n},{s.eps1 + s.eps2:.17g},{s.mode},{s.prior.kind},"
                     f"{s.truth_mu:.17g},{r.coverage:.17g},{r.coverage_se:.17g},"
                     f"{r.avg_len:.17g},{r.rmse:.17g},{r.errors}")
    return "\n".join(lines) + "\n"


def cmd_release(args) -> int:
    _, (data,) = _read_csv(args.data, 1)
    with _invalid(ConfigurationError, "bad --lower/--upper"):
        bounds = Bounds(args.lower, args.upper)
    summary = summarize(data, bounds)
    rng = np.random.default_rng(args.seed)
    with _invalid(ConfigurationError, "bad --eps1/--eps2"):
        budget = Budget(args.eps1, args.eps2)
    rel = release(summary, bounds, budget, rng)
    _write_text(args.out, rel.to_json() + "\n")
    return 0


def cmd_infer(args) -> int:
    rel = PrivateRelease.from_json(Path(args.release).read_text())
    prior = (PriorSpec.flat() if args.prior == "flat"
             else _gaussian_prior(_load_prior_json(args.prior)))
    with _invalid(ConfigurationError, "bad --iters/--burn-in/--thin"):
        config = SamplerConfig(iters=args.iters, seed=args.seed,
                               burn_in=args.burn_in, thin=args.thin)
    if args.sampler == "likelihood":
        draws = run_augmented_chain(rel, args.constrained, config, prior=prior)
    else:
        mode = (ConstraintMode.MOMENT_CONSTRAINED if args.constrained
                else ConstraintMode.UNCONSTRAINED)
        draws = run_chain(rel, prior, mode, config,
                          force_sigma_constraint=args.force_sigma_constraint)
    with np.errstate(over="ignore"):  # an overflow is reported below, naming its column
        mu, sigma_sq = rel.bounds.from_unit(draws.mu, draws.sigma_sq)
        ybar, s_sq = rel.bounds.from_unit(draws.ybar, draws.s_sq)
    columns = {"mu": mu, "sigma_sq": sigma_sq, "ybar": ybar, "s_sq": s_sq}
    for name, values in columns.items():
        if not np.isfinite(values).all():
            raise NumericalError(f"{name} draws are not finite on {rel.bounds}")
    _write_text(args.out, _format_draws_csv(columns))
    return 0


def cmd_regress(args) -> int:
    _, (x, y) = _read_csv(args.data, 2)
    data = ingest_and_rescale(x, y)
    if args.prior is None:
        priors = RegPriors.default()
    else:
        obj = _load_prior_json(args.prior)
        with _invalid(ValidationError, "bad regression prior"):
            priors = RegPriors(mu0=np.asarray(obj["mu0"], dtype=float),
                               lambda0=np.asarray(obj["lambda0"], dtype=float),
                               a0=float(obj["a0"]), b0=float(obj["b0"]))
    rng = np.random.default_rng(args.seed)
    with _invalid(ConfigurationError, "bad --eps-per-query"):
        rel = release_regression(data, args.eps_per_query, rng)
    chain_seed = int(np.random.SeedSequence((args.seed, 1)).generate_state(1)[0])
    with _invalid(ConfigurationError, "bad --iters/--burn-in"):
        config = SamplerConfig(iters=args.iters, seed=chain_seed, burn_in=args.burn_in)
    # an overflow mid-chain, and the inf - inf or 0 * inf after it, raise NumericalError
    with np.errstate(over="ignore", invalid="ignore"):
        draws = run_regression_chain(rel, priors, args.constrained, config)
    if any(draws.warnings.values()):
        print(f"warning: fallback counts {json.dumps(draws.warnings)}", file=sys.stderr)
    _write_text(args.out, _format_draws_csv({
        "theta0": draws.theta0,
        "theta1": draws.theta1,
        "sigma_sq": draws.sigma_sq,
    }))
    return 0


_SCENARIO_FIELDS = {"n": as_int, "eps1": float, "eps2": float, "truth_mu": float,
                    "truth_sigma": float, "reps": as_int, "iters": as_int, "base_seed": as_int}


def _scenario(obj) -> harness.Scenario:
    if not isinstance(obj, dict):
        raise ValidationError(f"a scenario is a JSON object, got {type(obj).__name__}")
    prior = _gaussian_prior(obj.get("prior", {"kind": "flat"}))
    with _invalid(ValidationError, "bad scenario"):
        fields = {name: cast(obj[name]) for name, cast in _SCENARIO_FIELDS.items()}
        return harness.Scenario(mode=str(obj.get("mode", "unconstrained")), prior=prior,
                                **fields)


def cmd_simulate(args) -> int:
    source = (resources.files("dpgibbs").joinpath("presets/fig2.json")
              if args.grid == "fig2" else args.grid)
    obj = _load_json(source)
    with _invalid(ValidationError, "bad grid"):
        raw = obj["scenarios"] if isinstance(obj, dict) else obj
    if not raw:
        raise ConfigurationError("scenario grid is empty")
    if not isinstance(raw, list):
        raise ValidationError(f"scenarios are a JSON list, got {type(raw).__name__}")
    scenarios = [_scenario(o) for o in raw]
    if args.paper_scale:
        scenarios = [harness.paper_scale(s) for s in scenarios]
    results = harness.run_grid(scenarios, parallelism=args.parallelism)
    _write_text(args.out, _format_results_csv(results))
    return 0


def cmd_summarize(args) -> int:
    header, columns = _read_csv(args.draws, None)
    cols = dict(zip(header, columns))
    if args.column not in cols:
        raise ValidationError(f"column {args.column!r} not in {sorted(cols)}")
    x = cols[args.column]
    # kde_mode's only check is its sample count, so once it passes, the
    # only check hpd_interval can fail is the one on --mass
    with _invalid(ValidationError, f"column {args.column!r}"):
        mode = kde_mode(x)
    with _invalid(ConfigurationError, "bad --mass"):
        interval = hpd_interval(x, args.mass)
    report = {
        "format_version": FORMAT_VERSION,
        "column": args.column,
        "mode": mode,
        "hpd_lo": interval.lo,
        "hpd_hi": interval.hi,
        "mean": float(x.mean()),
        "sd": float(x.std(ddof=1)),
    }
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_validate(args) -> int:
    report = run_validation()
    _write_text(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if report["passed"] else _EXIT_NUMERIC


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:  # numpy seeds its generators from non-negative integers only
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _parallelism(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpgibbs",
        description="Differentially private Gaussian releases and "
                    "constraint-aware Bayesian inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("release", help="noise a single-column CSV into a release JSON")
    p.add_argument("--data", required=True)
    p.add_argument("--lower", type=float, required=True)
    p.add_argument("--upper", type=float, required=True)
    p.add_argument("--eps1", type=float, required=True)
    p.add_argument("--eps2", type=float, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_release)

    p = sub.add_parser("infer", help="posterior draws from a release JSON")
    p.add_argument("--release", required=True)
    p.add_argument("--prior", default="flat",
                   help="'flat' or a prior JSON file (original data scale)")
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--sampler", choices=("moment", "likelihood"), default="moment")
    p.add_argument("--iters", type=int, default=20_000)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--force-sigma-constraint", action="store_true",
                   dest="force_sigma_constraint")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("regress", help="noisy-statistic regression draws from x,y CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--prior", default=None, help="regression prior JSON")
    p.add_argument("--eps-per-query", type=float, required=True, dest="eps_per_query")
    p.add_argument("--constrained", action="store_true")
    p.add_argument("--iters", type=int, default=10_000)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_regress)

    p = sub.add_parser("simulate", help="run a scenario grid to a results CSV")
    p.add_argument("--grid", required=True, help="grid JSON path or 'fig2'")
    p.add_argument("--parallelism", type=_parallelism, default=1)
    p.add_argument("--paper-scale", action="store_true", dest="paper_scale")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("summarize", help="HPD/mode/moments of a draws CSV column")
    p.add_argument("--draws", required=True)
    p.add_argument("--column", default="mu")
    p.add_argument("--mass", type=float, default=0.95)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("validate", help="run the numerical check suite")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DpGibbsError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, SamplingError) and exc.diagnostics:
            print(json.dumps(exc.diagnostics, default=str), file=sys.stderr)
        if isinstance(exc, ConfigurationError):
            return _EXIT_USAGE
        return _EXIT_NUMERIC if isinstance(exc, NumericalError) else _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
