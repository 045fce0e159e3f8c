"""Which package functions the traced run wraps, and the per-layer metrics.

Every per-layer metric is reported on every workload; a layer that the
workload leaves idle reports 0.
"""

from __future__ import annotations

from time import perf_counter

from scipy import special as sc

import dpgibbs.augmented as augmented
import dpgibbs.cli as cli
import dpgibbs.distributions as distributions
import dpgibbs.gibbs as gibbs
import dpgibbs.harness as harness
import dpgibbs.regression as regression
from dpgibbs.errors import SamplingError, StuckChainError

from tracing import Tracer

_KERNELS = ("trunc_normal", "trunc_gamma", "tgm", "inverse_gaussian")
_COLLAPSED = ("flat_unconstrained", "flat_constrained", "nig_unconstrained", "nig_constrained")
_REG_MODES = ("unconstrained", "constrained")
_AUG_SIZES = (100, 1000)

# name -> (unit, better).  The ESS-rate names match the Variant fields in
# workloads.py.
PER_LAYER = {}
for _k in _KERNELS:
    PER_LAYER[f"distributions.{_k}.calls"] = ("count", "higher")
    PER_LAYER[f"distributions.{_k}.us_per_call"] = ("us", "lower")
PER_LAYER["distributions.sampling_errors"] = ("count", "lower")
for _v in _COLLAPSED:
    PER_LAYER[f"gibbs.sweep_us.{_v}"] = ("us", "lower")
PER_LAYER["gibbs.chain_self_us_per_iter"] = ("us", "lower")
for _v in _COLLAPSED + ("flat_constrained_n100", "flat_constrained_n1000"):
    PER_LAYER[f"gibbs.ess_per_s_mu.{_v}"] = ("1/s", "higher")
    PER_LAYER[f"gibbs.ess_per_s_sigma_sq.{_v}"] = ("1/s", "higher")
for _n in _AUG_SIZES:
    PER_LAYER[f"augmented.sweep_us.n{_n}"] = ("us", "lower")
    PER_LAYER[f"augmented.accept_rate.n{_n}"] = ("share", "higher")
    PER_LAYER[f"augmented.ess_per_s_mu.n{_n}"] = ("1/s", "higher")
    PER_LAYER[f"augmented.ess_per_s_sigma_sq.n{_n}"] = ("1/s", "higher")
for _m in _REG_MODES:
    PER_LAYER[f"regression.iter_us.{_m}"] = ("us", "lower")
PER_LAYER["regression.moment_model.us_per_call"] = ("us", "lower")
PER_LAYER["regression.nearest_psd.calls_per_iter"] = ("count", "lower")
PER_LAYER["regression.stats_attempts_per_iter"] = ("count", "lower")
PER_LAYER["regression.theta_attempts_per_iter"] = ("count", "lower")
PER_LAYER["regression.stuck_chains"] = ("count", "lower")
PER_LAYER["regression.s_per_failure"] = ("s", "lower")
for _v in ("unconstrained_eps0.1", "unconstrained_eps1", "constrained_eps10"):
    PER_LAYER[f"regression.ess_per_s_theta1.{_v}"] = ("1/s", "higher")
    PER_LAYER[f"regression.ess_per_s_sigma_sq.{_v}"] = ("1/s", "higher")
PER_LAYER["release.us_per_call"] = ("us", "lower")
PER_LAYER["summary.hpd.us_per_call"] = ("us", "lower")
PER_LAYER["summary.kde.us_per_call"] = ("us", "lower")
PER_LAYER["harness.rep_ms"] = ("ms", "lower")
PER_LAYER["harness.self_ms_per_rep"] = ("ms", "lower")
PER_LAYER["harness.rep_errors"] = ("count", "lower")
for _c in ("infer", "regress", "simulate"):
    PER_LAYER[f"cli.self_ms.{_c}"] = ("ms", "lower")
PER_LAYER["cli.bytes_out"] = ("B", "higher")
PER_LAYER["trace.overhead_s"] = ("s", "lower")
PER_LAYER["trace.overhead_share"] = ("share", "lower")

# The ROADMAP baseline table: (row, metric it is compared with, value in
# the metric's unit).  Python 3.10, numpy 2.4, scipy 1.17, 2-core sandbox.
ROADMAP_BASELINE = (
    ("collapsed sweep, flat prior, unconstrained", "gibbs.sweep_us.flat_unconstrained", 26.0),
    ("collapsed sweep, flat prior, constrained", "gibbs.sweep_us.flat_constrained", 34.0),
    ("augmented sweep, constrained, n = 100", "augmented.sweep_us.n100", 400.0),
    ("augmented sweep, constrained, n = 1000", "augmented.sweep_us.n1000", 4100.0),
    ("regression iteration, unconstrained", "regression.iter_us.unconstrained", 264.0),
    ("regression iteration, constrained", "regression.iter_us.constrained", 252.0),
    ("hpd_interval + kde_mode, 5 000 draws", "summary.hpd_plus_kde_ms", 31.0),
    ("one harness replication, n = 100, 5 000 iters", "harness.rep_ms.n100", 171.0),
    ("machine reference: scipy gammainc on one scalar", "reference.gammainc_us", 1.2),
    ("machine reference: scipy gammaincinv on one scalar", "reference.gammaincinv_us", 1.6),
)
RECONCILE_TOLERANCE = 0.2
_REFERENCE_CALLS = 20_000


def machine_reference() -> dict:
    """Scalar scipy.special costs, which the ROADMAP also quotes.

    A layer that disagrees with the table by about as much as these do
    reflects the machine, not the package.
    """
    out = {}
    for name, fn, arg in (("gammainc", sc.gammainc, 0.7), ("gammaincinv", sc.gammaincinv, 0.3)):
        t0 = perf_counter()
        for _ in range(_REFERENCE_CALLS):
            fn(20.5, arg)
        out[f"reference.{name}_us"] = 1e6 * (perf_counter() - t0) / _REFERENCE_CALLS
    return out


def _gibbs_variant(args) -> str:
    _state, _release, prior, mode, _rng = args[:5]
    return f"gibbs.sweep.{prior.kind}_{mode.value}"


def _add_result(counter, _args, result):
    counter.extra += result


def _count_failed_rep(counter, _args, result):
    if result is None:
        counter.extra += 1


def install(tracer: Tracer, bytes_out: list):
    """Wrap the package's layer boundaries; bytes_out[0] collects CLI output size."""
    w = tracer.wrap
    kernel_errors = {"count_errors": SamplingError}
    for module in (gibbs, augmented):
        w(module, "sample_trunc_normal", "distributions.trunc_normal", **kernel_errors)
    for module in (gibbs, augmented, regression, distributions):
        w(module, "sample_trunc_gamma", "distributions.trunc_gamma", **kernel_errors)
    w(gibbs, "sample_tgm", "distributions.tgm", **kernel_errors)
    for module in (gibbs, regression):
        w(module, "sample_inverse_gaussian", "distributions.inverse_gaussian", **kernel_errors)

    w(gibbs, "gibbs_step", _gibbs_variant)
    w(augmented, "augmented_sweep", lambda a: f"augmented.sweep.n{a[1].n}", on_exit=_add_result)
    w(regression, "moment_model", "regression.moment_model")
    w(regression, "nearest_psd", "regression.nearest_psd")
    w(regression, "regression_stats_feasible", "feasible.stats")
    w(regression, "regression_theta_feasible", "feasible.theta")

    for module in (cli, harness):
        w(module, "run_chain", "gibbs.chain", span=True,
          attrs=lambda a: {"iters": a[3].iters, "n": a[0].n})
        w(module, "run_augmented_chain", "augmented.chain", span=True,
          attrs=lambda a: {"iters": a[2].iters, "n": a[0].n})
    w(cli, "run_regression_chain",
      lambda a: f"regression.chain.{'constrained' if a[2] else 'unconstrained'}",
      span=True, attrs=lambda a: {"iters": a[3].iters}, count_errors=StuckChainError)

    w(harness, "_one_rep", "harness.rep", span=True,
      attrs=lambda a: {"n": a[0].n, "mode": a[0].mode, "rep": a[1]},
      on_exit=_count_failed_rep)
    w(harness, "generate_dataset", "harness.dataset")
    w(harness, "release", "release")
    w(harness, "hpd_interval", "summary.hpd")
    w(harness, "kde_mode", "summary.kde")
    w(harness, "run_grid", "harness.grid", span=True)
    w(cli, "main", lambda a: f"cli.{a[0][0]}", span=True, attrs=lambda a: {"argv": a[0]})

    write = cli._write_text

    def counting_write(path, text):
        bytes_out[0] += len(text)
        return write(path, text)

    tracer.replace(cli, "_write_text", counting_write)


def _per_call(tracer: Tracer, name: str, scale: float, corrected: bool = False) -> float:
    c = tracer.get(name)
    if not c.calls:
        return 0.0
    seconds = tracer.corrected_total(name) if corrected else c.self_s
    return scale * seconds / c.calls


def _span_iters(tracer: Tracer, name: str) -> int:
    return sum(s[6]["iters"] for s in tracer.spans if s[2] == name)


def metrics(tracer: Tracer, bytes_out: int, ess_rates: dict, overhead_s: float,
            overhead_share: float) -> tuple[dict, dict]:
    """(per-layer metrics, extra figures used only to reconcile with ROADMAP)."""
    out = {name: 0.0 for name in PER_LAYER}
    for k in _KERNELS:
        name = f"distributions.{k}"
        out[f"{name}.calls"] = tracer.get(name).calls
        out[f"{name}.us_per_call"] = _per_call(tracer, name, 1e6)
        out["distributions.sampling_errors"] += tracer.get(name).errors
    for v in _COLLAPSED:
        out[f"gibbs.sweep_us.{v}"] = _per_call(tracer, f"gibbs.sweep.{v}", 1e6, corrected=True)
    iters = _span_iters(tracer, "gibbs.chain")
    if iters:
        out["gibbs.chain_self_us_per_iter"] = 1e6 * tracer.get("gibbs.chain").self_s / iters
    for n in _AUG_SIZES:
        name = f"augmented.sweep.n{n}"
        c = tracer.get(name)
        out[f"augmented.sweep_us.n{n}"] = _per_call(tracer, name, 1e6, corrected=True)
        if c.calls:
            out[f"augmented.accept_rate.n{n}"] = c.extra / (c.calls * n)

    constrained_iters = 0
    failures = []
    for m in _REG_MODES:
        name = f"regression.chain.{m}"
        iters = _span_iters(tracer, name)
        if iters:
            out[f"regression.iter_us.{m}"] = 1e6 * tracer.corrected_total(name) / iters
        if m == "constrained":
            constrained_iters = iters
        out["regression.stuck_chains"] += tracer.get(name).errors
        failures += [s[4] - s[3] for s in tracer.spans if s[2] == name and s[5] is not None]
    reg_iters = sum(_span_iters(tracer, f"regression.chain.{m}") for m in _REG_MODES)
    out["regression.moment_model.us_per_call"] = _per_call(tracer, "regression.moment_model", 1e6)
    if reg_iters:
        out["regression.nearest_psd.calls_per_iter"] = \
            tracer.get("regression.nearest_psd").calls / reg_iters
    if constrained_iters:
        out["regression.stats_attempts_per_iter"] = \
            tracer.get("feasible.stats").calls / constrained_iters
        out["regression.theta_attempts_per_iter"] = \
            tracer.get("feasible.theta").calls / constrained_iters
    if failures:
        out["regression.s_per_failure"] = sum(failures) / len(failures)

    out["release.us_per_call"] = _per_call(tracer, "release", 1e6)
    out["summary.hpd.us_per_call"] = _per_call(tracer, "summary.hpd", 1e6)
    out["summary.kde.us_per_call"] = _per_call(tracer, "summary.kde", 1e6)
    out["harness.rep_ms"] = _per_call(tracer, "harness.rep", 1e3, corrected=True)
    out["harness.self_ms_per_rep"] = _per_call(tracer, "harness.rep", 1e3)
    out["harness.rep_errors"] = tracer.get("harness.rep").extra
    for c in ("infer", "regress", "simulate"):
        out[f"cli.self_ms.{c}"] = _per_call(tracer, f"cli.{c}", 1e3)
    out["cli.bytes_out"] = bytes_out
    for name, value in ess_rates.items():
        if name in out:
            out[name] = value
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_share"] = overhead_share

    extra = {"summary.hpd_plus_kde_ms": (out["summary.hpd.us_per_call"]
                                         + out["summary.kde.us_per_call"]) / 1e3
             if tracer.get("summary.kde").calls else 0.0}
    rep = tracer.get("harness.rep")
    n100 = [s[4] - s[3] for s in tracer.spans
            if s[2] == "harness.rep" and s[6]["n"] == 100 and s[5] is None]
    if n100:
        nested_per_rep = rep.nested_calls / rep.calls
        extra["harness.rep_ms.n100"] = 1e3 * (sum(n100) / len(n100)
                                              - tracer.wrapper_cost * nested_per_rep)
    return out, extra


def reconcile(values: dict) -> list[dict]:
    """Compare measured layer costs with the ROADMAP baseline table."""
    rows = []
    for row, metric, baseline in ROADMAP_BASELINE:
        measured = values.get(metric, 0.0)
        if not measured:
            continue
        ratio = measured / baseline
        rows.append({"row": row, "metric": metric, "roadmap": baseline,
                     "measured": measured, "ratio": ratio,
                     "verdict": "agrees" if abs(ratio - 1.0) <= RECONCILE_TOLERANCE
                     else "disagrees"})
    return rows
