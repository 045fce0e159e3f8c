"""dpgibbs benchmark: effective draws per second through the CLI.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload lead --seed 1 --seconds 15 --trace 0

Workloads: lead, coverage, likelihood, regress (see perfbench/README.md).
Each run drives ``dpgibbs.cli.main`` in-process in a closed loop of
rounds until the commands have used about --seconds of CPU time, checks
every output, and prints one JSON object as its last line of standard
output.  Every end-to-end time is CPU time of the process that does the
work, scaled by the speed of a reference run paced through the work (see
reference.py and perfbench/README.md).
--trace 0 reports the end-to-end metrics; --trace 1 replays the same
rounds with the layer wrappers of layers.py installed and reports the
per-layer metrics and the tracing overhead.  Details of each run are
written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120
REFERENCE_SHARE = 0.05  # reference CPU seconds run per CPU second of work
COVERAGE_BAND_TAIL = 1e-6  # binomial tail below which pooled coverage fails
# Criterion 10 makes one test at 3 combined MC-SE; a run makes one test per
# release, so the limit is Bonferroni-adjusted to this false-alarm rate per run.
AGREEMENT_RUN_ALPHA = 1e-4
END_TO_END_UNITS = {"ess_per_s_location": "1/s", "ess_per_s_sigma_sq": "1/s",
                    "reps_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _fail_setup(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "dpgibbs" / "cli.py").is_file():
    _fail_setup(f"no dpgibbs sources under {ROOT / 'src'}; run from a full checkout")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
from scipy.special import ndtri  # noqa: E402

import dpgibbs.cli as cli  # noqa: E402
import dpgibbs.harness as harness  # noqa: E402
from dpgibbs.errors import DpGibbsError  # noqa: E402
from dpgibbs.feasible import (  # noqa: E402
    RegTheta, pair_feasible, regression_theta_feasible, stats_feasible)
from dpgibbs.summary import ess, mc_se  # noqa: E402

import layers  # noqa: E402
from reference import Reference  # noqa: E402
from tracing import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, Coverage  # noqa: E402


# -- observing what the samplers return ---------------------------------


class Observer:
    """Keeps the draws each sampler call returns, on the [0, 1] scale.

    Also guards the harness: a replication swallows every exception, so
    the callees are wrapped to record any exception that is not a
    DpGibbsError.  Such an exception is a bug and aborts the run.  After
    each replication's chain it paces the reference, so that a long
    ``simulate`` command has reference samples all through it.
    """

    def __init__(self):
        self.last = None
        self.rep_chains: list = []
        self.bugs: list[str] = []
        self.patches = Patches()
        self.reference = Reference(REFERENCE_SHARE)

    def install(self):
        for name in ("run_chain", "run_augmented_chain", "run_regression_chain"):
            self.patches.replace(cli, name, self._keep_last(getattr(cli, name)))
        for name in ("generate_dataset", "release", "hpd_interval", "kde_mode",
                     "run_augmented_chain"):
            self.patches.replace(harness, name, self._guard(getattr(harness, name)))
        self.patches.replace(harness, "run_chain",
                             self._guard(self._keep_rep(harness.run_chain)))

    def _keep_last(self, fn):
        def wrapper(*args, **kwargs):
            self.last = fn(*args, **kwargs)
            return self.last
        return wrapper

    def _keep_rep(self, fn):
        def wrapper(release, prior, mode, config, *args, **kwargs):
            draws = fn(release, prior, mode, config, *args, **kwargs)
            self.rep_chains.append((mode.value, release.n, draws))
            self.reference.pace()
            return draws
        return wrapper

    def _guard(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except DpGibbsError:
                raise
            except Exception:
                self.bugs.append(traceback.format_exc())
                raise
        return wrapper


# -- per-variant accounting and output checks ----------------------------


@dataclass
class VariantStats:
    seconds: float = 0.0
    ess_loc: float = 0.0
    ess_s2: float = 0.0
    attempted: int = 0
    failed: int = 0
    draws: int = 0


def read_draws(path: Path) -> dict:
    with open(path) as fh:
        fh.readline()  # format_version comment
        header = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return {name: table[:, j] for j, name in enumerate(header)}


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def binomial_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(P[X <= k], P[X >= k]) for X ~ Binomial(n, p)."""
    pmf = [math.comb(n, j) * p ** j * (1.0 - p) ** (n - j) for j in range(n + 1)]
    return sum(pmf[:k + 1]), sum(pmf[k:])


class Collector:
    """Accounts time, ESS and failures per variant and checks every output."""

    def __init__(self, workload, observer: Observer):
        self.workload = workload
        self.observer = observer
        self.stats = {v.name: VariantStats() for v in workload.variants}
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.pairs: dict = {}
        self.coverage_hits = 0
        self.coverage_reps = 0
        self.checked_draws = 0

    def fail(self, message: str):
        if len(self.failures) < 20:
            self.failures.append(message)

    def add(self, cmd, code: int, seconds: float):
        s = self.stats[cmd.variant.name]
        s.seconds += seconds
        if cmd.kind == "simulate":
            self._add_grid(cmd, code, s)
            return
        s.attempted += 1
        if code != 0:
            s.failed += 1
            self.digests.append(f"exit {code}")
            return
        self.digests.append(digest(cmd.out))
        cols = read_draws(cmd.out)
        cmd.out.unlink()
        draws = self.observer.last
        for name, col in cols.items():
            if not np.all(np.isfinite(col)):
                self.fail(f"{cmd.variant.name}: non-finite {name} draw")
        if cols[cmd.variant.loc].size != len(draws):
            self.fail(f"{cmd.variant.name}: CSV rows differ from the sampler's draws")
        if cmd.kind == "infer":
            self._check_gaussian(cmd.variant.name, draws, cmd.n, cmd.constrained)
            if cmd.pair is not None:
                self.pairs.setdefault(cmd.pair, []).append(
                    (cmd.variant.name, float(draws.mu.mean()), mc_se(draws.mu)))
        elif cmd.constrained:
            self._check_regression(cmd.variant.name, draws)
        s.ess_loc += ess(cols[cmd.variant.loc])
        s.ess_s2 += ess(cols["sigma_sq"])
        s.draws += cols[cmd.variant.loc].size

    def _check_gaussian(self, name: str, draws, n: int, constrained: bool):
        for col in (draws.mu, draws.sigma_sq, draws.ybar, draws.s_sq):
            if not np.all(np.isfinite(col)):
                self.fail(f"{name}: non-finite draw on the [0, 1] scale")
        if constrained:
            bad = sum(not pair_feasible(m, v) for m, v in zip(draws.mu, draws.sigma_sq))
            bad += sum(not stats_feasible(y, v, n) for y, v in zip(draws.ybar, draws.s_sq))
            if bad:
                self.fail(f"{name}: {bad} constrained draws outside the feasible region")
        self.checked_draws += len(draws)

    def _check_regression(self, name: str, draws):
        bad = sum(not regression_theta_feasible(RegTheta(float(t0), float(t1)))
                  for t0, t1 in zip(draws.theta0, draws.theta1))
        bad += int(np.sum(draws.sigma_sq > 0.25))
        if bad:
            self.fail(f"{name}: {bad} constrained regression draws infeasible")
        self.checked_draws += len(draws)

    def _add_grid(self, cmd, code: int, s: VariantStats):
        chains, self.observer.rep_chains = self.observer.rep_chains, []
        grid = json.loads(Path(cmd.argv[cmd.argv.index("--grid") + 1]).read_text())
        reps = sum(row["reps"] for row in grid["scenarios"])
        s.attempted += reps
        if code != 0:
            s.failed += reps
            self.digests.append(f"exit {code}")
            return
        self.digests.append(digest(cmd.out))
        lines = [ln for ln in cmd.out.read_text().splitlines() if not ln.startswith("#")]
        cmd.out.unlink()
        header = lines[0].split(",")
        for line, scenario in zip(lines[1:], grid["scenarios"]):
            row = dict(zip(header, line.split(",")))
            errors = int(row["errors"])
            s.failed += errors
            good = scenario["reps"] - errors
            if row["mode"] == "unconstrained" and good:
                self.coverage_hits += round(float(row["coverage"]) * good)
                self.coverage_reps += good
        for mode, n, draws in chains:
            self._check_gaussian(f"coverage n={n} {mode}", draws, n, mode == "constrained")
            s.ess_loc += ess(draws.mu)
            s.ess_s2 += ess(draws.sigma_sq)
            s.draws += len(draws)

    def finish_checks(self):
        if self.coverage_reps:
            lo, hi = binomial_tails(self.coverage_hits, self.coverage_reps, 0.95)
            if min(lo, hi) < COVERAGE_BAND_TAIL:
                self.fail(f"pooled unconstrained coverage {self.coverage_hits}/"
                          f"{self.coverage_reps} outside the binomial band around 0.95")
        self.max_agreement_z = 0.0
        pairs = [entries for entries in self.pairs.values() if len(entries) == 2]
        limit = -float(ndtri(AGREEMENT_RUN_ALPHA / (2 * max(len(pairs), 1))))
        for (name1, m1, se1), (name2, m2, se2) in pairs:
            z = abs(m1 - m2) / math.hypot(se1, se2)
            self.max_agreement_z = max(self.max_agreement_z, z)
            if z >= limit:
                self.fail(f"{name1} and {name2}: mu means differ by {z:.2f} combined "
                          f"MC-SE on one release (limit {limit:.2f})")

    def rates(self) -> dict:
        """Per-variant ESS rates, keyed by their per-layer metric names."""
        out = {}
        for v in self.workload.variants:
            s = self.stats[v.name]
            if v.loc_metric and s.seconds > 0:
                out[v.loc_metric] = s.ess_loc / s.seconds
                out[v.s2_metric] = s.ess_s2 / s.seconds
        return out

    def scale_seconds(self, speed: float):
        """Express every variant's seconds on the machine reference.py is scaled to."""
        for s in self.stats.values():
            s.seconds *= speed

    def totals(self) -> tuple[int, int, float]:
        attempted = sum(s.attempted for s in self.stats.values())
        failed = sum(s.failed for s in self.stats.values())
        seconds = sum(s.seconds for s in self.stats.values())
        return attempted, failed, seconds

    def harmonic_rate(self, field: str) -> float:
        rates = [getattr(s, field) / s.seconds for s in self.stats.values()]
        if min(rates) <= 0.0:
            return 0.0
        return len(rates) / sum(1.0 / r for r in rates)


# -- running -------------------------------------------------------------


def run_command(argv: list, observer: Observer) -> tuple[int, float]:
    """Run one CLI command in-process; returns its exit code and CPU seconds.

    The seconds leave out reference units paced inside the command.
    """
    observer.last = None
    paced = observer.reference.seconds
    t0 = time.process_time()
    code = cli.main(argv)  # looked up on the module so the traced run sees its wrapper
    seconds = time.process_time() - t0 - (observer.reference.seconds - paced)
    if code not in (0, 2, 3, 4):
        raise RuntimeError(f"dpgibbs {' '.join(argv)} returned {code!r}")
    if observer.bugs:
        raise RuntimeError("a harness replication raised an exception that is not a "
                           "DpGibbsError:\n" + observer.bugs[0])
    return code, seconds


def timed_loop(workload, collector: Collector, seconds: float) -> int:
    """Run whole rounds until the commands have used about `seconds`.

    Another round starts only if it would end nearer to `seconds`,
    judged by the length of the last round.  The reference is paced
    after every command.  Returns the round count.
    """
    reference = collector.observer.reference
    reference.start()
    used = 0.0
    rounds = 0
    last = 0.0
    while rounds == 0 or used + last / 2 < seconds:
        start = used
        for cmd in workload.round(rounds):
            code, dt = run_command(cmd.argv, collector.observer)
            used += dt
            collector.add(cmd, code, dt)
            reference.pace()
        last = used - start
        rounds += 1
    reference.stop()
    return rounds


def replay(workload, observer: Observer, rounds: int) -> tuple[list, float]:
    """Run rounds 0..rounds-1 again; returns their output digests and CPU time."""
    digests = []
    used = 0.0
    for i in range(rounds):
        for cmd in workload.round(i):
            code, dt = run_command(cmd.argv, observer)
            used += dt
            digests.append(digest(cmd.out) if code == 0 else f"exit {code}")
            cmd.out.unlink(missing_ok=True)
            observer.rep_chains = []
    return digests, used


def children_cpu() -> float:
    """CPU seconds used so far by the child processes that have been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(warmup_argv: list) -> list:
    """CPU seconds of each set-up probe process, from start to exit."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = children_cpu()
        proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"),
                               json.dumps(warmup_argv)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        times.append(children_cpu() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}:\n{proc.stderr}")
    return times


def check_parallel_grid(workload: Coverage, collector: Collector):
    outputs = []
    for argv in workload.parallel_grid_argvs():
        code, _ = run_command(argv, collector.observer)
        out = Path(argv[argv.index("--out") + 1])
        outputs.append(out.read_bytes() if code == 0 else None)
    collector.observer.rep_chains = []
    ok = outputs[0] is not None and outputs[0] == outputs[1]
    if not ok:
        collector.fail("grid CSV differs between --parallelism 1 and 2")
    return ok


def check_same_seed(workload, collector: Collector) -> bool:
    """Rerun the first round-0 command of each variant; its output must not change."""
    ok = True
    seen = set()
    for index, cmd in enumerate(workload.round(0)):
        if cmd.variant.name in seen:
            continue
        seen.add(cmd.variant.name)
        code, _ = run_command(cmd.argv, collector.observer)
        again = digest(cmd.out) if code == 0 else f"exit {code}"
        cmd.out.unlink(missing_ok=True)
        if again != collector.digests[index]:
            collector.fail(f"{cmd.variant.name}: the same seed gave different outputs "
                           "on a second run")
            ok = False
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work = OUT_DIR / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed)
    workload.prepare()

    setup_times = [] if args.trace else measure_setup(workload.warmup())

    observer = Observer()
    observer.install()
    run_command(workload.warmup(), observer)
    observer.rep_chains = []
    collector = Collector(workload, observer)
    rounds = timed_loop(workload, collector, args.seconds)
    collector.finish_checks()
    untraced = collector.totals()[2]
    speed = observer.reference.speed()
    collector.scale_seconds(speed)

    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": rounds, "cpu_seconds": untraced, "speed": speed,
              "python": platform.python_version(),
              "numpy": np.__version__, "machine": platform.machine()}
    if args.trace:
        tracer = Tracer()
        tracer.calibrate()
        bytes_out = [0]
        layers.install(tracer, bytes_out)
        digests, traced = replay(workload, observer, rounds)
        tracer.uninstall()
        deterministic = digests == collector.digests
        if not deterministic:
            collector.fail("traced replay gave different outputs from the untraced run")
        overhead = traced - untraced
        metrics, extra = layers.metrics(tracer, bytes_out[0], collector.rates(),
                                        overhead, overhead / untraced)
        reconciliation = layers.reconcile({**metrics, **extra, **layers.machine_reference()})
        report.update(per_layer=metrics, reconcile=reconciliation,
                      wrapper_cost_us=1e6 * tracer.wrapper_cost,
                      deterministic=deterministic)
        (work / "spans.json").write_text(json.dumps(tracer.spans_json()))
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, (unit, _better) in layers.PER_LAYER.items()}
    else:
        if isinstance(workload, Coverage):
            deterministic = check_parallel_grid(workload, collector)
        else:
            deterministic = check_same_seed(workload, collector)
        attempted, failed, seconds = collector.totals()
        metrics = {
            "ess_per_s_location": collector.harmonic_rate("ess_loc"),
            "ess_per_s_sigma_sq": collector.harmonic_rate("ess_s2"),
            "reps_per_s": (attempted - failed) / seconds,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times) * speed,
        }
        report.update(end_to_end=metrics, setup_times=setup_times,
                      failed_share=failed / attempted, deterministic=deterministic)
        result_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                          for name, value in metrics.items()}

    attempted, failed, _ = collector.totals()
    report.update(
        variants={k: vars(v) for k, v in collector.stats.items()},
        ess_rates=collector.rates(),
        checks={"failures": collector.failures, "draws_checked": collector.checked_draws,
                "coverage_unconstrained": [collector.coverage_hits, collector.coverage_reps],
                "max_agreement_z": collector.max_agreement_z},
        attempted=attempted, failed=failed)
    observer.patches.uninstall()
    (work / "report.json").write_text(json.dumps(report, indent=2))
    print_report(report)
    print(json.dumps({"correct": not collector.failures, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))
    return 0


def print_report(report: dict):
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}: "
          f"{report['rounds']} rounds, {report['attempted']} operations, "
          f"{report['failed']} failed")
    print(f"  {report['cpu_seconds']:.2f} CPU seconds at {report['speed']:.3f} times the "
          "speed of the machine reference.py is scaled to")
    for name, s in report["variants"].items():
        if s["seconds"]:
            print(f"  {name:24s} {s['seconds']:7.2f} s  ESS/s location "
                  f"{s['ess_loc'] / s['seconds']:9.1f}  sigma_sq {s['ess_s2'] / s['seconds']:9.1f}")
    location = "ess_per_s_theta1" if report["workload"] == "regress" else "ess_per_s_mu"
    for name, value in report.get("end_to_end", {}).items():
        alias = f" ({location})" if name == "ess_per_s_location" else ""
        print(f"  {name}{alias} = {value:.6g} {END_TO_END_UNITS[name]}")
    if "failed_share" in report:
        print(f"  failed_share = {report['failed_share']:.6g}")
    for row in report.get("reconcile", []):
        print(f"  ROADMAP {row['row']}: table {row['roadmap']:g}, measured "
              f"{row['measured']:.4g} ({row['verdict']}, ratio {row['ratio']:.2f})")
    print(f"  deterministic: {report['deterministic']}; check failures: "
          f"{report['checks']['failures'] or 'none'}")


if __name__ == "__main__":
    sys.exit(main())
