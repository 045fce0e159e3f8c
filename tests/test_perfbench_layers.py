"""The benchmark can still rebind every name it wraps, and the digest script still imports.

perfbench/layers.py wraps package functions by module attribute, for
example ``dpgibbs.augmented.sample_trunc_gamma``, and perfbench/run.py's
Observer rebinds the samplers and harness steps that the untraced run
watches.  A rename that removes one of them breaks ``perfbench/run.py``
but nothing else, and a caller that stops reaching one through its module
attribute zeroes a per-layer metric without failing.  Likewise
``tests/digests.py``, which pytest does not collect, imports private names
of the package and of tests/oracles.py.
"""

import sys
from importlib import resources
from pathlib import Path

import numpy as np

import dpgibbs.augmented as augmented
import dpgibbs.cli as cli
import dpgibbs.harness as harness
import dpgibbs.regression as regression
from dpgibbs.gibbs import SamplerConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TESTS = Path(__file__).resolve().parent


def _layers_and_tracer():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers, Tracer()


def test_layers_install_and_uninstall():
    layers, tracer = _layers_and_tracer()
    originals = (augmented.sample_trunc_gamma, cli.main, cli._write_text)
    try:
        layers.install(tracer, [0])
        assert augmented.sample_trunc_gamma is not originals[0]
    finally:
        tracer.uninstall()
    assert (augmented.sample_trunc_gamma, cli.main, cli._write_text) == originals


def test_regression_wraps_count_calls():
    # nearest_psd runs only on iterations whose [X Y]'[X Y] is not PD, so its wrap is
    # checked against a count of every run of its body, however the caller reached it
    path = resources.files("dpgibbs").joinpath("data/demo_regression.csv")
    data = regression.ingest_and_rescale(*cli._read_csv(str(path), 2)[1])
    layers, tracer = _layers_and_tracer()
    code, runs = regression.nearest_psd.__code__, []
    try:
        layers.install(tracer, [0])
        sys.setprofile(lambda frame, event, _: event == "call" and frame.f_code is code
                       and runs.append(frame))
        for eps, release_seed, constrained in ((0.1, 1, False), (10.0, 0, True)):
            rel = regression.release_regression(data, eps, np.random.default_rng(release_seed))
            regression.run_regression_chain(rel, regression.RegPriors.default(), constrained,
                                            SamplerConfig(iters=20, seed=1, burn_in=0))
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    assert tracer.get("regression.moment_model").calls == 40  # once per iteration
    assert tracer.get("regression.nearest_psd").calls == len(runs) > 0
    assert tracer.get("feasible.stats").calls >= 20
    assert tracer.get("feasible.theta").calls >= 20


def test_observer_install_and_uninstall():
    rebound = {cli: ("run_chain", "run_augmented_chain", "run_regression_chain"),
               harness: ("run_chain", "run_augmented_chain", "generate_dataset", "release",
                         "hpd_interval", "kde_mode")}
    originals = {(m, name): getattr(m, name) for m, names in rebound.items() for name in names}
    path = list(sys.path)
    try:
        sys.path.insert(0, str(PERFBENCH))
        import run
    finally:
        sys.path[:] = path
    observer = run.Observer()
    try:
        observer.install()
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn, name
    finally:
        observer.patches.uninstall()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn, name


def test_digest_script_imports():
    path = list(sys.path)
    try:
        sys.path.insert(0, str(TESTS))
        import digests
    finally:
        sys.path[:] = path
    assert callable(digests.main)
