"""The traced benchmark run can still rebind every name it wraps.

perfbench/layers.py wraps package functions by module attribute, for
example ``dpgibbs.augmented.sample_trunc_gamma``; a rename that removes
one of them breaks ``perfbench/run.py --trace 1`` but nothing else.
"""

import sys
from pathlib import Path

import dpgibbs.augmented as augmented
import dpgibbs.cli as cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layers_install_and_uninstall():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import layers
        from tracing import Tracer
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = (augmented.sample_trunc_gamma, cli.main, cli._write_text)
    tracer = Tracer()
    try:
        layers.install(tracer, [0])
        assert augmented.sample_trunc_gamma is not originals[0]
    finally:
        tracer.uninstall()
    assert (augmented.sample_trunc_gamma, cli.main, cli._write_text) == originals
