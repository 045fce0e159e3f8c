"""The determinism contract as a gate: tests/digests.py must print tests/digests.txt."""

import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


@pytest.mark.slow
def test_digests_match_the_committed_file():
    from digests import versions  # adds this checkout's src to sys.path, as the script does

    expected = (HERE / "digests.txt").read_text().splitlines()
    if expected[0] != versions():
        pytest.skip(f"digests.txt holds {expected[0][2:]}; this is {versions()[2:]}")
    out = subprocess.run([sys.executable, str(HERE / "digests.py")], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out == expected
