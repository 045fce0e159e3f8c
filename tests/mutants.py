"""Apply known bugs to a copy of the package and check that the joint gates catch them.

    python tests/mutants.py

Each mutant is a set of exact text substitutions in ``src/``.  The script copies
``src/`` and ``tests/`` into a temporary directory, applies one mutant there, and runs
pytest on GATES; a mutant is caught when a gate fails.  The unmutated copy runs
first and must pass.  The repository itself is never modified.

The gate is the latent-value sampler's successive-conditional test, about a
minute and a half per run.  This script is not part of the test suite: pytest
collects only ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATES = ["tests/test_augmented.py::TestJointDistribution"]

MUTANTS = {
    "scale move's Jacobian off by one power of c": [
        ("src/dpgibbs/augmented.py",
         "power = 1.0 - (prior.nu0 / 2.0 + 1.5)",
         "power = 2.0 - (prior.nu0 / 2.0 + 1.5)"),
    ],
    "shift move without its [0, 1] bounds check": [
        ("src/dpgibbs/augmented.py",
         "    if constrained and not (sigma_sq <= m * (1.0 - m)\n"
         "                            and lo + (off + d) >= 0.0 and hi + (off + d) <= 1.0):\n",
         "    if constrained and not sigma_sq <= m * (1.0 - m):\n"),
    ],
    "NIG sigma_sq shape (n + nu0)/2 without the kappa0 (mu - mu0)^2/2 term": [
        ("src/dpgibbs/gibbs.py",
         "shape = (n + prior.nu0 + 1.0) / 2.0",
         "shape = (n + prior.nu0) / 2.0"),
        ("src/dpgibbs/gibbs.py",
         "\n                + prior.kappa0 * (mu - prior.mu0) ** 2) / 2.0",
         ") / 2.0"),
    ],
}


def mutate(copy: Path, edits) -> None:
    for rel, old, new in edits:
        path = copy / rel
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"{rel}: the text to replace occurs {text.count(old)} times:\n{old}")
        path.write_text(text.replace(old, new))


def failing_tests(copy: Path) -> list[str]:
    """Node ids of the gates' failed tests in the copy."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *GATES],
        cwd=copy, env=env, capture_output=True, text=True)
    if out.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {out.returncode}:\n{out.stdout}\n{out.stderr}")
    return [line.split()[1] for line in out.stdout.splitlines() if line.startswith("FAILED ")]


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="dpgibbs-mutants-"))
    survivors = 0
    try:
        for i, (name, edits) in enumerate([("none (unmutated copy)", [])]
                                          + list(MUTANTS.items())):
            copy = work / str(i)
            for part in ("src", "tests"):
                shutil.copytree(ROOT / part, copy / part,
                                ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "pyproject.toml", copy)
            mutate(copy, edits)
            failed = failing_tests(copy)
            if not edits and failed:
                raise SystemExit(f"the unmutated copy fails: {failed}")
            survivors += bool(edits) and not failed
            print(f"{name}: {'caught by ' + ', '.join(failed) if failed else 'not caught'}",
                  flush=True)
    finally:
        shutil.rmtree(work)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
