"""Set-up probe: import the CLI in a fresh interpreter and make one warm-up call.

run.py times this whole process, from start to exit.  Usage:
    python3 perfbench/setup_probe.py '<JSON list of CLI arguments>'
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dpgibbs.cli  # noqa: E402  (numpy and scipy load here)

sys.exit(dpgibbs.cli.main(json.loads(sys.argv[1])))
