"""Spread of the end-to-end metrics over repeated benchmark runs.

Runs perfbench/run.py once per seed (or several times on one seed) and
prints, for each workload and metric, the median and the distance
between the first and third quartiles as a share of the median.  With
--record LABEL the result is also stored in perfbench/SPREAD.json under
that label, next to the sets recorded before.

    python3 perfbench/spread.py --workloads lead regress --seeds 1-10
    python3 perfbench/spread.py --workloads lead --seeds 7 --repeat 5
    python3 perfbench/spread.py --workloads lead --seeds 101-110 --record seeds_a

Exits non-zero if a run fails its output checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPREAD_FILE = HERE / "SPREAD.json"
ABOUT = ("Sets of benchmark runs made with spread.py --record.  For each set, workload "
         "and end-to-end metric: the values of the runs, their median, and the quartile "
         "spread (Q3 - Q1) / median from statistics.quantiles(values, n=4).")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: output checks failed\n{proc.stdout}")
    return result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "iqr_share": (q3 - q1) / median, "values": values}


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def record(label: str, args, report: dict):
    data = (json.loads(SPREAD_FILE.read_text()) if SPREAD_FILE.exists()
            else {"about": ABOUT, "sets": {}})
    entry = data["sets"].setdefault(label, {"workloads": {}})
    entry.update(seeds=args.seeds, repeat=args.repeat, seconds=args.seconds,
                 python=platform.python_version())
    entry["workloads"].update(report)
    SPREAD_FILE.write_text(json.dumps(data, indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--record", metavar="LABEL",
                        help="store the result in SPREAD.json under this label")
    args = parser.parse_args()
    report = {}
    for workload in args.workloads:
        values: dict = {}
        for seed in parse_seeds(args.seeds):
            for _ in range(args.repeat):
                metrics = run_once(workload, seed, args.seconds)["metrics"]
                for name, m in metrics.items():
                    values.setdefault(name, []).append(m["value"])
                print(workload, seed, {k: round(m["value"], 4) for k, m in metrics.items()},
                      file=sys.stderr, flush=True)
        report[workload] = {name: spread(v) for name, v in values.items()}
        if args.record:
            record(args.record, args, {workload: report[workload]})
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
