"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/spread.py --workload fanin_read --seeds 1-10

For every end-to-end metric it prints the median, the quartiles and the
spread -- the distance between the first and third quartile as a share
of the median -- next to the metric's bound from ``BENCHMARK.json``.
A benchmark is steady when each spread (``setup_s`` aside) stays well
inside its bound.  Runs are sequential; each is a fresh process.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(seed) for seed in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric.get("bound") for metric in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        command = [
            *spec["command"],
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]),
            "--trace", "0",
        ]
        run = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
        if run.returncode != 0:
            print(run.stdout + run.stderr, file=sys.stderr)
            print(f"seed {seed}: exit code {run.returncode}", file=sys.stderr)
            return 1
        result = json.loads(run.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: run not correct: {result}", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}" for name, metric in result["metrics"].items()
        ), flush=True)

    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(
            f"{name:<32} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
            f"{'' if bound is None else bound:>6}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
