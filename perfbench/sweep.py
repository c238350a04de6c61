"""Run one workload over several seeds and summarise each metric.

From the root of a checkout::

    python3 perfbench/sweep.py --workload solve --seeds 1-10

Each run is ``perfbench/run.py`` in its own process, one after another,
for ``run_seconds`` of ``BENCHMARK.json`` with tracing off.
For every metric this prints the median over the runs and the distance
between the first and third quartiles as a share of the median, the
figures the README's reference table holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        seconds = str(json.load(fh)["run_seconds"])
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for seed in seed_list(args.seeds):
        command = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", seconds, "--trace", "0",
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit code {done.returncode}")
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(
            f"seed {seed}: correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}",
            flush=True,
        )
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    print(f"{'metric':48} {'unit':>6} {'median':>14} {'iqr/median':>10}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print(f"{name:48} {units[name]:>6} {median:14.6g} {spread:10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
