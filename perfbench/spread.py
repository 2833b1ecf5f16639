#!/usr/bin/env python3
"""Seed-to-seed spread of the end-to-end metrics, against BENCHMARK.json.

Runs ``run.py --trace 0`` once per seed and prints, per workload and
metric, the median and the quartile spread ``(Q3 - Q1) / median`` next to
the metric's bound (the acceptance rule: spread within the bound, except
``setup_s``; aim for a third of it)::

    python3 perfbench/spread.py --workloads loaded_cell --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=True,
            )
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            if not report["correct"] or report["failed"]:
                print(f"{workload} seed {seed}: incorrect run\n{proc.stderr}")
                return 1
            for name in bounds:
                values[name].append(report["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{name}={values[name][-1]:.5g}" for name in bounds), flush=True)
        for name, series in values.items():
            median = statistics.median(series)
            q1, __, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
            print(f"  {workload:<18}{name:<18} median={median:<12.6g} "
                  f"spread={share:.4f} bound={bounds[name]} ({share / bounds[name]:.0%} of bound)")
    print(f"worst spread / bound (setup_s excluded): {worst:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
