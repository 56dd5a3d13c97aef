#!/usr/bin/env python3
"""Checks that the benchmark is steady enough for its own bounds.

    python3 perfbench/steadiness.py [--runs 10] [--workload NAME ...]

Runs perfbench/run.py --trace 0 once per seed (seeds 1..runs) on each
workload, one run at a time, and prints per end-to-end metric the median
and the quartile spread (Q3 - Q1) / median next to the metric's bound. A
spread above the bound (setup_s exempt) fails; the target is a third of the
bound.
"""

import argparse
import json
import os
import subprocess
import sys

import layers
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=layers.WORKLOADS)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    steady = True
    for workload in args.workload or layers.WORKLOADS:
        values = {}
        for seed in range(1, args.runs + 1):
            result = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True, check=True)
            report = json.loads(result.stdout.strip().splitlines()[-1])
            for name, metric in report["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload} ({args.runs} runs)")
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            spread = stats.relative_spread(series)
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "wide" if spread <= metric["bound"] else "FAIL")
            if verdict == "FAIL" and metric["name"] != "setup_s":
                steady = False
            print(f"  {metric['name']:20s} median {stats.median(series):12.4f}"
                  f"  spread {spread:6.3f}  bound {metric['bound']:.2f}"
                  f"  {verdict:4s}  runs: "
                  + " ".join(f"{v:.4g}" for v in series))
        sys.stdout.flush()
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
