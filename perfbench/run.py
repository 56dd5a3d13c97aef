#!/usr/bin/env python3
"""The mmjoin benchmark: one command per workload.

    python3 perfbench/run.py --workload paper_uniform --seed 1 \
        --seconds 30 --trace 0

Builds perfbench/mmjoin_perf from the checkout's sources (under
.bench_build/), runs it once, checks that it reported no failed or wrong
operation, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
The line before it records the seed, nproc, page policy, huge-page
fallback share, build type and error rate of the run.

Exit codes: 0 on success, 1 when the build fails or any operation failed
or returned a wrong result, 2 for an unknown or malformed flag.

Seed 9001 is the holdout: do not tune on it; a claimed gain must also hold
there.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

import layers
import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")
BINARY = os.path.join(CMAKE_DIR, "mmjoin_perf")
HOLDOUT_SEED = 9001

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def parse_args(argv):
    """Strict flag parsing: argparse exits 2 on an unknown, missing,
    abbreviated or malformed flag."""

    def bounded_int(low, high):
        def parse(text):
            value = int(text)
            if not low <= value <= high:
                raise argparse.ArgumentTypeError(
                    f"{value} outside [{low}, {high}]")
            return value
        return parse

    parser = argparse.ArgumentParser(
        description="mmjoin benchmark (see BENCHMARK.json)",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True,
                        choices=layers.WORKLOADS)
    parser.add_argument("--seed", required=True,
                        type=bounded_int(0, 2**63 - 1))
    parser.add_argument("--seconds", required=True, type=bounded_int(1, 60))
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="self-check: perturb every expected result, "
                             "which must make the run fail")
    return parser.parse_args(argv)


def build():
    """Configures once, then builds mmjoin_perf incrementally."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmake = shutil.which("cmake")
    if cmake is None:
        raise RuntimeError("cmake not found")
    configured = any(os.path.exists(os.path.join(CMAKE_DIR, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run([cmake, "-S", HERE, "-B", CMAKE_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    subprocess.run([cmake, "--build", CMAKE_DIR, "--target", "mmjoin_perf",
                    "-j", "4"],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)


def measure(args):
    """Runs the binary; returns its raw report (perfbench/report.h)."""
    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        spans_dir = os.path.join(BUILD_DIR, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command.append("--spans-out=" + os.path.join(
            spans_dir, f"{args.workload}-seed{args.seed}.json"))
    if args.corrupt_expected:
        command.append("--corrupt-expected")
    # Per-job info lines from the service would flood stderr.
    env = dict(os.environ, MMJOIN_LOG_LEVEL="warn")
    result = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                            text=True, timeout=RUN_TIMEOUT_S)
    lines = result.stdout.strip().splitlines()
    if result.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"mmjoin_perf exited with {result.returncode}")
    return json.loads(lines[-1])


def end_to_end(raw, prefix=""):
    """The end-to-end metrics computable from `raw`'s samples under
    `prefix`, by name."""
    samples = raw["samples"]
    values = raw["values"]
    out = {}

    def class_mtps(algorithms):
        tuples = values["paper.tuples"]
        return stats.geomean([
            tuples / (stats.median(samples[f"{prefix}core.run_ms.{a}"]) * 1e3)
            for a in algorithms])

    if f"{prefix}core.run_ms.PRB" in samples:
        out["radix_mtps"] = class_mtps(layers.RADIX)
        out["nopart_mtps"] = class_mtps(layers.NOPART)
        out["sortmerge_mtps"] = class_mtps(layers.SORTMERGE)
    if f"{prefix}tpch.query_ms.NOP.pipelined" in samples:
        out["q19_ms"] = stats.geomean([
            stats.median(samples[f"{prefix}tpch.query_ms.{config}"])
            for config in layers.Q19_CONFIGS])
    if f"{prefix}service.jobs" in values:
        out["service_jobs_per_s"] = (values[f"{prefix}service.jobs"] /
                                     values[f"{prefix}service.wall_s"])
        small = samples[f"{prefix}service.small_job_ms"]
        out["small_job_ms_p50"] = stats.median(small)
        out["small_job_ms_p95"] = stats.percentile(small, 95)
        out["large_job_ms_p50"] = stats.median(
            samples[f"{prefix}service.large_job_ms"])
    if "setup_s" in samples:
        out["setup_s"] = stats.median(samples["setup_s"])
    out["peak_rss_mb"] = values["peak_rss_mb"]
    return out


def trace_overhead_pct(raw, workload, better):
    """How much slower the traced headline traffic ran than the untraced,
    in percent of the untraced cost."""
    metric = layers.HEADLINE[workload]
    untraced = end_to_end(raw, "untraced/")[metric]
    traced = end_to_end(raw)[metric]
    ratio = traced / untraced if better[metric] == "lower" else \
        untraced / traced
    return (ratio - 1) * 100


def per_layer(raw, name):
    samples = raw["samples"]
    values = raw["values"]
    if name in values:
        return values[name]
    if name in samples:
        return stats.median(samples[name])
    match = re.fullmatch(r"(.*)_p(\d+)", name)
    if match and match.group(1) in samples:
        base, p = match.group(1), int(match.group(2))
        return stats.median(samples[base]) if p == 50 else \
            stats.percentile(samples[base], p)
    raise KeyError(f"no measurement for per-layer metric {name}")


def compute_metrics(spec, raw, args):
    """BENCHMARK.json's end_to_end (untraced) or per_layer (traced) metrics,
    as {name: {"value", "unit"}}."""
    if args.trace:
        listed = spec["per_layer"]
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        computed = {m["name"]: per_layer(raw, m["name"]) for m in listed
                    if m["name"] != "obs.trace_overhead_pct"}
        computed["obs.trace_overhead_pct"] = trace_overhead_pct(
            raw, args.workload, better)
    else:
        listed = spec["end_to_end"]
        computed = end_to_end(raw)
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
            for m in listed}


def main(argv):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    errors = (OSError, RuntimeError, KeyError, ValueError, ZeroDivisionError,
              subprocess.SubprocessError)
    try:
        build()
        raw = measure(args)
        rate = stats.error_rate(raw["failed"], raw["attempted"])
    except errors as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    correct = raw["failed"] == 0
    try:
        metrics = compute_metrics(spec, raw, args)
    except errors as error:
        print(f"perfbench: {type(error).__name__}: {error}", file=sys.stderr)
        if correct:
            return 1
        metrics = {}  # failed operations left nothing to reduce

    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    env = dict(raw["env"], error_rate=rate, holdout_seed=HOLDOUT_SEED)
    print("# env " + json.dumps(env, sort_keys=True))
    if not correct:
        print(f"perfbench: {raw['failed']} of {raw['attempted']} operations "
              "failed or returned a wrong result", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
