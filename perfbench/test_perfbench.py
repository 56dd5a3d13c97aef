#!/usr/bin/env python3
"""Self-checks of the benchmark's own arithmetic, flags and metric lists.
Needs no build:

    python3 perfbench/test_perfbench.py
"""

import contextlib
import io
import json
import os
import unittest

import layers
import run
import stats


class StatsTest(unittest.TestCase):

    def test_geomean(self):
        self.assertAlmostEqual(stats.geomean([1, 4, 16]), 4.0)
        self.assertAlmostEqual(stats.geomean([7.5]), 7.5)
        for bad in ([], [1, 0], [2, -1]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)

    def test_percentile_is_nearest_rank(self):
        values = list(range(200, 0, -1))  # unsorted 1..200
        self.assertEqual(stats.percentile(values, 95), 190)
        self.assertEqual(stats.percentile(values, 50), 100)

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertEqual(stats.percentile(list(range(1, 201)), 95), 190)
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1, 200)), 95)  # 9 beyond
        with self.assertRaises(ValueError):
            stats.percentile(list(range(1, 1000)), 100)

    def test_error_rate_has_attempts_as_base(self):
        self.assertEqual(stats.error_rate(0, 10), 0.0)
        self.assertEqual(stats.error_rate(3, 12), 0.25)
        with self.assertRaises(ValueError):
            stats.error_rate(0, 0)
        with self.assertRaises(ValueError):
            stats.error_rate(5, 4)

    def test_relative_spread(self):
        self.assertAlmostEqual(stats.relative_spread([10] * 10), 0.0)
        # quantiles([1..9]) = 2.5, 5, 7.5
        self.assertAlmostEqual(stats.relative_spread(range(1, 10)), 1.0)


def synthetic_raw(prefix="", run_ms=20.0):
    samples = {}
    for algorithm in layers.ALGORITHMS:
        samples[f"{prefix}core.run_ms.{algorithm}"] = [
            run_ms / 2, run_ms, run_ms * 3]
    for i, config in enumerate(layers.Q19_CONFIGS):
        samples[f"{prefix}tpch.query_ms.{config}"] = [2.0 ** i]
    samples[f"{prefix}service.small_job_ms"] = list(range(1, 201))
    samples[f"{prefix}service.large_job_ms"] = [5.0, 6.0, 7.0]
    return samples, {f"{prefix}service.jobs": 300.0,
                     f"{prefix}service.wall_s": 1.5}


class EndToEndTest(unittest.TestCase):

    def raw(self):
        samples, values = synthetic_raw()
        samples["setup_s"] = [3.0, 1.0, 2.0]
        values.update({"paper.tuples": 2e7, "peak_rss_mb": 100.0})
        return {"samples": samples, "values": values}

    def test_metrics(self):
        metrics = run.end_to_end(self.raw())
        # 2e7 tuples in a median 20 ms = 1000 M tuples per second.
        for name in ("radix_mtps", "nopart_mtps", "sortmerge_mtps"):
            self.assertAlmostEqual(metrics[name], 1000.0)
        # geomean of 2^0 .. 2^7 = 2^3.5
        self.assertAlmostEqual(metrics["q19_ms"], 2 ** 3.5)
        self.assertAlmostEqual(metrics["service_jobs_per_s"], 200.0)
        self.assertEqual(metrics["small_job_ms_p50"], 100.5)
        self.assertEqual(metrics["small_job_ms_p95"], 190)
        self.assertEqual(metrics["large_job_ms_p50"], 6.0)
        self.assertEqual(metrics["setup_s"], 2.0)
        self.assertEqual(metrics["peak_rss_mb"], 100.0)

    def test_trace_overhead(self):
        raw = self.raw()
        samples, values = synthetic_raw("untraced/", run_ms=16.0)
        raw["samples"].update(samples)
        raw["values"].update(values)
        better = {"radix_mtps": "higher", "q19_ms": "lower",
                  "service_jobs_per_s": "higher"}
        self.assertAlmostEqual(
            run.trace_overhead_pct(raw, "paper_uniform", better), 25.0)
        self.assertAlmostEqual(
            run.trace_overhead_pct(raw, "q19_pipeline", better), 0.0)

    def test_per_layer_reductions(self):
        raw = {"samples": {"service.queue_wait_ms": list(range(1, 201)),
                           "core.run_ms.NOP": [3.0, 1.0, 2.0]},
               "values": {"service.rejected": 0}}
        self.assertEqual(run.per_layer(raw, "service.queue_wait_ms_p95"), 190)
        self.assertEqual(run.per_layer(raw, "service.queue_wait_ms_p50"),
                         100.5)
        self.assertEqual(run.per_layer(raw, "core.run_ms.NOP"), 2.0)
        self.assertEqual(run.per_layer(raw, "service.rejected"), 0)
        with self.assertRaises(KeyError):
            run.per_layer(raw, "core.run_ms.PRB")


class SpecTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]),
                         layers.WORKLOADS)

    def test_per_layer_list_matches_layer_table(self):
        listed = [(m["name"], m["unit"], m["better"])
                  for m in self.spec["per_layer"]]
        self.assertEqual(listed, [m[:3] for m in layers.LAYER_METRICS])

    def test_every_layer_metric_names_what_it_moves(self):
        end_to_end = {m["name"] for m in self.spec["end_to_end"]}
        for name, _, _, targets in layers.LAYER_METRICS:
            self.assertTrue(targets, name)
            for metric, workload in targets:
                self.assertIn(metric, end_to_end, name)
                self.assertIn(workload, layers.WORKLOADS, name)
        for workload, metric in layers.HEADLINE.items():
            self.assertIn(workload, layers.WORKLOADS)
            self.assertIn(metric, end_to_end)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class FlagsTest(unittest.TestCase):

    GOOD = ["--workload", "paper_uniform", "--seed", "1", "--seconds", "10",
            "--trace", "0"]

    def exit_code(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            with self.assertRaises(SystemExit) as caught:
                run.parse_args(argv)
        return caught.exception.code

    def test_accepts_the_benchmark_flags(self):
        args = run.parse_args(self.GOOD)
        self.assertEqual((args.workload, args.seed, args.seconds, args.trace),
                         ("paper_uniform", 1, 10, 0))
        self.assertFalse(args.corrupt_expected)

    def test_rejects_unknown_and_malformed_flags(self):
        bad = [
            self.GOOD + ["--algo=NOP"],
            self.GOOD[:-2] + ["--trace", "2"],
            ["--work", "paper_uniform"] + self.GOOD[2:],
            ["--workload", "nope"] + self.GOOD[2:],
            self.GOOD[:2] + ["--seed", "abc"] + self.GOOD[4:],
            self.GOOD[:4] + ["--seconds", "0"] + self.GOOD[6:],
            self.GOOD[:4] + ["--seconds", "61"] + self.GOOD[6:],
            self.GOOD[:6],
            self.GOOD + ["extra"],
        ]
        for argv in bad:
            self.assertEqual(self.exit_code(argv), 2, argv)


if __name__ == "__main__":
    unittest.main()
