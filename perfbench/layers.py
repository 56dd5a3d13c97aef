"""Per-layer metrics: name, unit, which way is better, and which end-to-end
metric each should move, on which workload.

BENCHMARK.json lists the same names, units and directions (its format has
no room for the mapping); test_perfbench.py checks that the two agree.
"""

WORKLOADS = ("paper_uniform", "q19_pipeline", "service_mixed")

RADIX = ("PRB", "PRO", "PRL", "PRA", "CPRL", "CPRA", "PROiS", "PRLiS",
         "PRAiS")
NOPART = ("NOP", "NOPA", "CHTJ")
SORTMERGE = ("MWAY",)
ALGORITHMS = RADIX + NOPART + SORTMERGE

# Algorithms whose PhaseTimes report a nonzero phase (PR*/CPR* fold build
# into probe; MWAY maps sort to build and merge-join to probe).
PARTITIONED = RADIX + SORTMERGE
BUILT = NOPART + SORTMERGE

Q19_CONFIGS = tuple(f"{join}.{strategy}"
                    for join in ("NOP", "NOPA", "CPRL", "CPRA")
                    for strategy in ("pipelined", "joinindex"))


def class_metric(algorithm):
    if algorithm in RADIX:
        return "radix_mtps"
    if algorithm in NOPART:
        return "nopart_mtps"
    return "sortmerge_mtps"


def _layer_metrics():
    """Yields (name, unit, better, [(end_to_end_metric, workload), ...])."""
    paper = "paper_uniform"
    service = "service_mixed"
    for algorithm in ALGORITHMS:
        yield (f"core.run_ms.{algorithm}", "ms", "lower",
               [(class_metric(algorithm), paper)])
    every_setup = [("setup_s", w) for w in WORKLOADS]
    yield ("core.cold_run_ms", "ms", "lower", every_setup)

    for phase, algorithms in (("partition", PARTITIONED), ("build", BUILT),
                              ("probe", ALGORITHMS)):
        for algorithm in algorithms:
            yield (f"join.{phase}_ms.{algorithm}", "ms", "lower",
                   [(class_metric(algorithm), paper)])
    for name, better in (("join.tasks_seeded", "higher"),
                         ("join.tasks_stolen", "lower"),
                         ("join.skew_slices", "higher")):
        yield (name, "count", better,
               [("radix_mtps", paper), ("large_job_ms_p50", service)])

    for name in ("partition.global_swwcb_mtps", "partition.global_plain_mtps",
                 "partition.chunked_mtps"):
        yield (name, "Mtuple/s", "higher", [("radix_mtps", paper)])
    yield ("partition.predicted_bits", "bits", "higher",
           [("radix_mtps", paper)])

    for table in ("linear", "chained", "array", "concise"):
        for step in ("build", "probe"):
            yield (f"hash.{table}.{step}_ns_per_tuple", "ns/tuple", "lower",
                   [("nopart_mtps", paper)])
    for table in ("linear", "chained", "array"):
        for step in ("build", "probe"):
            yield (f"hash.{table}.part.{step}_ns_per_tuple", "ns/tuple",
                   "lower", [("radix_mtps", paper)])

    yield ("sort.run_gen_mtps", "Mtuple/s", "higher",
           [("sortmerge_mtps", paper)])
    yield ("sort.merge_mtps", "Mtuple/s", "higher",
           [("sortmerge_mtps", paper)])

    for name, unit in (("thread.dispatches_per_op", "count"),
                       ("thread.barrier_wait_share", "share"),
                       ("thread.idle_share", "share"),
                       ("thread.threads_spawned", "count")):
        yield (name, unit, "lower",
               [("radix_mtps", paper), ("large_job_ms_p50", service)])

    for name, unit in (("mem.allocs_per_op", "count"),
                       ("mem.mmap_per_op", "count"),
                       ("mem.huge_fallback_share", "share"),
                       ("mem.peak_mb", "MB")):
        yield (name, unit, "lower",
               [(metric, w) for metric in ("peak_rss_mb", "setup_s")
                for w in WORKLOADS])

    for name in ("numa.remote_read_share", "numa.remote_write_share"):
        yield (name, "share", "lower", [("radix_mtps", paper)])

    yield ("workload.gen_s", "s", "lower", every_setup)
    yield ("tpch.gen_s", "s", "lower", every_setup)

    for config in Q19_CONFIGS:
        yield (f"tpch.query_ms.{config}", "ms", "lower",
               [("q19_ms", "q19_pipeline")])
    yield ("tpch.filter_share", "share", "lower",
           [("q19_ms", "q19_pipeline")])

    yield ("exec.chunks_per_query", "count", "lower",
           [("q19_ms", "q19_pipeline")])
    yield ("exec.rows_compacted_per_query", "count", "lower",
           [("q19_ms", "q19_pipeline")])
    yield ("exec.boundary_fill_pct", "%", "higher",
           [("q19_ms", "q19_pipeline")])

    service_targets = [("small_job_ms_p95", service),
                       ("service_jobs_per_s", service)]
    for name, unit, better in (("service.submit_us_p50", "us", "lower"),
                               ("service.queue_wait_ms_p50", "ms", "lower"),
                               ("service.queue_wait_ms_p95", "ms", "lower"),
                               ("service.run_ms_p50", "ms", "lower"),
                               ("service.solo_ms.small", "ms", "lower"),
                               ("service.solo_ms.large", "ms", "lower"),
                               ("service.peak_running", "count", "higher"),
                               ("service.rejected", "count", "lower")):
        yield (name, unit, better, service_targets)

    yield ("obs.trace_overhead_pct", "%", "lower",
           [("radix_mtps", "paper_uniform"), ("q19_ms", "q19_pipeline"),
            ("service_jobs_per_s", "service_mixed")])


LAYER_METRICS = list(_layer_metrics())

# The end-to-end metric obs.trace_overhead_pct compares, per workload.
HEADLINE = {
    "paper_uniform": "radix_mtps",
    "q19_pipeline": "q19_ms",
    "service_mixed": "service_jobs_per_s",
}
