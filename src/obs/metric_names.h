// The single machine-readable registry of metric names: every counter a
// provider or AddCounter call can emit, and every histogram the process can
// create.
//
// The `registry-drift` rule of scripts/mmjoin_lint parses these X-macros and
// cross-checks them against (a) every counter/histogram name literal in
// src/ -- `AddCounter("...")`, `Metric{"..."}`, `GetHistogram("...")` -- and
// (b) the counter and histogram tables in docs/OBSERVABILITY.md. A name
// used but not registered, registered but never emitted, or registered but
// undocumented fails CI, so the exported `mmjoin.metrics.v1` vocabulary
// cannot drift from its documentation.
//
// Format rule for the lint parser: one `X("name")` per line, nothing else on
// the line except an optional trailing comment and the macro continuation.

#ifndef MMJOIN_OBS_METRIC_NAMES_H_
#define MMJOIN_OBS_METRIC_NAMES_H_

#include <string_view>

#define MMJOIN_COUNTER_REGISTRY(X)  \
  X("alloc.total_allocations")      \
  X("alloc.mmap_allocations")       \
  X("alloc.reused_mappings")        \
  X("alloc.huge_page_requests")     \
  X("alloc.huge_page_fallbacks")    \
  X("alloc.mmap_failures")          \
  X("alloc.injected_failures")      \
  X("alloc.numa_degradations")      \
  X("mem.current_bytes")            \
  X("mem.peak_bytes")               \
  X("mem.retained_bytes")           \
  X("mem.budget_reservations")      \
  X("mem.budget_rejections")        \
  X("mem.budget_replans")           \
  X("mem.budget_waves")             \
  X("mem.budget_wave_rounds")       \
  X("executor.threads_spawned")     \
  X("executor.dispatches")          \
  X("executor.barrier_wait_ns")     \
  X("executor.idle_ns")             \
  X("numa.local_read_bytes")        \
  X("numa.remote_read_bytes")       \
  X("numa.local_write_bytes")       \
  X("numa.remote_write_bytes")      \
  X("join.runs")                    \
  X("join.tasks_seeded")            \
  X("join.skew_slices")             \
  X("join.skew_partitions")         \
  X("join.tasks_stolen")            \
  X("join.steal_remote_reads")     \
  X("trace.spans_recorded")         \
  X("obs.trace_dropped_spans")      \
  X("log.events_debug")             \
  X("log.events_info")              \
  X("log.events_warn")              \
  X("log.events_error")             \
  X("log.events_suppressed")        \
  X("exec.pipelines")               \
  X("exec.boundary_chunks_in")      \
  X("exec.boundary_rows_in")        \
  X("exec.chunks_emitted")          \
  X("exec.rows_compacted")          \
  X("exec.compaction_flushes")      \
  X("service.jobs_submitted")       \
  X("service.jobs_rejected")        \
  X("service.jobs_completed")       \
  X("service.jobs_failed")

#define MMJOIN_HISTOGRAM_REGISTRY(X)    \
  X("join.latency_ns")                  \
  X("join.phase_ns.partition.pass1")    \
  X("join.phase_ns.partition.pass2")    \
  X("join.phase_ns.build")              \
  X("join.phase_ns.probe")              \
  X("join.phase_ns.sort")               \
  X("join.phase_ns.merge")              \
  X("join.phase_ns.materialize")        \
  X("join.steals_per_dispatch")         \
  X("exec.chunk_fill_pct")              \
  X("service.queue_wait_ns")            \
  X("service.job_latency_ns")

namespace mmjoin::obs {

inline constexpr std::string_view kRegisteredCounterNames[] = {
#define MMJOIN_METRIC_NAMES_ENTRY(name) name,
    MMJOIN_COUNTER_REGISTRY(MMJOIN_METRIC_NAMES_ENTRY)
#undef MMJOIN_METRIC_NAMES_ENTRY
};

inline constexpr std::string_view kRegisteredHistogramNames[] = {
#define MMJOIN_METRIC_NAMES_ENTRY(name) name,
    MMJOIN_HISTOGRAM_REGISTRY(MMJOIN_METRIC_NAMES_ENTRY)
#undef MMJOIN_METRIC_NAMES_ENTRY
};

constexpr bool IsRegisteredCounterName(std::string_view name) {
  for (const std::string_view registered : kRegisteredCounterNames) {
    if (registered == name) return true;
  }
  return false;
}

constexpr bool IsRegisteredHistogramName(std::string_view name) {
  for (const std::string_view registered : kRegisteredHistogramNames) {
    if (registered == name) return true;
  }
  return false;
}

}  // namespace mmjoin::obs

#endif  // MMJOIN_OBS_METRIC_NAMES_H_
