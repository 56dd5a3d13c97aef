// EXPLAIN ANALYZE for a join run: one report joining the whitebox phase
// profile (JoinResult::profile, recorded on every run; its hardware-counter
// columns only while observability is enabled), the NUMA task-steal matrix,
// and the metrics-counter deltas of the run (budget ladder, compaction,
// steals, allocations) into a human-readable table and a `mmjoin.report.v1`
// JSON object (validated by `scripts/check_metrics.py --kind=report`).
//
// The counter delta is computed from two MetricsRegistry::SnapshotMap()
// calls bracketing the run, so whatever family a subsystem exports shows up
// without this module knowing its name. Surfaced by `run_join --explain`
// [--explain-json=PATH].
//
// Attribution caveat for standalone use: the snapshots are process-global,
// so a report brackets a *time window*, not a single join. When only one
// join runs inside the window (run_join, the benches) the delta is exact;
// when joins overlap (service::JoinService lanes), counters incremented by
// concurrently running jobs land in every overlapping report. The service
// takes the before/after pair per job to keep each window as tight as one
// job, and SERVICE.md documents the residual overlap semantics. The NUMA
// steal matrix is cumulative for the NumaSystem's lifetime; pass a
// SnapshotStealMatrix() baseline to report per-window steal deltas instead.

#ifndef MMJOIN_CORE_EXPLAIN_H_
#define MMJOIN_CORE_EXPLAIN_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "join/join_defs.h"
#include "numa/system.h"
#include "util/status.h"

namespace mmjoin::core {

struct ExplainReport {
  std::string algorithm;
  uint64_t build_size = 0;
  uint64_t probe_size = 0;
  int threads = 0;
  join::JoinResult result;  // matches/checksum/times/profile

  // Task-steal matrix, row-major [thief_node * num_nodes + victim_node];
  // empty when no NumaSystem was supplied.
  int num_nodes = 0;
  std::vector<uint64_t> steal_matrix;
  uint64_t total_steals = 0;

  // after - before over MetricsRegistry::SnapshotMap(); zero deltas and
  // counters that only existed before are dropped.
  std::map<std::string, uint64_t> counters;
};

// Row-major [thief_node * num_nodes + victim_node] copy of the system's
// cumulative task-steal matrix (empty for nullptr). Taken before a run, it
// serves as the `steals_before` baseline below.
std::vector<uint64_t> SnapshotStealMatrix(const numa::NumaSystem* system);

// `steals_before`: optional SnapshotStealMatrix() baseline; when supplied
// (and sized num_nodes^2), the report's steal matrix is the delta across
// the run instead of the NumaSystem-lifetime cumulative counts.
ExplainReport BuildExplainReport(
    std::string_view algorithm, const join::JoinResult& result,
    uint64_t build_size, uint64_t probe_size, int threads,
    const numa::NumaSystem* system,
    const std::map<std::string, uint64_t>& counters_before,
    const std::map<std::string, uint64_t>& counters_after,
    const std::vector<uint64_t>* steals_before = nullptr);

// The human-readable table (phase breakdown, steal matrix, counter deltas).
std::string FormatExplainText(const ExplainReport& report);

// {"schema":"mmjoin.report.v1",...}; phase ns totals in the JSON are the
// PhaseProfile sums verbatim (asserted by tests/telemetry_test.cc).
std::string ExplainReportJson(const ExplainReport& report);
Status WriteExplainJson(const ExplainReport& report, const std::string& path);

}  // namespace mmjoin::core

#endif  // MMJOIN_CORE_EXPLAIN_H_
