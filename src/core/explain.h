// EXPLAIN ANALYZE for a join run: one report joining the whitebox phase
// profile (JoinResult::profile, recorded on every run; its hardware-counter
// columns only while observability is enabled), the run's NUMA task-steal
// matrix (JoinResult::tasks), and the metrics-counter deltas of the run
// (budget ladder, compaction, steals, allocations) into a human-readable
// table and a `mmjoin.report.v1` JSON object (validated by
// `scripts/check_metrics.py --kind=report`). Surfaced by
// `run_join --explain` [--explain-json=PATH].
//
// The steal matrix comes from the result, so it is exactly the run's own.
// The counter delta is computed from two MetricsRegistry::SnapshotMap()
// calls bracketing the run, so whatever family a subsystem exports shows up
// without this module knowing its name -- but the snapshots are
// process-global, so the counter section covers a *time window*, not a
// single join. When only one join runs inside the window (run_join, the
// benches) the delta is exact; when joins overlap (service::JoinService
// lanes), counters incremented by concurrently running jobs land in every
// overlapping report. The service takes the before/after pair per job to
// keep each window as tight as one job, and SERVICE.md documents the
// residual overlap semantics.

#ifndef MMJOIN_CORE_EXPLAIN_H_
#define MMJOIN_CORE_EXPLAIN_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "join/join_defs.h"
#include "util/status.h"

namespace mmjoin::core {

struct ExplainReport {
  std::string algorithm;
  uint64_t build_size = 0;
  uint64_t probe_size = 0;
  int threads = 0;
  // matches/checksum/times/profile, and the steal matrix in result.tasks
  join::JoinResult result;

  // after - before over MetricsRegistry::SnapshotMap(); zero deltas and
  // counters that only existed before are dropped.
  std::map<std::string, uint64_t> counters;
};

ExplainReport BuildExplainReport(
    std::string_view algorithm, const join::JoinResult& result,
    uint64_t build_size, uint64_t probe_size, int threads,
    const std::map<std::string, uint64_t>& counters_before,
    const std::map<std::string, uint64_t>& counters_after);

// The human-readable table (phase breakdown, steal matrix, counter deltas).
std::string FormatExplainText(const ExplainReport& report);

// {"schema":"mmjoin.report.v1",...}; phase ns totals in the JSON are the
// PhaseProfile sums verbatim (asserted by tests/telemetry_test.cc).
std::string ExplainReportJson(const ExplainReport& report);
Status WriteExplainJson(const ExplainReport& report, const std::string& path);

}  // namespace mmjoin::core

#endif  // MMJOIN_CORE_EXPLAIN_H_
