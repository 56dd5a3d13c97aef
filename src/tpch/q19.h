// TPC-H Q19 executors (paper Section 8, Appendices E-G).
//
// The query plan follows Figure 13: the selection on lineitem is pushed
// below the join, the join runs on <key, rowid> columns, the complex
// brand/container/quantity/size predicate is evaluated after the probe via
// positional (late-materialization) attribute accesses, and passing pairs
// are aggregated into `revenue`.
//
// TryRunQ19 executes the query with any of the four joins the paper evaluates
// (NOP, NOPA, CPRL, CPRA; any of the thirteen works). Both strategies are
// configurations of the vectorized exec:: pipeline (docs/PIPELINE.md): scan
// -> pre-filter -> HashJoinProbe -> post-filter -> revenue aggregate, with
// kJoinIndex splitting the plan at an index materializer and finishing with
// an index-scan pipeline. The pre-filter stage materializes the probe side
// before the join (exactly the paper's methodology for Figure 14).
//
// RunQ19Morph reproduces the Appendix G experiment: it morphs the naked
// join micro-benchmark stepwise into the full query and reports the runtime
// of each step.

#ifndef MMJOIN_TPCH_Q19_H_
#define MMJOIN_TPCH_Q19_H_

#include <cstdint>
#include <optional>

#include "join/join_defs.h"
#include "numa/system.h"
#include "thread/executor.h"
#include "tpch/tables.h"
#include "util/status.h"

namespace mmjoin::tpch {

struct Q19Result {
  double revenue = 0.0;
  uint64_t filtered_rows = 0;  // lineitem rows passing PreJoin
  uint64_t join_matches = 0;   // matched pairs before PostJoin
  uint64_t result_rows = 0;    // pairs passing PostJoin
  int64_t filter_ns = 0;       // scan + filter + materialize probe column
  int64_t join_ns = 0;         // everything after the filter stage (join,
                               // post-filter, aggregation, index passes)
  int64_t total_ns = 0;        // == filter_ns + join_ns (tests assert this)
};

// Tuple-reconstruction strategy for the post-join work (the paper's
// Section 10 names the cross product of joins x reconstruction strategies
// as future work; both endpoints are implemented here).
enum class Q19Strategy {
  // Matches stream through a MatchSink that evaluates PostJoin and
  // aggregates inline -- no join index (the paper's Figure 14 execution).
  kPipelined,
  // Matches are first materialized into a join index; post-filtering and
  // aggregation run as a separate parallel pass (Appendix G steps 3+4).
  kJoinIndex,
};

// Executes Q19 with the given join algorithm. All parallel phases --
// filter/materialize, the join itself, and the post-join pass -- run on
// `executor` (the process-wide pool when nullptr); no threads are spawned
// per query. Pipeline failures (injected allocation faults, budget
// rejections, a poisoned executor) surface as a Status; callers with no
// recovery path use `.value()`, which aborts with the status printed. The
// optional `mem_budget_bytes` becomes the embedded join's
// JoinConfig::mem_budget_bytes (nullopt = unbounded).
StatusOr<Q19Result> TryRunQ19(
    numa::NumaSystem* system, const LineitemTable& lineitem,
    const PartTable& part, join::Algorithm algorithm, int num_threads,
    Q19Strategy strategy = Q19Strategy::kPipelined,
    thread::Executor* executor = nullptr,
    std::optional<uint64_t> mem_budget_bytes = std::nullopt);

// Appendix G morphing steps, all with the NOP join:
//  step 1: naked join on pre-filtered, pre-materialized inputs
//  step 2: like 1, but filtering the input table dynamically during probe
//  step 3: like 2, plus materializing a join index
//  step 4: like 3, plus post-filtering and aggregating from the index
//  step 5: like 2 and 4 without a join index (the full pipelined query)
struct Q19MorphResult {
  int64_t step_ns[5] = {0, 0, 0, 0, 0};
  double revenue_step4 = 0.0;
  double revenue_step5 = 0.0;
};

// Dispatch and allocation failures (a poisoned executor, an alloc.mmap
// fault on the filtered probe column) come back as a Status.
StatusOr<Q19MorphResult> RunQ19Morph(numa::NumaSystem* system,
                                     const LineitemTable& lineitem,
                                     const PartTable& part, int num_threads,
                                     thread::Executor* executor = nullptr);

// Reference single-threaded scan-based evaluation (ground truth for tests).
double Q19Reference(const LineitemTable& lineitem, const PartTable& part);

}  // namespace mmjoin::tpch

#endif  // MMJOIN_TPCH_Q19_H_
