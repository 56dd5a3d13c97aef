// Morsel-wise pipeline driver over the exec:: operator set.
//
// A Pipeline is Source -> [Operator...] -> Sink. Run() executes it on the
// persistent thread::Executor: each worker pulls chunk-sized morsels from
// the source and pushes them through the operator chain, with a per-thread
// ChunkCompactor at every boundary into a non-filter consumer (transforms
// and the sink) deciding chunk-by-chunk whether to pass through or gather
// sparse chunks into dense ones (docs/PIPELINE.md).
//
// Plans containing a HashJoinProbe are split at the join: the upstream
// segment materializes the probe relation (the join is a pipeline breaker),
// the wrapped join algorithm runs with its own parallelism, and the
// downstream segment executes inside the join's worker threads, fed from
// the match stream via MatchSink::ConsumeChunk. At most one HashJoinProbe
// per pipeline; bushy plans chain pipelines through JoinIndexMaterialize /
// JoinIndexScan (examples/bushy_join.cc).

#ifndef MMJOIN_EXEC_PIPELINE_H_
#define MMJOIN_EXEC_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "exec/compaction.h"
#include "exec/operator.h"
#include "exec/operators.h"
#include "join/join_defs.h"
#include "numa/system.h"
#include "thread/executor.h"
#include "util/status.h"

namespace mmjoin::exec {

struct PipelineConfig {
  int num_threads = 4;
  // Boundary density threshold (exec::ChunkCompactor): chunks below it are
  // gathered into dense buffers. < 0 selects kDefaultCompactionThreshold;
  // 0 disables compaction; 1 buffers every non-full chunk.
  double compaction_threshold = -1.0;
  // nullptr falls back to the process-wide pool (thread::GlobalExecutor()).
  thread::Executor* executor = nullptr;

  double ResolvedThreshold() const {
    return compaction_threshold < 0.0 ? kDefaultCompactionThreshold
                                      : compaction_threshold;
  }
};

struct PipelineStats {
  uint64_t source_rows = 0;    // rows pulled out of the source
  uint64_t source_chunks = 0;  // morsels pulled out of the source
  uint64_t pre_join_rows = 0;  // rows materialized as the join's probe side
  uint64_t join_matches = 0;   // match rows delivered by the join
  uint64_t sink_chunks = 0;    // chunks crossing the final (sink) boundary
  uint64_t sink_rows = 0;      // live rows crossing the sink boundary
  // Compaction accounting summed over every boundary and worker
  // (exec.* counters, docs/OBSERVABILITY.md):
  uint64_t boundary_chunks_in = 0;  // chunks arriving at any boundary
  uint64_t boundary_rows_in = 0;    // live rows arriving at any boundary
  uint64_t chunks_emitted = 0;
  uint64_t rows_compacted = 0;
  uint64_t compaction_flushes = 0;
  int64_t pre_join_ns = 0;  // stage A: scan .. probe materialization
  int64_t join_ns = 0;      // stage B: join + post-join segment + drain
  int64_t total_ns = 0;     // pre_join_ns + join_ns, end to end
  bool has_join = false;
  join::JoinResult join_result;  // valid only when has_join
};

class Pipeline {
 public:
  // Non-owning: source, operators, and sink must outlive the pipeline.
  Pipeline(Source* source, std::vector<Operator*> ops, Sink* sink);

  // Executes the plan. On success the sink has been Finish()ed and holds
  // the query result; the stats describe the run. A failing source
  // dispatch, join or Sink::Finish (the probe materialization in front of
  // a join included) fails the run with that Status. The embedded join's
  // memory budget is its HashJoinProbe::Spec::config.mem_budget_bytes.
  StatusOr<PipelineStats> Run(numa::NumaSystem* system,
                              const PipelineConfig& config);

 private:
  Source* source_;
  // read-only after construction
  std::vector<Operator*> ops_;
  Sink* sink_;
};

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_PIPELINE_H_
