// Planning for all thirteen joins. Internal; not part of the public API.
//
// PlanJoin turns an algorithm, its JoinConfig and the input shape into a
// JoinPlan before anything is allocated: the bytes the run holds, sized by
// its tables' and buffers' own BytesFor, which RunJoin reserves once
// (docs/ROBUSTNESS.md "Memory budgets"). The nine partition-based joins are
// one algorithm with three choices (paper Sections 3.1, 6.1-6.2) --
// partitioner, build table, task order -- and their plans also fix radix
// bits, passes and spill waves for radix_join.cc; NOP, NOPA, CHTJ and MWAY
// leave those fields at their defaults. Under a bounded budget a radix plan
// degrades until it fits: escalate radix bits, drop two-pass to one-pass,
// split the probe side into spill waves -- or stay over budget, and the
// run's reservation rejects it.

#ifndef MMJOIN_JOIN_JOIN_PLAN_H_
#define MMJOIN_JOIN_JOIN_PLAN_H_

#include <cstdint>

#include "join/join_defs.h"
#include "partition/model.h"

namespace mmjoin::join::internal {

enum class RadixPartitioner {
  kGlobalOnePass,  // global histogram, one pass (PRO/PRL/PRA + iS)
  kGlobalTwoPass,  // global pass 1, per-partition serial pass 2 (PRB)
  kChunked,        // chunk-local, no global histogram (CPRL/CPRA)
};

enum class RadixTable { kChained, kLinear, kArray };

enum class TaskOrder {
  kSequential,        // ascending partition index
  kRoundRobinByNode,  // one partition per NUMA node in turn (the iS variants)
  kChunkBlocks,       // contiguous blocks of partitions per queue shard
};

// Upper bound on spill waves: beyond it the per-wave partitioning overhead
// dominates, and a plan that needs more is infeasible.
inline constexpr uint32_t kMaxSpillWaves = 64;

struct JoinPlan {
  RadixPartitioner partitioner = RadixPartitioner::kGlobalOnePass;
  RadixTable table = RadixTable::kChained;
  bool use_swwcb = true;
  TaskOrder order = TaskOrder::kSequential;

  uint32_t radix_bits = 1;  // final partitions = 2^radix_bits
  uint32_t pass1_bits = 1;  // == radix_bits unless two-pass
  uint32_t wave_count = 1;  // > 1: the probe side runs in spill waves
  // Array tables: key slots per partition, ceil(domain / 2^radix_bits);
  // 0 when the key domain is unknown.
  uint64_t partition_domain = 0;

  // The run's tables and buffers: exactly what NOP, NOPA, CHTJ, MWAY and
  // the array radix joins allocate; for the other radix joins an upper
  // bound while no build partition exceeds the skew headroom.
  uint64_t planned_bytes = 0;

  // Budget decisions, made when the run has a bounded budget (budget_bytes
  // > 0). A plan whose planned_bytes exceed it is infeasible: RunJoin's
  // reservation rejects it. RunJoin reports the decisions as budget.replan
  // / budget.wave events.
  uint64_t budget_bytes = 0;
  bool budget_dropped_pass2 = false;  // budget.replan action=drop_pass2
  bool bits_replanned = false;        // budget.replan action=radix_bits
  bool wave_dropped_pass2 = false;    // budget.wave failpoint forced 1 pass

  bool two_pass() const {
    return partitioner == RadixPartitioner::kGlobalTwoPass;
  }
  bool chunked() const { return partitioner == RadixPartitioner::kChunked; }
};

// Plans one run of `algorithm`. `key_domain` is the exclusive key bound
// (NOPA and the array tables need it; 0 when unknown). The only side effect
// is evaluating the budget.wave failpoint for the radix joins, which forces
// spill waves.
JoinPlan PlanJoin(Algorithm algorithm, const JoinConfig& config,
                  uint64_t build_tuples, uint64_t probe_tuples,
                  uint64_t key_domain, const partition::CacheSpec& cache);

}  // namespace mmjoin::join::internal

#endif  // MMJOIN_JOIN_JOIN_PLAN_H_
