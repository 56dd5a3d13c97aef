// Planning for the nine partition-based joins. Internal; not part of the
// public API.
//
// PRB, PRO, PRL, PRA, their iS variants and CPRL/CPRA are one algorithm
// with three choices (paper Sections 3.1, 6.1-6.2): the partitioner, the
// build table, and the order join tasks are consumed in. PlanRadixJoin maps
// an algorithm, its JoinConfig and the input shape to a RadixJoinPlan;
// radix_join.cc executes any plan.

#ifndef MMJOIN_JOIN_RADIX_PLAN_H_
#define MMJOIN_JOIN_RADIX_PLAN_H_

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

struct RadixJoinPlan {
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

  // Budget decisions (docs/ROBUSTNESS.md "Memory budgets"). radix_join.cc
  // reserves `planned_bytes` when `budgeted` and reports the decisions as
  // budget.replan / budget.wave events.
  bool budgeted = false;
  bool feasible = true;       // false: reject with ResourceExhausted
  uint64_t planned_bytes = 0;
  uint64_t budget_bytes = 0;
  bool budget_dropped_pass2 = false;  // budget.replan action=drop_pass2
  bool bits_replanned = false;        // budget.replan action=radix_bits
  bool wave_dropped_pass2 = false;    // budget.wave failpoint forced 1 pass

  bool two_pass() const {
    return partitioner == RadixPartitioner::kGlobalTwoPass;
  }
  bool chunked() const { return partitioner == RadixPartitioner::kChunked; }
};

// Plans one run of `algorithm` (one of the nine partition-based joins).
// `key_domain` is the exclusive key bound (array tables need it; 0 when
// unknown). The only side effect is evaluating the budget.wave failpoint,
// which forces spill waves.
RadixJoinPlan PlanRadixJoin(Algorithm algorithm, const JoinConfig& config,
                            uint64_t build_tuples, uint64_t probe_tuples,
                            uint64_t key_domain,
                            const partition::CacheSpec& cache);

}  // namespace mmjoin::join::internal

#endif  // MMJOIN_JOIN_RADIX_PLAN_H_
