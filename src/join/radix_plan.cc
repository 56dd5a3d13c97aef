#include "join/radix_plan.h"

#include <algorithm>

#include "join/internal.h"
#include "mem/budget.h"
#include "util/bits.h"
#include "util/macros.h"

namespace mmjoin::join::internal {
namespace {

// The fixed choices of each algorithm (paper Table 2).
RadixJoinPlan ShapeOf(Algorithm algorithm) {
  using P = RadixPartitioner;
  using T = RadixTable;
  using O = TaskOrder;
  const auto shape = [](P partitioner, T table, bool swwcb, O order) {
    RadixJoinPlan plan;
    plan.partitioner = partitioner;
    plan.table = table;
    plan.use_swwcb = swwcb;
    plan.order = order;
    return plan;
  };
  switch (algorithm) {
    case Algorithm::kPRB:
      return shape(P::kGlobalTwoPass, T::kChained, false, O::kSequential);
    case Algorithm::kPRO:
      return shape(P::kGlobalOnePass, T::kChained, true, O::kSequential);
    case Algorithm::kPRL:
      return shape(P::kGlobalOnePass, T::kLinear, true, O::kSequential);
    case Algorithm::kPRA:
      return shape(P::kGlobalOnePass, T::kArray, true, O::kSequential);
    case Algorithm::kPROiS:
      return shape(P::kGlobalOnePass, T::kChained, true, O::kRoundRobinByNode);
    case Algorithm::kPRLiS:
      return shape(P::kGlobalOnePass, T::kLinear, true, O::kRoundRobinByNode);
    case Algorithm::kPRAiS:
      return shape(P::kGlobalOnePass, T::kArray, true, O::kRoundRobinByNode);
    case Algorithm::kCPRL:
      return shape(P::kChunked, T::kLinear, true, O::kChunkBlocks);
    case Algorithm::kCPRA:
      return shape(P::kChunked, T::kArray, true, O::kChunkBlocks);
    default:
      MMJOIN_CHECK(false && "not a partition-based join");
      return {};
  }
}

partition::TableSpaceSpec SpaceOf(RadixTable table) {
  switch (table) {
    case RadixTable::kChained:
      return partition::kChainedSpace;
    case RadixTable::kLinear:
      return partition::kLinearSpace;
    case RadixTable::kArray:
      return partition::kArraySpace;
  }
  return partition::kChainedSpace;
}

}  // namespace

RadixJoinPlan PlanRadixJoin(Algorithm algorithm, const JoinConfig& config,
                            uint64_t build_tuples, uint64_t probe_tuples,
                            uint64_t key_domain,
                            const partition::CacheSpec& cache) {
  RadixJoinPlan plan = ShapeOf(algorithm);
  bool two_pass = plan.two_pass();
  if (!plan.chunked() && config.num_passes != 0) {
    two_pass = config.num_passes == 2;
  }

  // Never create more partitions than build tuples.
  const uint32_t max_useful_bits =
      std::max<uint32_t>(CeilLog2(std::max<uint64_t>(build_tuples, 2)), 1);
  uint32_t bits = config.radix_bits;
  if (bits == 0) {
    bits = partition::PredictRadixBits(std::max<uint64_t>(build_tuples, 1),
                                       SpaceOf(plan.table),
                                       config.num_threads, cache);
  }
  bits = std::min(bits, max_useful_bits);

  // Budget planning: escalate radix bits, drop two-pass to one-pass, split
  // the probe side into spill waves -- or reject.
  if (config.budget != nullptr && config.budget->bounded()) {
    partition::MemoryPlanInput in;
    in.build_tuples = build_tuples;
    in.probe_tuples = probe_tuples;
    in.num_threads = config.num_threads;
    in.base_bits = std::max<uint32_t>(bits, 1);
    in.max_bits =
        std::max(in.base_bits, std::min<uint32_t>(24, max_useful_bits));
    in.bits_fixed = config.radix_bits != 0;
    in.scratch_total_bytes =
        plan.table == RadixTable::kArray
            ? partition::kArraySpace.bytes_per_tuple *
                  static_cast<double>(std::max<uint64_t>(key_domain, 1))
            : SpaceOf(plan.table).bytes_per_tuple *
                  static_cast<double>(build_tuples);
    in.budget_bytes = config.budget->budget_bytes();

    // A two-pass plan that does not fit in one wave drops to one pass
    // first: that frees the pass-1 mid buffers, and spill waves need the
    // single-pass layout anyway.
    partition::MemoryPlan memory;
    while (true) {
      in.fixed_overhead_bytes =
          two_pass ? (build_tuples + probe_tuples) * sizeof(Tuple) : 0;
      memory = partition::PlanMemoryBudget(in);
      if (!two_pass || (memory.wave_count == 1 && memory.feasible)) break;
      two_pass = false;
      plan.budget_dropped_pass2 = true;
    }
    plan.budgeted = true;
    plan.budget_bytes = in.budget_bytes;
    plan.planned_bytes = memory.planned_bytes;
    if (!memory.feasible) {
      plan.feasible = false;
      return plan;
    }
    plan.bits_replanned = memory.replanned;
    bits = memory.radix_bits;
    plan.wave_count = memory.wave_count;
  }

  // Failpoint: force the spill-wave path (budget or not) so tests drive it
  // deterministically.
  if (WaveBudgetFailpoint()) {
    if (two_pass) {
      two_pass = false;
      plan.wave_dropped_pass2 = true;
    }
    plan.wave_count = std::max<uint32_t>(plan.wave_count, 2);
  }
  if (probe_tuples == 0) plan.wave_count = 1;

  if (!plan.chunked()) {
    plan.partitioner = two_pass ? RadixPartitioner::kGlobalTwoPass
                                : RadixPartitioner::kGlobalOnePass;
  }
  plan.radix_bits = bits;
  plan.pass1_bits = two_pass ? (bits + 1) / 2 : bits;
  plan.partition_domain =
      key_domain == 0 ? 0 : CeilDiv(key_domain, uint64_t{1} << bits);
  return plan;
}

}  // namespace mmjoin::join::internal
