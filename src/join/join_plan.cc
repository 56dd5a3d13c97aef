#include "join/join_plan.h"

#include <algorithm>

#include "hash/array_table.h"
#include "hash/chained_table.h"
#include "hash/concise_table.h"
#include "hash/linear_probing_table.h"
#include "join/internal.h"
#include "mem/budget.h"
#include "util/bits.h"
#include "util/macros.h"

namespace mmjoin::join::internal {
namespace {

// Each worker's radix hash table is planned for this many times the average
// build partition: the largest is known only after partitioning.
constexpr uint64_t kSkewHeadroom = 2;

using numa::NumaBuffer;

// The fixed choices of each radix algorithm (paper Table 2): partitioner,
// build table, SWWCB, task order.
JoinPlan ShapeOf(Algorithm algorithm) {
  using P = RadixPartitioner;
  using T = RadixTable;
  using O = TaskOrder;
  switch (algorithm) {
    case Algorithm::kPRB:
      return {P::kGlobalTwoPass, T::kChained, false, O::kSequential};
    case Algorithm::kPRO:
      return {P::kGlobalOnePass, T::kChained, true, O::kSequential};
    case Algorithm::kPRL:
      return {P::kGlobalOnePass, T::kLinear, true, O::kSequential};
    case Algorithm::kPRA:
      return {P::kGlobalOnePass, T::kArray, true, O::kSequential};
    case Algorithm::kPROiS:
      return {P::kGlobalOnePass, T::kChained, true, O::kRoundRobinByNode};
    case Algorithm::kPRLiS:
      return {P::kGlobalOnePass, T::kLinear, true, O::kRoundRobinByNode};
    case Algorithm::kPRAiS:
      return {P::kGlobalOnePass, T::kArray, true, O::kRoundRobinByNode};
    case Algorithm::kCPRL:
      return {P::kChunked, T::kLinear, true, O::kChunkBlocks};
    case Algorithm::kCPRA:
      return {P::kChunked, T::kArray, true, O::kChunkBlocks};
    default:
      MMJOIN_CHECK(false && "not a partition-based join");
      return {};
  }
}

// Per RadixTable, in enum order: the table's cache footprint for Equation
// (1), and the bytes it allocates for `units` tuples (array tables: slots).
struct TableSizing {
  partition::TableSpaceSpec space;
  uint64_t (*bytes_for)(uint64_t units);
};
constexpr TableSizing kSizing[] = {
    {partition::kChainedSpace,
     &hash::ChainedHashTable<hash::RadixShiftHash>::BytesFor},
    {partition::kLinearSpace,
     &hash::LinearProbingTable<hash::RadixShiftHash>::BytesFor},
    {partition::kArraySpace, &hash::ArrayTable::BytesFor},
};

JoinPlan PlanRadixJoin(Algorithm algorithm, const JoinConfig& config,
                       uint64_t build_tuples, uint64_t probe_tuples,
                       uint64_t key_domain,
                       const partition::CacheSpec& cache) {
  JoinPlan plan = ShapeOf(algorithm);
  const TableSizing sizing = kSizing[static_cast<int>(plan.table)];
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
                                       sizing.space,
                                       config.num_threads, cache);
  }
  bits = std::min(bits, max_useful_bits);

  // Memory: the partition buffers plus every worker's build table. Under a
  // bounded budget, escalate radix bits, drop two-pass to one-pass, split
  // the probe side into spill waves -- or give up.
  partition::MemoryPlanInput in;
  in.build_tuples = build_tuples;
  in.probe_tuples = probe_tuples;
  in.num_threads = config.num_threads;
  in.base_bits = bits;
  in.max_bits = std::max(bits, std::min<uint32_t>(24, max_useful_bits));
  in.bits_fixed = config.radix_bits != 0;
  // An array table's slots, ceil(domain / 2^bits), do not depend on skew.
  const bool array = plan.table == RadixTable::kArray;
  const uint64_t units = array ? key_domain : build_tuples;
  const uint64_t headroom = array ? 1 : kSkewHeadroom;
  in.scratch_bytes_per_worker = [sizing, units, headroom](uint32_t b) {
    return sizing.bytes_for(CeilDiv(units, uint64_t{1} << b) * headroom);
  };
  if (config.budget != nullptr) in.budget_bytes = config.budget->budget_bytes();

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
  plan.planned_bytes = memory.planned_bytes;
  if (!memory.feasible) return plan;
  plan.bits_replanned = memory.replanned;
  bits = memory.radix_bits;
  plan.wave_count = memory.wave_count;

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

}  // namespace

const partition::CacheSpec& HostCacheSpec() {
  static const partition::CacheSpec spec = partition::DetectHostCacheSpec();
  return spec;
}

JoinPlan PlanJoin(Algorithm algorithm, const JoinConfig& config,
                  uint64_t build_tuples, uint64_t probe_tuples,
                  uint64_t key_domain, const partition::CacheSpec& cache) {
  JoinPlan plan;
  // NOP, NOPA, CHTJ and MWAY allocate one indivisible working set up front.
  switch (algorithm) {
    case Algorithm::kNOP:
      plan.planned_bytes = NopLinearTable::BytesFor(build_tuples);
      break;
    case Algorithm::kNOPA:
      plan.planned_bytes = hash::ArrayTable::BytesFor(key_domain);
      break;
    case Algorithm::kCHTJ:
      // The table, the partition buffer and the bucket map.
      plan.planned_bytes = hash::ConciseHashTable::BytesFor(build_tuples) +
                           NumaBuffer<Tuple>::BytesFor(build_tuples) +
                           NumaBuffer<uint64_t>::BytesFor(build_tuples);
      break;
    case Algorithm::kMWAY:
      // Per relation: the partition buffer, the sort buffer, the merge
      // scratch.
      plan.planned_bytes = NumaBuffer<Tuple>::BytesFor(build_tuples) +
                           NumaBuffer<Tuple>::BytesFor(probe_tuples) +
                           2 * (NumaBuffer<int64_t>::BytesFor(build_tuples) +
                                NumaBuffer<int64_t>::BytesFor(probe_tuples));
      break;
    default:
      plan = PlanRadixJoin(algorithm, config, build_tuples, probe_tuples,
                           key_domain, cache);
  }
  if (config.budget != nullptr && config.budget->bounded()) {
    plan.budget_bytes = config.budget->budget_bytes();
    plan.feasible = plan.planned_bytes <= plan.budget_bytes;
  }
  return plan;
}

}  // namespace mmjoin::join::internal
