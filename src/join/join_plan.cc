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

// Default radix bits give every thread at least this many partitions:
// Equation (1) sizes partitions to the cache but not to the workers, and a
// plan with fewer tasks than threads leaves threads idle in build and probe.
constexpr uint64_t kMinPartitionsPerThread = 8;

// Every worker's table is charged at least this much: even a tiny partition
// costs about a page of table space.
constexpr uint64_t kMinScratchBytes = 4096;

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
    bits = std::max(
        partition::PredictRadixBits(std::max<uint64_t>(build_tuples, 1),
                                    sizing.space, config.num_threads, cache),
        CeilLog2(kMinPartitionsPerThread *
                 static_cast<uint64_t>(config.num_threads)));
  }
  bits = std::min(bits, max_useful_bits);

  // Memory at `b` radix bits and `waves` spill waves: a two-pass plan's
  // pass-1 mid buffers, the R partition output, the resident slice of the
  // S partition output, and every worker's build table (an array table's
  // slots, ceil(domain / 2^b), do not depend on skew). Each table is
  // charged at least kMinScratchBytes.
  const bool array = plan.table == RadixTable::kArray;
  const uint64_t units = array ? key_domain : build_tuples;
  const uint64_t headroom = array ? 1 : kSkewHeadroom;
  const auto bytes_at = [&](uint32_t b, uint32_t waves) {
    const uint64_t mid =
        two_pass ? (build_tuples + probe_tuples) * sizeof(Tuple) : 0;
    const uint64_t table =
        sizing.bytes_for(CeilDiv(units, uint64_t{1} << b) * headroom);
    return mid +
           (build_tuples + CeilDiv(probe_tuples, waves)) * sizeof(Tuple) +
           static_cast<uint64_t>(config.num_threads) *
               std::max(table, kMinScratchBytes);
  };

  // Under a bounded budget the plan degrades until it fits. Unless pinned,
  // radix bits escalate while the plan is over budget and another bit
  // still shrinks it: past the scratch floor a bit buys no memory and only
  // fragments the partitions.
  const uint64_t budget =
      config.budget != nullptr ? config.budget->budget_bytes() : 0;
  const auto fits = [&](uint32_t b) {
    return budget == 0 || bytes_at(b, 1) <= budget;
  };
  const uint32_t base_bits = bits;
  const auto escalate = [&] {
    uint32_t b = base_bits;
    const uint32_t max_bits = std::min<uint32_t>(24, max_useful_bits);
    while (config.radix_bits == 0 && b < max_bits && !fits(b) &&
           bytes_at(b + 1, 1) < bytes_at(b, 1)) {
      ++b;
    }
    return b;
  };
  bits = escalate();
  // A two-pass plan that does not fit in one wave drops to one pass: that
  // frees the mid buffers, and spill waves need the one-pass layout.
  const bool dropped_pass2 = two_pass && !fits(bits);
  if (dropped_pass2) {
    two_pass = false;
    bits = escalate();
  }
  plan.planned_bytes = bytes_at(bits, 1);
  if (!fits(bits)) {
    // Spill waves: everything but the probe side's partition output stays
    // resident; the probe side shrinks by 1/waves. Over budget even at
    // kMaxSpillWaves, the plan is infeasible: planned_bytes reports that
    // smallest plan, and the run's reservation rejects it.
    const uint64_t resident =
        plan.planned_bytes - probe_tuples * sizeof(Tuple);
    plan.planned_bytes = bytes_at(bits, kMaxSpillWaves);
    if (plan.planned_bytes > budget) return plan;
    plan.wave_count = static_cast<uint32_t>(
        CeilDiv(probe_tuples, (budget - resident) / sizeof(Tuple)));
    plan.planned_bytes = bytes_at(bits, plan.wave_count);
  }
  // Only a feasible plan reports its budget decisions: an infeasible one
  // returned above, and its reservation rejects the run.
  plan.budget_dropped_pass2 = dropped_pass2;
  plan.bits_replanned = bits != base_bits;

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
  if (config.budget != nullptr) {
    plan.budget_bytes = config.budget->budget_bytes();
  }
  return plan;
}

}  // namespace mmjoin::join::internal
