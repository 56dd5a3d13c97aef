// CHTJ -- Concise Hash Table join (Barber et al., PVLDB 2014; paper
// Section 3.2).
//
// Build: the build input is radix-partitioned on the *hash-bucket prefix*
// into one partition per bitmap region, so each thread bulk-loads a disjoint
// region of the global CHT with no synchronization. Probe: exactly like
// NOP -- each thread probes its chunk of S against the read-only global CHT.
// Although the build uses partitioning, the algorithm is classified as
// no-partitioning: partitions never form independent co-group joins.

#include <algorithm>
#include <utility>
#include <vector>

#include "hash/concise_table.h"
#include "join/internal.h"
#include "numa/system.h"
#include "partition/radix.h"
#include "thread/thread_team.h"
#include "util/bits.h"

namespace mmjoin::join::internal {

StatusOr<JoinResult> RunChtJoin(numa::NumaSystem* system,
                                const JoinConfig& config, ConstTupleSpan build,
                                ConstTupleSpan probe) {
  const int num_threads = config.num_threads;

  if (BuildAllocFailpoint()) return InjectedAllocError("build");

  // Allocate + prefault all working memory before timing (buffer-manager
  // assumption, Section 5.1).
  hash::ConciseHashTable table(system, build.size(),
                               numa::Placement::kInterleavedPages);

  // One radix partition per bitmap region; regions are group-aligned (64
  // buckets), so cap the region count accordingly.
  const uint64_t num_groups = table.num_buckets() / 64;
  const uint64_t regions = std::min<uint64_t>(
      NextPowerOfTwo(static_cast<uint64_t>(num_threads)), num_groups);
  const uint32_t region_bits = FloorLog2(regions);
  const uint32_t bucket_bits = FloorLog2(table.num_buckets());
  const partition::RadixFn region_fn{
      /*shift=*/bucket_bits - region_bits, /*bits=*/region_bits};
  const uint64_t buckets_per_region = table.num_buckets() >> region_bits;

  if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<Tuple> partitioned,
      TryBuffer<Tuple>(system, build.size(),
                       numa::Placement::kInterleavedPages,
                       "CHTJ partition buffer"));
  // Each partitioned tuple's bucket: MarkBits writes it, Place reads it.
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<uint64_t> bucket_of,
      TryBuffer<uint64_t>(system, build.size(),
                          numa::Placement::kInterleavedPages,
                          "CHTJ bucket map"));
  partition::RadixOptions options;
  options.fn = region_fn;
  options.use_swwcb = true;
  options.num_threads = num_threads;
  partition::GlobalRadixPartitioner partitioner(
      system, options, build,
      TupleSpan(partitioned.data(), partitioned.size()));

  std::vector<std::vector<Tuple>> overflows(num_threads);
  std::vector<ThreadStats> stats(num_threads);
  MatchSink* sink = config.sink;
  JoinAbort abort;
  RunClock clock(num_threads);

  const Status dispatch_status = ExecutorOf(config).Dispatch(
      num_threads, [&](const thread::WorkerContext& ctx) {
    const int tid = ctx.thread_id;
    thread::Barrier& barrier = *ctx.barrier;
    const int node = system->topology().NodeOfThread(tid, num_threads);

    // --- Build: partition by hash prefix, then bulk-load regions. ---
    {
      obs::PhaseScope scope(clock.profiler(), tid,
                            obs::JoinPhase::kPartitionPass1);
      partition::GlobalRadixPartitioner* const pass[] = {&partitioner};
      partition::RunGlobalPass(pass, tid, node, barrier);
    }

    {
      obs::PhaseScope scope(clock.profiler(), tid, obs::JoinPhase::kBuild);
      const partition::PartitionLayout& layout = partitioner.layout();
      for (uint64_t region = tid; region < regions;
           region += static_cast<uint64_t>(num_threads)) {
        const uint64_t begin = layout.PartitionBegin(
            static_cast<uint32_t>(region));
        const uint64_t size =
            layout.PartitionSize(static_cast<uint32_t>(region));
        const hash::ConciseHashTable::BuildRegion bucket_range{
            region * buckets_per_region, (region + 1) * buckets_per_region};
        table.MarkBits(
            ConstTupleSpan(partitioned.data() + begin, size), bucket_range,
            bucket_of.data() + begin, &overflows[tid]);
      }
      barrier.ArriveAndWait();

      if (tid == 0) {
        table.FinalizePrefix();
        std::vector<Tuple> merged;
        for (auto& overflow : overflows) {
          merged.insert(merged.end(), overflow.begin(), overflow.end());
        }
        table.SetOverflow(std::move(merged));
      }
      barrier.ArriveAndWait();

      for (uint64_t region = tid; region < regions;
           region += static_cast<uint64_t>(num_threads)) {
        const uint64_t begin = layout.PartitionBegin(
            static_cast<uint32_t>(region));
        const uint64_t size =
            layout.PartitionSize(static_cast<uint32_t>(region));
        table.Place(ConstTupleSpan(partitioned.data() + begin, size),
                    bucket_of.data() + begin);
      }
    }
    // Probe-phase scratch: check the failpoint before the barrier so every
    // thread still arrives, unwind after it.
    if (tid == 0 && ProbeAllocFailpoint()) {
      abort.Set(InjectedAllocError("probe"));
    }
    barrier.ArriveAndWait();
    if (abort.IsSet()) return;
    if (tid == 0) clock.MarkBuildEnd();

    // --- Probe (NOP-style). Each CHT lookup needs two dependent random
    // accesses: bitmap group, then dense array.
    obs::PhaseScope scope(clock.profiler(), tid, obs::JoinPhase::kProbe);
    const thread::Range s_range =
        thread::ChunkRange(probe.size(), num_threads, tid);
    system->CountRead(node, probe.data() + s_range.begin,
                      s_range.size() * sizeof(Tuple));
    ProbeRange(table, probe.data(), s_range.begin, s_range.end,
               config.build_unique, sink, tid, &stats[tid]);
    system->CountRead(node, partitioned.data(),
                      s_range.size() * 2 * kCacheLineSize);
  });
  MMJOIN_RETURN_IF_ERROR(dispatch_status);
  if (abort.IsSet()) return abort.status();

  JoinResult result = ReduceStats(stats.data(), num_threads);
  clock.Finish(&result);
  return result;
}

}  // namespace mmjoin::join::internal
