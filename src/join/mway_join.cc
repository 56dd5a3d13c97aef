// MWAY -- multi-way sort-merge join (Balkesen et al., PVLDB 2013; paper
// Section 3.3).
//
// 1. Range-partition both inputs on the high key bits into one partition per
//    thread slot (single pass, SWWCB + non-temporal streaming), so
//    co-partitions cover disjoint key ranges.
// 2. Sort each co-partition: generate cache-sized sorted runs with the SIMD
//    bitonic merge kernels, then combine all runs in ONE multi-way merge
//    pass (saving memory round-trips vs. binary merging -- the "m-way"
//    idea).
// 3. Merge-join each sorted co-partition pair independently.

#include <algorithm>
#include <memory>
#include <vector>

#include "join/internal.h"
#include "numa/system.h"
#include "partition/radix.h"
#include "sort/bitonic.h"
#include "sort/multiway_merge.h"
#include "thread/thread_team.h"
#include "util/bits.h"

namespace mmjoin::join::internal {
namespace {

// Sorted runs of this many packed tuples fit the paper machine's L2.
constexpr std::size_t kSortRunSize = std::size_t{1} << 15;

// Sorts `data` in place: run generation + one multi-way merge through
// `scratch` (same size).
void SortMway(uint64_t* data, std::size_t n, uint64_t* scratch) {
  if (n <= kSortRunSize) {
    sort::MergeSortPacked(data, n, scratch);
    return;
  }
  std::vector<sort::SortedRun> runs;
  for (std::size_t begin = 0; begin < n; begin += kSortRunSize) {
    const std::size_t size = std::min(kSortRunSize, n - begin);
    sort::MergeSortPacked(data + begin, size, scratch + begin);
    runs.push_back(sort::SortedRun{data + begin, size});
  }
  sort::MultiwayMerge(runs, scratch);
  std::copy(scratch, scratch + n, data);
}

// Merge-joins two key-sorted packed arrays, handling duplicates on both
// sides.
template <typename Emit>
void MergeJoinSorted(const uint64_t* r, std::size_t nr, const uint64_t* s,
                     std::size_t ns, Emit&& emit) {
  std::size_t i = 0, j = 0;
  while (i < nr && j < ns) {
    const uint32_t rk = static_cast<uint32_t>(r[i] >> 32);
    const uint32_t sk = static_cast<uint32_t>(s[j] >> 32);
    if (rk < sk) {
      ++i;
    } else if (rk > sk) {
      ++j;
    } else {
      std::size_t i_end = i + 1;
      while (i_end < nr && static_cast<uint32_t>(r[i_end] >> 32) == rk) {
        ++i_end;
      }
      std::size_t j_end = j + 1;
      while (j_end < ns && static_cast<uint32_t>(s[j_end] >> 32) == sk) {
        ++j_end;
      }
      for (std::size_t a = i; a < i_end; ++a) {
        for (std::size_t b = j; b < j_end; ++b) {
          emit(UnpackTuple(r[a]), UnpackTuple(s[b]));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
}

// Packs co-partition `p` of `partitioned` into `packed` and sorts it there.
void SortPartition(const Tuple* partitioned,
                   const partition::PartitionLayout& layout, uint32_t p,
                   uint64_t* packed, uint64_t* scratch) {
  const uint64_t begin = layout.offsets[p];
  const uint64_t size = layout.PartitionSize(p);
  for (uint64_t i = 0; i < size; ++i) {
    packed[begin + i] = PackTuple(partitioned[begin + i]);
  }
  SortMway(packed + begin, size, scratch + begin);
}

}  // namespace

StatusOr<JoinResult> RunMwayJoin(numa::NumaSystem* system,
                                 const JoinConfig& config,
                                 ConstTupleSpan build, ConstTupleSpan probe,
                                 uint64_t key_domain) {
  const int num_threads = config.num_threads;

  const uint64_t domain = InferKeyDomain(build, key_domain);
  const uint32_t bits =
      FloorLog2(NextPowerOfTwo(static_cast<uint64_t>(num_threads)));
  const uint32_t domain_bits = CeilLog2(std::max<uint64_t>(domain, 2));
  const uint32_t shift = domain_bits > bits ? domain_bits - bits : 0;
  const partition::RadixFn fn{shift, bits};
  const uint32_t num_partitions = fn.num_partitions();

  if (PartitionAllocFailpoint()) return InjectedAllocError("partition");

  // Check-and-reject budget path: MWAY materializes both relations into
  // partition buffers (8 B/tuple) plus packed sort buffers and merge
  // scratch (8 B/tuple each) -- 24 B per input tuple total. The sort/merge
  // pipeline needs all of it live at once, so there is no graceful
  // degradation stage for MWAY.
  MMJOIN_ASSIGN_OR_RETURN(
      mem::BudgetReservation budget_hold,
      mem::BudgetReservation::Acquire(
          config.budget, (build.size() + probe.size()) * 24,
          "MWAY partition + sort buffers"));

  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<Tuple> r_part,
      TryBuffer<Tuple>(system, build.size(),
                       numa::Placement::kInterleavedPages,
                       "MWAY R partition buffer"));
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<Tuple> s_part,
      TryBuffer<Tuple>(system, probe.size(),
                       numa::Placement::kInterleavedPages,
                       "MWAY S partition buffer"));

  partition::RadixOptions options;
  options.fn = fn;
  options.use_swwcb = true;
  options.num_threads = num_threads;
  partition::GlobalRadixPartitioner r_partitioner(
      system, options, build, TupleSpan(r_part.data(), r_part.size()));
  partition::GlobalRadixPartitioner s_partitioner(
      system, options, probe, TupleSpan(s_part.data(), s_part.size()));

  // Packed sort buffers (key in the high 32 bits) + merge scratch. These
  // feed the sort phase (MWAY's "build"), hence the build failpoint.
  if (BuildAllocFailpoint()) return InjectedAllocError("build");
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<uint64_t> r_packed,
      TryBuffer<uint64_t>(system, build.size(),
                          numa::Placement::kInterleavedPages,
                          "MWAY R sort buffer"));
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<uint64_t> s_packed,
      TryBuffer<uint64_t>(system, probe.size(),
                          numa::Placement::kInterleavedPages,
                          "MWAY S sort buffer"));
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<uint64_t> r_scratch,
      TryBuffer<uint64_t>(system, build.size(),
                          numa::Placement::kInterleavedPages,
                          "MWAY R merge scratch"));
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<uint64_t> s_scratch,
      TryBuffer<uint64_t>(system, probe.size(),
                          numa::Placement::kInterleavedPages,
                          "MWAY S merge scratch"));

  std::vector<ThreadStats> stats(num_threads);
  MatchSink* sink = config.sink;
  JoinAbort abort;
  // Buffers above are allocated + prefaulted untimed (buffer-manager
  // assumption, Section 5.1).
  RunClock clock(num_threads);

  const Status dispatch_status = ExecutorOf(config).Dispatch(
      num_threads, [&](const thread::WorkerContext& ctx) {
    const int tid = ctx.thread_id;
    thread::Barrier& barrier = *ctx.barrier;
    const int node = system->topology().NodeOfThread(tid, num_threads);

    // --- Partition both relations. ---
    {
      obs::PhaseScope scope(clock.profiler(), tid,
                            obs::JoinPhase::kPartitionPass1);
      r_partitioner.BuildHistogram(tid);
      s_partitioner.BuildHistogram(tid);
      barrier.ArriveAndWait();
      if (tid == 0) {
        r_partitioner.ComputeOffsets();
        s_partitioner.ComputeOffsets();
      }
      barrier.ArriveAndWait();
      r_partitioner.Scatter(tid, node);
      s_partitioner.Scatter(tid, node);
      barrier.ArriveAndWait();
    }
    if (tid == 0) clock.MarkPartitionEnd();

    // --- Sort co-partitions (one partition per thread slot). ---
    const auto& r_layout = r_partitioner.layout();
    const auto& s_layout = s_partitioner.layout();
    {
      obs::PhaseScope scope(clock.profiler(), tid, obs::JoinPhase::kSort);
      for (uint32_t p = static_cast<uint32_t>(tid); p < num_partitions;
           p += static_cast<uint32_t>(num_threads)) {
        SortPartition(r_part.data(), r_layout, p, r_packed.data(),
                      r_scratch.data());
        SortPartition(s_part.data(), s_layout, p, s_packed.data(),
                      s_scratch.data());
      }
    }
    // Merge-join scratch: failpoint before the barrier, unwind after.
    if (tid == 0 && ProbeAllocFailpoint()) {
      abort.Set(InjectedAllocError("probe"));
    }
    barrier.ArriveAndWait();
    if (abort.IsSet()) return;
    if (tid == 0) clock.MarkBuildEnd();

    // --- Merge-join co-partitions. ---
    obs::PhaseScope scope(clock.profiler(), tid, obs::JoinPhase::kMerge);
    ThreadStats* local = &stats[tid];
    for (uint32_t p = static_cast<uint32_t>(tid); p < num_partitions;
         p += static_cast<uint32_t>(num_threads)) {
      const uint64_t* r_sorted = r_packed.data() + r_layout.offsets[p];
      const uint64_t* s_sorted = s_packed.data() + s_layout.offsets[p];
      system->CountRead(node, r_sorted,
                        r_layout.PartitionSize(p) * sizeof(uint64_t));
      system->CountRead(node, s_sorted,
                        s_layout.PartitionSize(p) * sizeof(uint64_t));
      if (sink == nullptr) {
        MergeJoinSorted(r_sorted, r_layout.PartitionSize(p), s_sorted,
                        s_layout.PartitionSize(p), [&](Tuple r, Tuple s) {
                          AccumulateMatch(local, r, s);
                        });
      } else {
        MatchBuffer buffer(sink, tid);
        MergeJoinSorted(r_sorted, r_layout.PartitionSize(p), s_sorted,
                        s_layout.PartitionSize(p), [&](Tuple r, Tuple s) {
                          AccumulateMatch(local, r, s);
                          buffer.Add(r, s);
                        });
      }
    }
  });
  MMJOIN_RETURN_IF_ERROR(dispatch_status);
  if (abort.IsSet()) return abort.status();

  JoinResult result = ReduceStats(stats.data(), num_threads);
  clock.Finish(&result);
  return result;
}

}  // namespace mmjoin::join::internal
