// MWAY -- multi-way sort-merge join (Balkesen et al., PVLDB 2013; paper
// Section 3.3).
//
// 1. Range-partition both inputs on the high key bits into one partition per
//    thread slot (single pass, SWWCB + non-temporal streaming), so
//    co-partitions cover disjoint key ranges.
// 2. Sort each co-partition: generate cache-sized sorted runs with the SIMD
//    bitonic merge kernels, then combine all runs in ONE multi-way merge
//    pass (saving memory round-trips vs. binary merging -- the "m-way"
//    idea) through a tree of merge nodes whose FIFOs fit the sorting
//    thread's share of the LLC.
// 3. Merge-join each sorted co-partition pair independently, reading each
//    side from whichever buffer its sort finished in.

#include <algorithm>
#include <span>
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

// The sort works in signed order (bitonic.h): each tuple is biased once,
// when it is packed, and unbiased only when a match is emitted.
constexpr uint64_t kSignBias = uint64_t{1} << 63;

// Sorts the n biased words at `data`: run generation, then one multi-way
// merge into `scratch` (same size) whose FIFOs live in `fifo_space` and
// together fit `fifo_cache_bytes`. Returns where the sorted words are:
// `data` for a single run, `scratch` otherwise.
const int64_t* SortMway(int64_t* data, std::size_t n, int64_t* scratch,
                        std::span<uint64_t> fifo_space,
                        uint64_t fifo_cache_bytes) {
  if (n <= kSortRunSize) {
    sort::MergeSortSigned(data, n, scratch);
    return data;
  }
  for (std::size_t begin = 0; begin < n; begin += kSortRunSize) {
    sort::MergeSortSigned(data + begin, std::min(kSortRunSize, n - begin),
                          scratch + begin);
  }
  const std::size_t num_runs = (n + kSortRunSize - 1) / kSortRunSize;
  const std::size_t fifo_words =
      sort::MergeFifoWords(num_runs, kSortRunSize, fifo_cache_bytes);
  sort::MultiwayMergeSigned(data, n, kSortRunSize, scratch, fifo_space,
                            fifo_words);
  return scratch;
}

// Key of a biased word, ordered like the sort orders the words.
MMJOIN_ALWAYS_INLINE int32_t SortKey(int64_t word) {
  return static_cast<int32_t>(word >> 32);
}

MMJOIN_ALWAYS_INLINE Tuple UnbiasTuple(int64_t word) {
  return UnpackTuple(static_cast<uint64_t>(word) ^ kSignBias);
}

// Merge-joins two sorted arrays of biased words, handling duplicates on
// both sides.
template <typename Emit>
void MergeJoinSorted(const int64_t* r, std::size_t nr, const int64_t* s,
                     std::size_t ns, Emit&& emit) {
  std::size_t i = 0, j = 0;
  while (i < nr && j < ns) {
    const int32_t rk = SortKey(r[i]);
    const int32_t sk = SortKey(s[j]);
    if (rk < sk) {
      ++i;
    } else if (rk > sk) {
      ++j;
    } else {
      std::size_t i_end = i + 1;
      while (i_end < nr && SortKey(r[i_end]) == rk) ++i_end;
      std::size_t j_end = j + 1;
      while (j_end < ns && SortKey(s[j_end]) == sk) ++j_end;
      for (std::size_t a = i; a < i_end; ++a) {
        for (std::size_t b = j; b < j_end; ++b) {
          emit(UnbiasTuple(r[a]), UnbiasTuple(s[b]));
        }
      }
      i = i_end;
      j = j_end;
    }
  }
}

// Packs co-partition `p` of `partitioned` into `packed`, biased, and sorts
// it; returns where the sorted words are (SortMway). Once packed, the
// partition's slice of `partitioned` is free and holds the merge tree's
// FIFOs: a tree over K runs needs fewer words than K - 1 runs hold.
const int64_t* SortPartition(Tuple* partitioned,
                             const partition::PartitionLayout& layout,
                             uint32_t p, int64_t* packed, int64_t* scratch,
                             uint64_t fifo_cache_bytes) {
  const uint64_t begin = layout.offsets[p];
  const uint64_t size = layout.PartitionSize(p);
  for (uint64_t i = 0; i < size; ++i) {
    packed[begin + i] =
        static_cast<int64_t>(PackTuple(partitioned[begin + i]) ^ kSignBias);
  }
  static_assert(sizeof(Tuple) == sizeof(uint64_t));
  const std::span<uint64_t> fifo_space(
      reinterpret_cast<uint64_t*>(partitioned + begin), size);
  return SortMway(packed + begin, size, scratch + begin, fifo_space,
                  fifo_cache_bytes);
}

}  // namespace

StatusOr<JoinResult> RunMwayJoin(numa::NumaSystem* system,
                                 const JoinConfig& config,
                                 ConstTupleSpan build, ConstTupleSpan probe,
                                 uint64_t key_domain) {
  const int num_threads = config.num_threads;

  const uint32_t bits =
      FloorLog2(NextPowerOfTwo(static_cast<uint64_t>(num_threads)));
  const uint32_t domain_bits = CeilLog2(std::max<uint64_t>(key_domain, 2));
  const uint32_t shift = domain_bits > bits ? domain_bits - bits : 0;
  const partition::RadixFn fn{shift, bits};
  const uint32_t num_partitions = fn.num_partitions();

  if (PartitionAllocFailpoint()) return InjectedAllocError("partition");

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
      numa::NumaBuffer<int64_t> r_packed,
      TryBuffer<int64_t>(system, build.size(),
                         numa::Placement::kInterleavedPages,
                         "MWAY R sort buffer"));
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<int64_t> s_packed,
      TryBuffer<int64_t>(system, probe.size(),
                         numa::Placement::kInterleavedPages,
                         "MWAY S sort buffer"));
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<int64_t> r_scratch,
      TryBuffer<int64_t>(system, build.size(),
                         numa::Placement::kInterleavedPages,
                         "MWAY R merge scratch"));
  MMJOIN_ASSIGN_OR_RETURN(
      numa::NumaBuffer<int64_t> s_scratch,
      TryBuffer<int64_t>(system, probe.size(),
                         numa::Placement::kInterleavedPages,
                         "MWAY S merge scratch"));

  // Each sorting thread's merge-tree FIFOs share its slice of the LLC, the
  // LLCt of Equation (1) (partition/model.h).
  const uint64_t fifo_cache_bytes = HostCacheSpec().llc_bytes / num_threads;
  // Where each co-partition ends up sorted (SortMway).
  std::vector<const int64_t*> r_sorted(num_partitions);
  std::vector<const int64_t*> s_sorted(num_partitions);
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
      partition::GlobalRadixPartitioner* const pass[] = {&r_partitioner,
                                                         &s_partitioner};
      partition::RunGlobalPass(pass, tid, node, barrier);
    }
    if (tid == 0) clock.MarkPartitionEnd();

    // --- Sort co-partitions (one partition per thread slot). ---
    const auto& r_layout = r_partitioner.layout();
    const auto& s_layout = s_partitioner.layout();
    {
      obs::PhaseScope scope(clock.profiler(), tid, obs::JoinPhase::kSort);
      for (uint32_t p = static_cast<uint32_t>(tid); p < num_partitions;
           p += static_cast<uint32_t>(num_threads)) {
        r_sorted[p] = SortPartition(r_part.data(), r_layout, p,
                                    r_packed.data(), r_scratch.data(),
                                    fifo_cache_bytes);
        s_sorted[p] = SortPartition(s_part.data(), s_layout, p,
                                    s_packed.data(), s_scratch.data(),
                                    fifo_cache_bytes);
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
      system->CountRead(node, r_sorted[p],
                        r_layout.PartitionSize(p) * sizeof(uint64_t));
      system->CountRead(node, s_sorted[p],
                        s_layout.PartitionSize(p) * sizeof(uint64_t));
      if (sink == nullptr) {
        MergeJoinSorted(r_sorted[p], r_layout.PartitionSize(p), s_sorted[p],
                        s_layout.PartitionSize(p), [&](Tuple r, Tuple s) {
                          AccumulateMatch(local, r, s);
                        });
      } else {
        MatchBuffer buffer(sink, tid);
        MergeJoinSorted(r_sorted[p], r_layout.PartitionSize(p), s_sorted[p],
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
