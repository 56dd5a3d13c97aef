// Multi-way merging of sorted runs (MWAY's bandwidth-saving merge step,
// paper Section 3.3).
//
// K sorted runs are merged in one pass, so large sorts touch DRAM once for
// the merge instead of log2(K) times. The merge is a binary tree of merge
// nodes over the runs, after Balkesen et al.: leaves are the runs, read in
// place; every internal node except the root owns a FIFO buffer and, when
// it is empty, refills it by merging its two children's outputs with the
// 8+8 bitonic kernel (bitonic.h); the root merges straight into the output.
// A node only merges what is safe to emit: while a child may still produce
// more, only the words up to the smaller of the children's last buffered
// words. There is no end-of-run sentinel, so every 64-bit value, including
// ~0, merges like any other.
//
// The FIFOs are sized from the cache: together the K - 2 of them fit the
// given cache size (MWAY passes the sorting thread's share of the LLC,
// from partition::CacheSpec), each rounded down to a power of two, at
// most half a run and never below kMinFifoWords. Each word then crosses
// log2(K) cache-resident merge levels and DRAM only twice, once when read
// from its run and once when written out.

#ifndef MMJOIN_SORT_MULTIWAY_MERGE_H_
#define MMJOIN_SORT_MULTIWAY_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace mmjoin::sort {

struct SortedRun {
  const uint64_t* data;
  std::size_t size;
};

// Shortest FIFO a merge tree uses, in words: a few kernel blocks, so that a
// refill always amortises its bookkeeping.
inline constexpr std::size_t kMinFifoWords = 64;

// Merges `runs` into `out` (sized to the sum of run sizes). Unsigned packed
// order. Allocates the tree's workspace per call, with FIFOs sized for the
// paper machine's per-thread LLC share (512 KB, from partition::CacheSpec's
// defaults); callers that know the host's caches and own spare memory use
// MultiwayMergeSigned.
void MultiwayMerge(std::span<const SortedRun> runs, uint64_t* out);

// FIFO length, in words, of a tree over `num_runs` runs of `run_size` words
// whose FIFOs together fit `cache_bytes` (see the header comment).
std::size_t MergeFifoWords(std::size_t num_runs, std::size_t run_size,
                           uint64_t cache_bytes);

// Words of workspace a tree over `num_runs` runs needs with FIFOs of
// `fifo_words`: the FIFOs plus three cursor words per internal node and one
// per run. Zero for fewer than two runs.
std::size_t MergeWorkspaceWords(std::size_t num_runs, std::size_t fifo_words);

// MWAY's merge. `data` holds n words as ceil(n / run_size) runs laid out
// back to back, each sorted in signed order and `run_size` long (the last
// may be shorter). Merges them into `out` (n words) in signed order. The
// tree's FIFOs and cursors live in `workspace`, which holds at least
// MergeWorkspaceWords(runs, fifo_words) words; nothing is allocated. `out`,
// `data` and `workspace` must not overlap.
void MultiwayMergeSigned(const int64_t* data, std::size_t n,
                         std::size_t run_size, int64_t* out,
                         std::span<uint64_t> workspace,
                         std::size_t fifo_words);

}  // namespace mmjoin::sort

#endif  // MMJOIN_SORT_MULTIWAY_MERGE_H_
