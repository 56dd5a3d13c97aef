// Chunked parallel radix partitioning (CPRL/CPRA, paper Section 6.1,
// Figures 4(c) and 4(d)).
//
// Unlike the global variant there is no histogram merge and no global
// offsets: each thread radix-partitions its own input chunk *into its own
// same-sized output chunk* using only its local histogram. Because the
// output array is placed chunked-round-robin over NUMA nodes (matching the
// thread placement), every partition write is node-local -- the algorithm
// trades the global variant's small random remote writes for large
// sequential remote reads in the join phase.
//
// A partition is then the union of per-chunk fragments; ChunkedLayout
// records fragment offsets so the join phase can iterate a partition across
// all chunks.

#ifndef MMJOIN_PARTITION_CHUNKED_H_
#define MMJOIN_PARTITION_CHUNKED_H_

#include <cstdint>
#include <vector>

#include "numa/system.h"
#include "partition/radix.h"
#include "util/types.h"

namespace mmjoin::partition {

struct ChunkedLayout {
  uint32_t num_partitions = 0;
  int num_chunks = 0;
  // fragment_offsets[c * P + p] = first output index of chunk c's fragment
  // of partition p; fragment ends where the next fragment begins
  // (fragment_sizes keeps the length explicitly).
  std::vector<uint64_t> fragment_offsets;
  std::vector<uint64_t> fragment_sizes;

  uint64_t FragmentOffset(int chunk, uint32_t p) const {
    return fragment_offsets[static_cast<std::size_t>(chunk) * num_partitions +
                            p];
  }
  uint64_t FragmentSize(int chunk, uint32_t p) const {
    return fragment_sizes[static_cast<std::size_t>(chunk) * num_partitions +
                          p];
  }
  uint64_t PartitionSize(uint32_t p) const {
    uint64_t total = 0;
    for (int c = 0; c < num_chunks; ++c) total += FragmentSize(c, p);
    return total;
  }
};

// Orchestrates chunked partitioning: the global pass's kernel
// (CountPartitions, ScatterPartitions) with the start cursors taken from
// the thread's local prefix sum. There is no cross-thread offset phase --
// callers only need one barrier after PartitionChunk before consuming the
// layout.
class ChunkedRadixPartitioner {
 public:
  ChunkedRadixPartitioner(numa::NumaSystem* system,
                          const RadixOptions& options, ConstTupleSpan input,
                          TupleSpan output);

  // Runs histogram + local scatter for thread `tid`'s chunk.
  void PartitionChunk(int tid, int thread_node);

  const ChunkedLayout& layout() const { return layout_; }

 private:
  numa::NumaSystem* system_;
  RadixOptions options_;
  ConstTupleSpan input_;
  TupleSpan output_;
  ChunkedLayout layout_;
};

}  // namespace mmjoin::partition

#endif  // MMJOIN_PARTITION_CHUNKED_H_
