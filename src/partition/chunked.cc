#include "partition/chunked.h"

#include "partition/kernel.h"
#include "thread/thread_team.h"

namespace mmjoin::partition {

ChunkedRadixPartitioner::ChunkedRadixPartitioner(numa::NumaSystem* system,
                                                 const RadixOptions& options,
                                                 ConstTupleSpan input,
                                                 TupleSpan output)
    : system_(system), options_(options), input_(input), output_(output) {
  MMJOIN_CHECK(input.size() == output.size());
  layout_.num_partitions = options.fn.num_partitions();
  layout_.num_chunks = options.num_threads;
  layout_.fragment_offsets.assign(
      static_cast<std::size_t>(options.num_threads) * layout_.num_partitions,
      0);
  layout_.fragment_sizes.assign(layout_.fragment_offsets.size(), 0);
}

void ChunkedRadixPartitioner::PartitionChunk(int tid, int thread_node) {
  const thread::Range range =
      thread::ChunkRange(input_.size(), options_.num_threads, tid);
  const ConstTupleSpan chunk = input_.subspan(range.begin, range.size());
  const std::size_t row = static_cast<std::size_t>(tid) *
                          layout_.num_partitions;
  uint64_t* sizes = &layout_.fragment_sizes[row];
  uint64_t* offsets = &layout_.fragment_offsets[row];
  CountPartitions(chunk, options_.fn, sizes);

  // Local prefix sum inside this thread's output chunk.
  uint64_t running = range.begin;
  for (uint32_t p = 0; p < layout_.num_partitions; ++p) {
    offsets[p] = running;
    running += sizes[p];
  }
  MMJOIN_CHECK(running == range.end);

  ScatterPartitions(chunk, options_.fn, offsets, options_.use_swwcb,
                    output_.data(), system_, thread_node);
}

}  // namespace mmjoin::partition
