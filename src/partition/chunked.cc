#include "partition/chunked.h"

#include <vector>

#include "mem/nt_store.h"
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
  const RadixFn fn = options_.fn;
  const uint32_t num_partitions = layout_.num_partitions;
  Tuple* out = output_.data();

  system_->CountRead(thread_node, input_.data() + range.begin,
                     range.size() * sizeof(Tuple));

  // Local histogram.
  uint64_t* sizes =
      &layout_.fragment_sizes[static_cast<std::size_t>(tid) * num_partitions];
  for (std::size_t i = range.begin; i < range.end; ++i) {
    ++sizes[fn(input_[i].key)];
  }

  // Local prefix sum inside this thread's output chunk.
  uint64_t* offsets = &layout_.fragment_offsets[static_cast<std::size_t>(tid) *
                                                num_partitions];
  uint64_t running = range.begin;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    offsets[p] = running;
    running += sizes[p];
  }
  MMJOIN_CHECK(running == range.end);

  const bool accounting = system_->accounting_enabled();

  if (!options_.use_swwcb) {
    std::vector<uint64_t> cursor(offsets, offsets + num_partitions);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const Tuple t = input_[i];
      const uint64_t pos = cursor[fn(t.key)]++;
      out[pos] = t;
      if (MMJOIN_UNLIKELY(accounting)) {
        system_->CountWrite(thread_node, out + pos, sizeof(Tuple));
      }
    }
    return;
  }

  std::vector<CacheLineBuffer> buffers(num_partitions);
  std::vector<ScatterCursor> cursors(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    cursors[p] = ScatterCursor{offsets[p], offsets[p]};
  }
  for (std::size_t i = range.begin; i < range.end; ++i) {
    const Tuple t = input_[i];
    const uint32_t p = fn(t.key);
    if (MMJOIN_UNLIKELY(accounting)) {
      const uint64_t pos = cursors[p].next;
      if ((pos & (kTuplesPerCacheLine - 1)) == kTuplesPerCacheLine - 1) {
        system_->CountWrite(thread_node,
                            out + (pos - (kTuplesPerCacheLine - 1)),
                            kCacheLineSize);
      }
    }
    SwwcbPush(out, buffers.data(), cursors.data(), p, t);
  }
  for (uint32_t p = 0; p < num_partitions; ++p) {
    if (MMJOIN_UNLIKELY(accounting)) {
      const uint64_t line_base =
          cursors[p].next & ~uint64_t{kTuplesPerCacheLine - 1};
      const uint64_t begin =
          line_base > cursors[p].start ? line_base : cursors[p].start;
      if (cursors[p].next > begin) {
        system_->CountWrite(thread_node, out + begin,
                            (cursors[p].next - begin) * sizeof(Tuple));
      }
    }
    SwwcbDrain(out, buffers.data(), cursors.data(), p);
  }
  mem::StreamFence();
}

}  // namespace mmjoin::partition
