#include "partition/radix.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/nt_store.h"
#include "thread/thread_team.h"

namespace mmjoin::partition {

GlobalRadixPartitioner::GlobalRadixPartitioner(numa::NumaSystem* system,
                                               const RadixOptions& options,
                                               ConstTupleSpan input,
                                               TupleSpan output)
    : system_(system),
      options_(options),
      input_(input),
      output_(output),
      num_partitions_(options.fn.num_partitions()),
      hist_(static_cast<std::size_t>(options.num_threads) * num_partitions_),
      dst_(hist_.size()) {
  MMJOIN_CHECK(input.size() == output.size());
  MMJOIN_CHECK(options.num_threads >= 1);
}

void GlobalRadixPartitioner::BuildHistogram(int tid) {
  const thread::Range range =
      thread::ChunkRange(input_.size(), options_.num_threads, tid);
  // Count into a thread-private array: hist_ packs every thread's counters
  // into a few cache lines when P is small, and bumping them in place
  // false-shares those lines between threads.
  std::vector<uint64_t> hist(num_partitions_);
  const RadixFn fn = options_.fn;
  for (std::size_t i = range.begin; i < range.end; ++i) {
    ++hist[fn(input_[i].key)];
  }
  std::copy(hist.begin(), hist.end(),
            hist_.begin() + static_cast<std::ptrdiff_t>(tid) * num_partitions_);
}

void GlobalRadixPartitioner::ComputeOffsets() {
  // Global layout: partition-major; within a partition, thread-major.
  layout_.offsets.assign(num_partitions_ + 1, 0);
  uint64_t running = 0;
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    layout_.offsets[p] = running;
    for (int t = 0; t < options_.num_threads; ++t) {
      dst_[static_cast<std::size_t>(t) * num_partitions_ + p] = running;
      running += hist_[static_cast<std::size_t>(t) * num_partitions_ + p];
    }
  }
  layout_.offsets[num_partitions_] = running;
  MMJOIN_CHECK(running == input_.size());
}

void GlobalRadixPartitioner::Scatter(int tid, int thread_node) {
  const thread::Range range =
      thread::ChunkRange(input_.size(), options_.num_threads, tid);
  const RadixFn fn = options_.fn;
  uint64_t* dst = &dst_[static_cast<std::size_t>(tid) * num_partitions_];
  Tuple* out = output_.data();

  // Account the sequential read of this thread's chunk once.
  system_->CountRead(thread_node, input_.data() + range.begin,
                     range.size() * sizeof(Tuple));

  const bool accounting = system_->accounting_enabled();

  if (!options_.use_swwcb) {
    // PRB-style direct scatter: every tuple is a random write into one of P
    // pages. Thread-private cursors, like the histogram above.
    std::vector<uint64_t> cursor(dst, dst + num_partitions_);
    for (std::size_t i = range.begin; i < range.end; ++i) {
      const Tuple t = input_[i];
      const uint64_t pos = cursor[fn(t.key)]++;
      out[pos] = t;
      if (MMJOIN_UNLIKELY(accounting)) {
        system_->CountWrite(thread_node, out + pos, sizeof(Tuple));
      }
    }
    std::copy(cursor.begin(), cursor.end(), dst);
    return;
  }

  // SWWCB scatter.
  std::vector<CacheLineBuffer> buffers(num_partitions_);
  std::vector<ScatterCursor> cursors(num_partitions_);
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    cursors[p] = ScatterCursor{dst[p], dst[p]};
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
  for (uint32_t p = 0; p < num_partitions_; ++p) {
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

  // Record final write positions for callers that continue appending.
  for (uint32_t p = 0; p < num_partitions_; ++p) dst[p] = cursors[p].next;
}

PartitionLayout SubPartitionSerial(ConstTupleSpan input, TupleSpan output,
                                   RadixFn fn) {
  MMJOIN_CHECK(input.size() == output.size());
  const uint32_t num_partitions = fn.num_partitions();
  PartitionLayout layout;
  layout.offsets.assign(num_partitions + 1, 0);

  std::vector<uint64_t> hist(num_partitions, 0);
  for (const Tuple& t : input) ++hist[fn(t.key)];

  uint64_t running = 0;
  std::vector<uint64_t> cursor(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    layout.offsets[p] = running;
    cursor[p] = running;
    running += hist[p];
  }
  layout.offsets[num_partitions] = running;

  for (const Tuple& t : input) {
    output[cursor[fn(t.key)]++] = t;
  }
  return layout;
}

}  // namespace mmjoin::partition
