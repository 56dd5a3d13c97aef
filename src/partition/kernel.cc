#include "partition/kernel.h"

#include <algorithm>
#include <vector>

#include "mem/nt_store.h"
#include "partition/swwcb.h"

namespace mmjoin::partition {

void CountPartitions(ConstTupleSpan input, RadixFn fn, uint64_t* counts) {
  std::vector<uint64_t> hist(fn.num_partitions());
  for (const Tuple& t : input) ++hist[fn(t.key)];
  std::copy(hist.begin(), hist.end(), counts);
}

void ScatterPartitions(ConstTupleSpan input, RadixFn fn,
                       const uint64_t* starts, bool use_swwcb, Tuple* output,
                       numa::NumaSystem* system, int thread_node) {
  const uint32_t num_partitions = fn.num_partitions();
  const bool accounting = system != nullptr && system->accounting_enabled();
  if (MMJOIN_UNLIKELY(accounting)) {
    system->CountRead(thread_node, input.data(), input.size_bytes());
  }

  if (!use_swwcb) {
    // PRB-style direct scatter: every tuple is a random write into one of P
    // pages. Thread-private cursors, like the histogram.
    std::vector<uint64_t> cursor(starts, starts + num_partitions);
    for (const Tuple t : input) {
      const uint64_t pos = cursor[fn(t.key)]++;
      output[pos] = t;
      if (MMJOIN_UNLIKELY(accounting)) {
        system->CountWrite(thread_node, output + pos, sizeof(Tuple));
      }
    }
    return;
  }

  std::vector<CacheLineBuffer> buffers(num_partitions);
  std::vector<ScatterCursor> cursors(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    cursors[p] = ScatterCursor{starts[p], starts[p]};
  }
  // The bytes of cursor c's line that this thread writes up to (excluding)
  // index `end`: a partial head line holds other threads' tuples before
  // c.start, which this thread neither stages nor writes.
  const auto count_line = [&](const ScatterCursor& c, uint64_t end) {
    const uint64_t line_base = (end - 1) & ~uint64_t{kTuplesPerCacheLine - 1};
    const uint64_t begin = std::max(line_base, c.start);
    if (end > begin) {
      system->CountWrite(thread_node, output + begin,
                         (end - begin) * sizeof(Tuple));
    }
  };
  for (const Tuple t : input) {
    const uint32_t p = fn(t.key);
    if (MMJOIN_UNLIKELY(accounting) &&
        (cursors[p].next & (kTuplesPerCacheLine - 1)) ==
            kTuplesPerCacheLine - 1) {
      count_line(cursors[p], cursors[p].next + 1);
    }
    SwwcbPush(output, buffers.data(), cursors.data(), p, t);
  }
  for (uint32_t p = 0; p < num_partitions; ++p) {
    // The tail line's tuples, [max(line base, start), next).
    if (MMJOIN_UNLIKELY(accounting) &&
        (cursors[p].next & (kTuplesPerCacheLine - 1)) != 0) {
      count_line(cursors[p], cursors[p].next);
    }
    SwwcbDrain(output, buffers.data(), cursors.data(), p);
  }
  mem::StreamFence();
}

}  // namespace mmjoin::partition
