#include "join/reference.h"

#include <algorithm>

#include "thread/executor.h"
#include "util/mutex.h"

namespace mmjoin::join {
namespace {

// About one cache line of words per directory bucket on a dense key range;
// the directory then costs 1 byte per build tuple.
constexpr std::size_t kWordsPerBucket = 8;

// The build side as one sorted array of packed (key << 32 | payload) words,
// and a directory over it: bucket b holds the words whose key >> shift is b,
// the shift chosen so that there are at most |R| / kWordsPerBucket buckets.
// A probe binary-searches only its key's bucket.
struct SortedBuild {
  std::vector<uint64_t> words;
  std::vector<std::size_t> bucket_start;  // buckets + 1 entries
  int shift = 0;

  explicit SortedBuild(ConstTupleSpan build) {
    words.reserve(build.size());
    uint32_t max_key = 0;
    for (const Tuple& t : build) {
      words.push_back(static_cast<uint64_t>(t.key) << 32 | t.payload);
      max_key = std::max(max_key, t.key);
    }
    std::sort(words.begin(), words.end());
    if (words.empty()) return;
    const uint64_t max_buckets =
        std::max<std::size_t>(1, words.size() / kWordsPerBucket);
    while ((uint64_t{max_key} >> shift) + 1 > max_buckets) ++shift;
    bucket_start.assign((uint64_t{max_key} >> shift) + 2, 0);
    for (const uint64_t word : words) {
      ++bucket_start[(word >> 32 >> shift) + 1];
    }
    for (std::size_t b = 1; b < bucket_start.size(); ++b) {
      bucket_start[b] += bucket_start[b - 1];
    }
  }

  // Calls `emit(build_payload)` once per build tuple whose key is `key`.
  template <typename Emit>
  void ForEachMatch(uint32_t key, Emit&& emit) const {
    const std::size_t bucket = uint64_t{key} >> shift;
    if (bucket + 1 >= bucket_start.size()) return;
    const auto end = words.begin() + bucket_start[bucket + 1];
    for (auto it = std::lower_bound(words.begin() + bucket_start[bucket], end,
                                    static_cast<uint64_t>(key) << 32);
         it != end && (*it >> 32) == key; ++it) {
      emit(static_cast<uint32_t>(*it));
    }
  }
};

void ProbeRange(const SortedBuild& table, ConstTupleSpan probe,
                std::size_t begin, std::size_t end, JoinResult* result) {
  for (std::size_t i = begin; i < end; ++i) {
    const Tuple s = probe[i];
    table.ForEachMatch(s.key, [&](uint32_t payload) {
      ++result->matches;
      result->checksum += static_cast<uint64_t>(payload) + s.payload;
    });
  }
}

}  // namespace

JoinResult ReferenceJoin(ConstTupleSpan build, ConstTupleSpan probe,
                         thread::Executor* executor) {
  const SortedBuild table(build);

  JoinResult result;
  if (executor != nullptr) {
    Mutex fold_mutex;
    const Status dispatch_status = executor->ParallelFor(
        probe.size(), [&](std::size_t begin, std::size_t end,
                          const thread::WorkerContext&) {
          JoinResult part;
          ProbeRange(table, probe, begin, end, &part);
          MutexLock lock(fold_mutex);
          result.matches += part.matches;
          result.checksum += part.checksum;
        });
    if (dispatch_status.ok()) return result;
    // The reference join is the differential tests' ground truth: a partial
    // parallel fold (poisoned pool, watchdog) must not leak out. Discard it
    // and recompute on the serial path below.
    result = JoinResult{};
  }
  ProbeRange(table, probe, 0, probe.size(), &result);
  return result;
}

std::vector<std::pair<uint32_t, uint32_t>> ReferenceJoinPairs(
    ConstTupleSpan build, ConstTupleSpan probe) {
  const SortedBuild table(build);
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  for (const Tuple& s : probe) {
    table.ForEachMatch(s.key, [&](uint32_t payload) {
      pairs.emplace_back(payload, s.payload);
    });
  }
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace mmjoin::join
