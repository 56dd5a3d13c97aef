// Join-result materialization sinks.
//
// The micro-benchmark methodology of the paper (and all prior work it
// reproduces) aggregates matches instead of materializing them; real
// queries need the pairs. JoinIndexSink collects matched tuples with
// per-thread buffers (no synchronization on the hot path), following the
// join-index strategy of the paper's Appendix G.

#ifndef MMJOIN_JOIN_MATERIALIZE_H_
#define MMJOIN_JOIN_MATERIALIZE_H_

#include <cstdint>
#include <vector>

#include "join/join_defs.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/types.h"

namespace mmjoin::join {

// One materialized match: the payloads (row ids) of both sides plus the
// join key.
struct MatchedPair {
  uint32_t key;
  uint32_t build_payload;
  uint32_t probe_payload;

  friend bool operator==(const MatchedPair&, const MatchedPair&) = default;
};

// Collects matched pairs into per-thread vectors; call Gather() (single
// threaded, after the join) to concatenate them into a join index.
class JoinIndexSink final : public MatchSink {
 public:
  // Thread ids delivered to ConsumeChunk must lie in
  // [0, num_threads). Non-positive counts are a caller bug (a sink with no
  // buffers could only crash later, in the concurrent consume path, where
  // the stack no longer names the culprit) -- fail fast here instead.
  explicit JoinIndexSink(int num_threads)
      : per_thread_(CheckedThreadCount(num_threads)) {}

  // Optional: pre-reserve per-thread capacity when the match count is
  // predictable (e.g. FK joins: |S| matches).
  void Reserve(uint64_t expected_total) {
    for (auto& local : per_thread_) {
      local.reserve(expected_total / per_thread_.size() + 16);
    }
  }

  // One bounds check + one resize per up-to-1024 matches, then straight
  // columnar copies into the row-wise index.
  void ConsumeChunk(int tid, const MatchChunk& chunk) override {
    MMJOIN_DCHECK(tid >= 0 &&
                  tid < static_cast<int>(per_thread_.size()));
    std::vector<MatchedPair>& local = per_thread_[tid];
    const std::size_t base = local.size();
    local.resize(base + chunk.size);
    for (uint32_t i = 0; i < chunk.size; ++i) {
      local[base + i] = MatchedPair{chunk.key[i], chunk.build_payload[i],
                                    chunk.probe_payload[i]};
    }
  }

  // Total matches collected so far (call after the join).
  uint64_t size() const {
    uint64_t total = 0;
    for (const auto& local : per_thread_) total += local.size();
    return total;
  }

  // Concatenates all per-thread buffers (moves them out; the sink is empty
  // afterwards). Order is deterministic given a deterministic join
  // schedule but generally unspecified; sort if you need canonical order.
  std::vector<MatchedPair> Gather() {
    obs::ObsScope scope("materialize.gather", obs::SpanKind::kMaterialize);
    std::vector<MatchedPair> all;
    all.reserve(size());
    for (auto& local : per_thread_) {
      all.insert(all.end(), local.begin(), local.end());
      local.clear();
      local.shrink_to_fit();
    }
    return all;
  }

 private:
  static std::size_t CheckedThreadCount(int num_threads) {
    MMJOIN_CHECK(num_threads > 0);
    return static_cast<std::size_t>(num_threads);
  }

  std::vector<std::vector<MatchedPair>> per_thread_;
};

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_MATERIALIZE_H_
