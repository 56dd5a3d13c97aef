// The stock operator set of the vectorized pipeline: table scan, hash-join
// probe (wrapping any of the thirteen join algorithms), aggregation, and
// join-index materialization. Query-specific filters subclass
// exec::Operator directly (see tpch/q19.cc) -- predicates inline via
// RefineSelection, so there is no per-row virtual dispatch.

#ifndef MMJOIN_EXEC_OPERATORS_H_
#define MMJOIN_EXEC_OPERATORS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "exec/data_chunk.h"
#include "exec/operator.h"
#include "join/join_algorithm.h"
#include "join/join_defs.h"
#include "join/materialize.h"
#include "numa/system.h"
#include "util/types.h"

namespace mmjoin::exec {

// Column conventions. A scan of a <key, payload> tuple column produces
// 2-column chunks; a join probe produces 3-column chunks (both sides share
// the key; payloads are the build/probe row ids for late materialization).
inline constexpr int kScanKeyCol = 0;
inline constexpr int kScanPayloadCol = 1;
inline constexpr int kJoinKeyCol = 0;
inline constexpr int kJoinBuildPayloadCol = 1;
inline constexpr int kJoinProbePayloadCol = 2;

// --- Scan -------------------------------------------------------------------

// Morsel-wise scan over a flat <key, payload> tuple column. Workers race on
// the atomic cursor; each claim is one chunk-sized morsel, so threads that
// finish early keep pulling (the same morsel discipline as the join
// kernels' task queues).
class TupleScan final : public Source {
 public:
  explicit TupleScan(ConstTupleSpan tuples) : tuples_(tuples) {}

  const char* name() const override { return "exec.scan"; }
  int output_columns() const override { return 2; }
  uint64_t TotalRows() const override { return tuples_.size(); }

  void Open(int num_threads) override {
    cursor_.store(0, std::memory_order_relaxed);
  }

  bool NextChunk(int tid, DataChunk* chunk) override;

 private:
  ConstTupleSpan tuples_;
  std::atomic<uint64_t> cursor_{0};
};

// Morsel-wise scan over a materialized join index, producing 3-column
// join-output chunks -- the source of post-join passes (Q19's kJoinIndex
// strategy) and of the upper joins of bushy plans.
class JoinIndexScan final : public Source {
 public:
  explicit JoinIndexScan(const std::vector<join::MatchedPair>* index)
      : index_(index) {}

  const char* name() const override { return "exec.index_scan"; }
  int output_columns() const override { return 3; }
  uint64_t TotalRows() const override { return index_->size(); }

  void Open(int num_threads) override {
    cursor_.store(0, std::memory_order_relaxed);
  }

  bool NextChunk(int tid, DataChunk* chunk) override;

 private:
  // read-only: borrowed index, immutable for the lifetime of the scan
  const std::vector<join::MatchedPair>* index_;
  std::atomic<uint64_t> cursor_{0};
};

// --- Hash-join probe --------------------------------------------------------

// Wraps one of the thirteen join algorithms as a pipeline operator.
//
// Declared as an Operator so plans read scan -> filter -> join -> ... , but
// the Pipeline driver executes it specially: the wrapped algorithm owns its
// probe-side parallelism (partitioning, task scheduling, skew handling), so
// the driver materializes the upstream segment into a probe relation, runs
// the algorithm, and feeds the downstream segment from the join's
// MatchSink::ConsumeChunk stream (docs/PIPELINE.md).
class HashJoinProbe final : public Operator {
 public:
  struct Spec {
    join::Algorithm algorithm = join::Algorithm::kNOP;
    ConstTupleSpan build;
    // Exclusive key-domain bound for the array joins (0 = scan for max).
    uint64_t key_domain = 0;
    // Join knobs (radix_bits, build_unique, mem_budget_bytes, ...); the
    // join's budget is set here and nowhere else in the pipeline. Execute
    // overrides num_threads, executor and sink.
    join::JoinConfig config;
  };

  explicit HashJoinProbe(const Spec& spec) : spec_(spec) {}

  const char* name() const override { return "exec.join_probe"; }
  int output_columns() const override { return 3; }
  const Spec& spec() const { return spec_; }

  // Runs the wrapped algorithm through join::RunJoin with `sink` receiving
  // the match stream. Called by the Pipeline driver; not reachable through
  // Process.
  StatusOr<join::JoinResult> Execute(numa::NumaSystem* system,
                                     ConstTupleSpan probe,
                                     join::MatchSink* sink,
                                     thread::Executor* executor,
                                     int num_threads) const;

 private:
  Spec spec_;
};

// --- Sinks ------------------------------------------------------------------

// Counting/checksum aggregate: counts live rows and sums the values of the
// configured columns (e.g. build+probe payload for the JoinResult checksum
// convention). Per-thread accumulators, cache-line padded.
class CountAggregate final : public Sink {
 public:
  // `checksum_columns`: column indices summed into checksum() (empty = count
  // only).
  explicit CountAggregate(std::vector<int> checksum_columns = {})
      : checksum_columns_(std::move(checksum_columns)) {}

  const char* name() const override { return "exec.count_agg"; }
  void Open(int num_threads) override {
    slots_.assign(static_cast<std::size_t>(num_threads), Slot{});
  }
  void Append(int tid, const DataChunk& chunk) override;

  uint64_t rows() const;
  uint64_t checksum() const;

 private:
  struct SlotFields {
    uint64_t rows = 0;
    uint64_t checksum = 0;
  };
  struct alignas(kCacheLineSize) Slot : SlotFields {
    char padding[kCacheLineSize - sizeof(SlotFields)];
  };
  static_assert(sizeof(Slot) == kCacheLineSize,
                "Slot must occupy exactly one cache line (false-sharing "
                "padding)");

  // read-only after construction
  std::vector<int> checksum_columns_;
  // per-thread slots indexed by tid; sized in Open before the dispatch
  std::vector<Slot> slots_;
};

// Materializes 3-column join-output chunks into a join index
// (<key, rowBuild, rowProbe> rows), per-thread buffers, gathered
// single-threaded after the run -- the chunked counterpart of
// join::JoinIndexSink for plans that keep the index inside the pipeline.
class JoinIndexMaterialize final : public Sink {
 public:
  const char* name() const override { return "exec.index_materialize"; }
  void Open(int num_threads) override {
    per_thread_.assign(static_cast<std::size_t>(num_threads), {});
  }
  void Append(int tid, const DataChunk& chunk) override;

  uint64_t size() const;

  // Concatenates the per-thread buffers (moves them out). Single-threaded.
  std::vector<join::MatchedPair> Gather();

 private:
  // per-thread buffers indexed by tid; sized in Open before the dispatch
  std::vector<std::vector<join::MatchedPair>> per_thread_;
};

// Materializes 2-column <key, payload> chunks into a dense NUMA-placed
// tuple relation -- the pipeline breaker in front of a HashJoinProbe (the
// probe side must exist in full before the join starts).
class TupleMaterialize final : public Sink {
 public:
  TupleMaterialize(numa::NumaSystem* system, numa::Placement placement)
      : system_(system), placement_(placement) {}

  const char* name() const override { return "exec.materialize"; }
  void Open(int num_threads) override {
    per_thread_.assign(static_cast<std::size_t>(num_threads), {});
  }
  void Append(int tid, const DataChunk& chunk) override;
  // Concatenates into the NUMA buffer; ResourceExhausted when that
  // allocation fails.
  Status Finish() override;

  uint64_t size() const { return gathered_.size(); }
  ConstTupleSpan span() const {
    return ConstTupleSpan(gathered_.data(), count_);
  }

 private:
  numa::NumaSystem* system_;
  numa::Placement placement_;
  // per-thread buffers indexed by tid; sized in Open before the dispatch
  std::vector<std::vector<Tuple>> per_thread_;
  numa::NumaBuffer<Tuple> gathered_;
  uint64_t count_ = 0;
};

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_OPERATORS_H_
