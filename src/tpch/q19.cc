#include "tpch/q19.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "exec/operators.h"
#include "exec/pipeline.h"
#include "hash/linear_probing_table.h"
#include "join/materialize.h"
#include "thread/executor.h"
#include "util/timer.h"
#include "util/types.h"

namespace mmjoin::tpch {
namespace {

// --- Q19 as exec:: pipeline operators ---------------------------------------
//
// Both strategies are configurations of the same vectorized pipeline
// (docs/PIPELINE.md):
//
//   kPipelined:  scan(l_partkey) -> pre-filter -> join -> post-filter -> agg
//   kJoinIndex:  scan(l_partkey) -> pre-filter -> join -> index materialize,
//                then  index scan -> post-filter -> agg
//
// The filters narrow selection vectors in place; sparse chunks are densified
// at compactor boundaries per PipelineConfig::compaction_threshold.

// Pushed-down selection on lineitem. Scan chunks carry
// <l_partkey, lineitem row id>; PreJoin reads by row id (late
// materialization), so the filter touches the payload column, not the key.
class Q19PreFilter final : public exec::Operator {
 public:
  explicit Q19PreFilter(const LineitemTable& lineitem)
      : lineitem_(lineitem) {}

  const char* name() const override { return "q19.pre_filter"; }
  int output_columns() const override { return 2; }
  bool is_filter() const override { return true; }

  void Apply(int tid, exec::DataChunk* chunk) override {
    (void)tid;
    const uint32_t* rowid = chunk->column(exec::kScanPayloadCol);
    exec::RefineSelection(chunk, [&](const exec::DataChunk&, uint32_t row) {
      return PreJoin(lineitem_, rowid[row]);
    });
  }

 private:
  const LineitemTable& lineitem_;
};

// Residual brand/container/quantity/size predicate over join-output chunks
// (build payload = part row id, probe payload = lineitem row id).
class Q19PostFilter final : public exec::Operator {
 public:
  Q19PostFilter(const LineitemTable& lineitem, const PartTable& part)
      : lineitem_(lineitem), part_(part) {}

  const char* name() const override { return "q19.post_filter"; }
  int output_columns() const override { return 3; }
  bool is_filter() const override { return true; }

  void Apply(int tid, exec::DataChunk* chunk) override {
    (void)tid;
    const uint32_t* row_p = chunk->column(exec::kJoinBuildPayloadCol);
    const uint32_t* row_l = chunk->column(exec::kJoinProbePayloadCol);
    exec::RefineSelection(chunk, [&](const exec::DataChunk&, uint32_t row) {
      return PostJoin(lineitem_, part_, row_l[row], row_p[row]);
    });
  }

 private:
  const LineitemTable& lineitem_;
  const PartTable& part_;
};

// SUM(l_extendedprice * (1 - l_discount)) over surviving join-output rows,
// fetching the monetary columns by lineitem row id.
class RevenueAggregate final : public exec::Sink {
 public:
  explicit RevenueAggregate(const LineitemTable& lineitem)
      : lineitem_(lineitem) {}

  const char* name() const override { return "q19.revenue_agg"; }

  void Open(int num_threads) override {
    slots_.assign(static_cast<std::size_t>(num_threads), Slot{});
  }

  void Append(int tid, const exec::DataChunk& chunk) override {
    Slot& slot = slots_[static_cast<std::size_t>(tid)];
    const uint32_t* row_l = chunk.column(exec::kJoinProbePayloadCol);
    const float* price = lineitem_.l_extendedprice();
    const float* discount = lineitem_.l_discount();
    const uint32_t active = chunk.ActiveRows();
    slot.rows += active;
    double revenue = 0.0;
    for (uint32_t i = 0; i < active; ++i) {
      const uint32_t row = row_l[chunk.RowAt(i)];
      revenue += static_cast<double>(price[row]) * (1.0 - discount[row]);
    }
    slot.revenue += revenue;
  }

  void Fold(Q19Result* result) const {
    for (const Slot& slot : slots_) {
      result->revenue += slot.revenue;
      result->result_rows += slot.rows;
    }
  }

 private:
  struct SlotFields {
    double revenue = 0.0;
    uint64_t rows = 0;
  };
  struct alignas(kCacheLineSize) Slot : SlotFields {
    char padding[kCacheLineSize - sizeof(SlotFields)];
  };
  static_assert(sizeof(Slot) == kCacheLineSize,
                "Slot must occupy exactly one cache line (false-sharing "
                "padding)");

  const LineitemTable& lineitem_;
  // per-thread slots indexed by tid; sized in Open before the dispatch
  std::vector<Slot> slots_;
};

}  // namespace

StatusOr<Q19Result> TryRunQ19(numa::NumaSystem* system,
                              const LineitemTable& lineitem,
                              const PartTable& part, join::Algorithm algorithm,
                              int num_threads, Q19Strategy strategy,
                              thread::Executor* executor,
                              std::optional<uint64_t> mem_budget_bytes) {
  Q19Result result;
  const int64_t start = NowNanos();

  exec::PipelineConfig config;
  config.num_threads = num_threads;
  config.executor = executor;

  exec::TupleScan scan(
      ConstTupleSpan(lineitem.l_partkey(), lineitem.num_tuples()));
  Q19PreFilter pre_filter(lineitem);
  exec::HashJoinProbe::Spec join_spec;
  join_spec.algorithm = algorithm;
  join_spec.build = ConstTupleSpan(part.p_partkey(), part.num_tuples());
  join_spec.key_domain = part.num_tuples();
  join_spec.config.mem_budget_bytes = mem_budget_bytes;
  exec::HashJoinProbe join_probe(join_spec);
  Q19PostFilter post_filter(lineitem, part);
  RevenueAggregate aggregate(lineitem);

  if (strategy == Q19Strategy::kPipelined) {
    exec::Pipeline pipeline(&scan, {&pre_filter, &join_probe, &post_filter},
                            &aggregate);
    exec::PipelineStats stats;
    MMJOIN_ASSIGN_OR_RETURN(stats, pipeline.Run(system, config));
    aggregate.Fold(&result);
    result.filtered_rows = stats.pre_join_rows;
    result.join_matches = stats.join_matches;
    result.filter_ns = stats.pre_join_ns;
  } else {
    // Join-index strategy: the first pipeline ends in an index materializer
    // right after the probe; post-filter + aggregation run as a second
    // pipeline over the gathered index.
    exec::JoinIndexMaterialize index;
    exec::Pipeline join_pipeline(&scan, {&pre_filter, &join_probe}, &index);
    exec::PipelineStats join_stats;
    MMJOIN_ASSIGN_OR_RETURN(join_stats, join_pipeline.Run(system, config));
    result.filtered_rows = join_stats.pre_join_rows;
    result.join_matches = join_stats.join_matches;
    result.filter_ns = join_stats.pre_join_ns;

    const std::vector<join::MatchedPair> pairs = index.Gather();
    exec::JoinIndexScan index_scan(&pairs);
    exec::Pipeline post_pipeline(&index_scan, {&post_filter}, &aggregate);
    MMJOIN_RETURN_IF_ERROR(post_pipeline.Run(system, config).status());
    aggregate.Fold(&result);
  }

  // Phase accounting identity: everything after the pre-join filter stage
  // is the join phase, so filter_ns + join_ns == total_ns by construction
  // (asserted in tests/tpch_test.cc).
  result.total_ns = NowNanos() - start;
  result.join_ns = result.total_ns - result.filter_ns;
  return result;
}

StatusOr<Q19MorphResult> RunQ19Morph(numa::NumaSystem* system,
                                     const LineitemTable& lineitem,
                                     const PartTable& part, int num_threads,
                                     thread::Executor* executor) {
  thread::Executor& pool =
      executor != nullptr ? *executor : thread::GlobalExecutor();
  Q19MorphResult result;
  using Table = hash::LinearProbingTable<hash::IdentityHash>;
  const uint64_t l_rows = lineitem.num_tuples();
  const uint64_t p_rows = part.num_tuples();
  const Tuple* l_partkey = lineitem.l_partkey();

  // The pre-filtered probe side: <l_partkey, lineitem row id> for every row
  // passing PreJoin, materialized by the pipeline TryRunQ19 runs in front of
  // its join.
  exec::TupleScan scan(ConstTupleSpan(l_partkey, l_rows));
  Q19PreFilter pre_filter(lineitem);
  exec::TupleMaterialize materialize(system,
                                     numa::Placement::kChunkedRoundRobin);
  exec::PipelineConfig config;
  config.num_threads = num_threads;
  config.executor = &pool;
  MMJOIN_RETURN_IF_ERROR(
      exec::Pipeline(&scan, {&pre_filter}, &materialize)
          .Run(system, config)
          .status());
  const ConstTupleSpan prefiltered = materialize.span();
  const uint64_t filtered = prefiltered.size();

  auto build_table = [&]() -> StatusOr<std::unique_ptr<Table>> {
    auto table = std::make_unique<Table>(system, p_rows,
                                         numa::Placement::kInterleavedPages);
    MMJOIN_RETURN_IF_ERROR(pool.ParallelFor(
        num_threads, p_rows,
        [&](std::size_t begin, std::size_t end, const thread::WorkerContext&) {
          const Tuple* keys = part.p_partkey();
          for (uint64_t i = begin; i < end; ++i) {
            table->InsertConcurrent(keys[i]);
          }
        }));
    return table;
  };

  // Step 1: naked join on pre-filtered pre-materialized input.
  {
    Stopwatch watch;
    MMJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Table> table, build_table());
    std::atomic<uint64_t> matches{0};
    MMJOIN_RETURN_IF_ERROR(pool.ParallelFor(
        num_threads, filtered,
        [&](std::size_t begin, std::size_t end, const thread::WorkerContext&) {
          uint64_t local = 0;
          for (uint64_t i = begin; i < end; ++i) {
            table->ProbeUnique(prefiltered[i].key, [&](Tuple) { ++local; });
          }
          matches.fetch_add(local, std::memory_order_relaxed);
        }));
    result.step_ns[0] = watch.ElapsedNanos();
  }

  // Step 2: filter the input table dynamically during the probe.
  {
    Stopwatch watch;
    MMJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Table> table, build_table());
    std::atomic<uint64_t> matches{0};
    MMJOIN_RETURN_IF_ERROR(pool.ParallelFor(
        num_threads, l_rows,
        [&](std::size_t begin, std::size_t end, const thread::WorkerContext&) {
          uint64_t local = 0;
          for (uint64_t i = begin; i < end; ++i) {
            if (!PreJoin(lineitem, i)) continue;
            table->ProbeUnique(l_partkey[i].key, [&](Tuple) { ++local; });
          }
          matches.fetch_add(local, std::memory_order_relaxed);
        }));
    result.step_ns[1] = watch.ElapsedNanos();
  }

  // Steps 3 and 4: dynamic filtering + join index, then post-filter +
  // aggregate from the index.
  {
    Stopwatch watch;
    MMJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Table> table, build_table());
    std::vector<std::vector<Tuple>> index(num_threads);  // <rowP, rowL>
    MMJOIN_RETURN_IF_ERROR(pool.ParallelFor(
        num_threads, l_rows,
        [&](std::size_t begin, std::size_t end,
            const thread::WorkerContext& ctx) {
          std::vector<Tuple>& local = index[ctx.thread_id];
          for (uint64_t i = begin; i < end; ++i) {
            if (!PreJoin(lineitem, i)) continue;
            const auto row_l = static_cast<uint32_t>(i);
            table->ProbeUnique(l_partkey[i].key, [&](Tuple r) {
              local.push_back(Tuple{r.payload, row_l});
            });
          }
        }));
    result.step_ns[2] = watch.ElapsedNanos();

    std::vector<double> revenue(num_threads, 0.0);
    MMJOIN_RETURN_IF_ERROR(
        pool.Dispatch(num_threads, [&](const thread::WorkerContext& ctx) {
          const int tid = ctx.thread_id;
          double local = 0.0;
          for (const Tuple& match : index[tid]) {
            if (PostJoin(lineitem, part, match.payload, match.key)) {
              local += static_cast<double>(
                           lineitem.l_extendedprice()[match.payload]) *
                       (1.0 - lineitem.l_discount()[match.payload]);
            }
          }
          revenue[tid] = local;
        }));
    result.step_ns[3] = watch.ElapsedNanos();
    for (double r : revenue) result.revenue_step4 += r;
  }

  // Step 5: the full pipelined query (Listing 4), no join index.
  {
    Stopwatch watch;
    MMJOIN_ASSIGN_OR_RETURN(std::unique_ptr<Table> table, build_table());
    std::vector<double> revenue(num_threads, 0.0);
    MMJOIN_RETURN_IF_ERROR(pool.ParallelFor(
        num_threads, l_rows,
        [&](std::size_t begin, std::size_t end,
            const thread::WorkerContext& ctx) {
          const int tid = ctx.thread_id;
          double local = 0.0;
          for (uint64_t i = begin; i < end; ++i) {
            if (!PreJoin(lineitem, i)) continue;
            table->ProbeUnique(l_partkey[i].key, [&](Tuple r) {
              if (PostJoin(lineitem, part, i, r.payload)) {
                local += static_cast<double>(lineitem.l_extendedprice()[i]) *
                         (1.0 - lineitem.l_discount()[i]);
              }
            });
          }
          revenue[tid] = local;
        }));
    result.step_ns[4] = watch.ElapsedNanos();
    for (double r : revenue) result.revenue_step5 += r;
  }

  return result;
}

double Q19Reference(const LineitemTable& lineitem, const PartTable& part) {
  double revenue = 0.0;
  for (uint64_t i = 0; i < lineitem.num_tuples(); ++i) {
    if (!PreJoin(lineitem, i)) continue;
    const uint32_t partkey = lineitem.l_partkey()[i].key;
    // p_partkey is dense and sorted: key == row id.
    const uint64_t row_p = partkey;
    if (row_p < part.num_tuples() &&
        PostJoin(lineitem, part, i, row_p)) {
      revenue += static_cast<double>(lineitem.l_extendedprice()[i]) *
                 (1.0 - lineitem.l_discount()[i]);
    }
  }
  return revenue;
}

}  // namespace mmjoin::tpch
