// Tests for the vectorized execution layer (src/exec/): DataChunk and
// selection vectors, dynamic chunk compaction, the pipeline driver, and the
// differential check of the pipelined TPC-H Q19 against the scalar
// reference across all thirteen join algorithms.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "exec/compaction.h"
#include "exec/data_chunk.h"
#include "exec/operator.h"
#include "exec/operators.h"
#include "exec/pipeline.h"
#include "join/join_defs.h"
#include "join/reference.h"
#include "numa/system.h"
#include "tpch/generator.h"
#include "tpch/q19.h"
#include "workload/generator.h"

namespace mmjoin::exec {
namespace {

numa::NumaSystem* System() {
  static auto* system = new numa::NumaSystem(4);
  return system;
}

// --- DataChunk --------------------------------------------------------------

TEST(DataChunk, StoresColumnsAndTracksLogicalRows) {
  DataChunk chunk(2);
  EXPECT_EQ(chunk.num_columns(), 2);
  for (uint32_t i = 0; i < 100; ++i) {
    chunk.column(0)[i] = i;
    chunk.column(1)[i] = 1000 + i;
  }
  chunk.set_size(100);
  EXPECT_EQ(chunk.size(), 100u);
  EXPECT_EQ(chunk.ActiveRows(), 100u);
  EXPECT_FALSE(chunk.has_selection());
  EXPECT_FALSE(chunk.Empty());
  EXPECT_EQ(chunk.RowAt(42), 42u);  // identity without a selection
  EXPECT_DOUBLE_EQ(chunk.Density(), 100.0 / kChunkCapacity);
  EXPECT_EQ(chunk.Remaining(), kChunkCapacity - 100);

  chunk.Reset();
  EXPECT_EQ(chunk.size(), 0u);
  EXPECT_TRUE(chunk.Empty());
}

TEST(DataChunk, SelectionNarrowsThenCompactGathers) {
  DataChunk chunk(2);
  for (uint32_t i = 0; i < 100; ++i) {
    chunk.column(0)[i] = i;
    chunk.column(1)[i] = 1000 + i;
  }
  chunk.set_size(100);

  // Select the even physical rows.
  uint32_t* sel = chunk.mutable_selection();
  for (uint32_t i = 0; i < 50; ++i) sel[i] = 2 * i;
  chunk.SetSelectionSize(50);
  EXPECT_TRUE(chunk.has_selection());
  EXPECT_EQ(chunk.ActiveRows(), 50u);
  EXPECT_EQ(chunk.RowAt(3), 6u);
  EXPECT_DOUBLE_EQ(chunk.Density(), 50.0 / kChunkCapacity);

  chunk.Compact();
  EXPECT_FALSE(chunk.has_selection());
  EXPECT_EQ(chunk.size(), 50u);
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(chunk.column(0)[i], 2 * i);
    EXPECT_EQ(chunk.column(1)[i], 1000 + 2 * i);
  }
  chunk.Compact();  // idempotent once the selection is gone
  EXPECT_EQ(chunk.size(), 50u);
}

TEST(DataChunk, AppendActiveCopiesDenseAndSelectedSources) {
  DataChunk dense(2);
  for (uint32_t i = 0; i < 10; ++i) {
    dense.column(0)[i] = i;
    dense.column(1)[i] = 100 + i;
  }
  dense.set_size(10);

  DataChunk sparse(2);
  for (uint32_t i = 0; i < 10; ++i) {
    sparse.column(0)[i] = 50 + i;
    sparse.column(1)[i] = 500 + i;
  }
  sparse.set_size(10);
  uint32_t* sel = sparse.mutable_selection();
  sel[0] = 1;
  sel[1] = 4;
  sel[2] = 9;
  sparse.SetSelectionSize(3);

  DataChunk out(2);
  out.AppendActive(dense, 2, 3);   // physical rows 2,3,4 (memcpy path)
  out.AppendActive(sparse, 1, 2);  // logical rows 1,2 -> physical 4,9
  ASSERT_EQ(out.size(), 5u);
  const uint32_t expected_keys[] = {2, 3, 4, 54, 59};
  const uint32_t expected_payloads[] = {102, 103, 104, 504, 509};
  for (uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(out.column(0)[i], expected_keys[i]) << i;
    EXPECT_EQ(out.column(1)[i], expected_payloads[i]) << i;
  }
}

TEST(RefineSelection, ComposesAcrossFilters) {
  DataChunk chunk(1);
  for (uint32_t i = 0; i < 100; ++i) chunk.column(0)[i] = i;
  chunk.set_size(100);

  // First filter: multiples of 3 (installs the selection).
  RefineSelection(&chunk, [](const DataChunk& c, uint32_t row) {
    return c.column(0)[row] % 3 == 0;
  });
  EXPECT_EQ(chunk.ActiveRows(), 34u);  // 0,3,...,99
  // Second filter: also even -> multiples of 6 (refines in place).
  RefineSelection(&chunk, [](const DataChunk& c, uint32_t row) {
    return c.column(0)[row] % 2 == 0;
  });
  ASSERT_EQ(chunk.ActiveRows(), 17u);  // 0,6,...,96
  for (uint32_t i = 0; i < chunk.ActiveRows(); ++i) {
    EXPECT_EQ(chunk.column(0)[chunk.RowAt(i)], 6 * i);
  }
}

// --- ChunkCompactor ---------------------------------------------------------

// Fills `chunk` with `rows` physical rows tagged by `base` in every column.
void FillChunk(DataChunk* chunk, uint32_t rows, uint32_t base) {
  chunk->Reset();
  for (int c = 0; c < chunk->num_columns(); ++c) {
    for (uint32_t i = 0; i < rows; ++i) chunk->column(c)[i] = base + i;
  }
  chunk->set_size(rows);
}

TEST(ChunkCompactor, ThresholdZeroNeverCompacts) {
  ChunkCompactor compactor(2, /*density_threshold=*/0.0);
  DataChunk chunk(2);
  uint64_t emitted_rows = 0;
  uint64_t emitted_chunks = 0;
  for (int i = 0; i < 5; ++i) {
    FillChunk(&chunk, 10, static_cast<uint32_t>(i) * 10);  // density ~1%
    compactor.Push(&chunk, [&](DataChunk* out) {
      EXPECT_EQ(out, &chunk);  // pass-through, same storage
      emitted_rows += out->ActiveRows();
      ++emitted_chunks;
    });
  }
  compactor.Flush([&](DataChunk*) { FAIL() << "nothing buffered"; });
  EXPECT_EQ(emitted_chunks, 5u);
  EXPECT_EQ(emitted_rows, 50u);
  EXPECT_EQ(compactor.stats().rows_compacted, 0u);
  EXPECT_EQ(compactor.stats().compaction_flushes, 0u);
  EXPECT_EQ(compactor.stats().chunks_emitted, 5u);
}

TEST(ChunkCompactor, ThresholdOneBuffersEveryPartialChunk) {
  ChunkCompactor compactor(2, /*density_threshold=*/1.0);
  DataChunk chunk(2);
  std::vector<uint32_t> emitted;  // column-0 values, in emission order
  uint64_t full_emissions = 0;
  const auto emit = [&](DataChunk* out) {
    full_emissions += out->ActiveRows() == kChunkCapacity ? 1 : 0;
    for (uint32_t i = 0; i < out->ActiveRows(); ++i) {
      emitted.push_back(out->column(0)[out->RowAt(i)]);
    }
  };

  // 5 chunks of 300 rows = 1500 rows: one full emission mid-stream, the
  // remaining 476 rows only on Flush.
  for (uint32_t i = 0; i < 5; ++i) {
    FillChunk(&chunk, 300, i * 300);
    compactor.Push(&chunk, emit);
  }
  EXPECT_EQ(emitted.size(), kChunkCapacity);
  EXPECT_EQ(full_emissions, 1u);
  compactor.Flush(emit);
  ASSERT_EQ(emitted.size(), 1500u);
  // Gathering preserves row order.
  for (uint32_t i = 0; i < 1500; ++i) EXPECT_EQ(emitted[i], i);
  EXPECT_EQ(compactor.stats().rows_compacted, 1500u);
  EXPECT_EQ(compactor.stats().chunks_emitted, 2u);
  EXPECT_EQ(compactor.stats().compaction_flushes, 2u);
}

TEST(ChunkCompactor, DenseChunksPassThroughSparseOnesBuffer) {
  ChunkCompactor compactor(1, /*density_threshold=*/0.5);
  DataChunk chunk(1);
  uint64_t pass_through = 0;
  uint64_t buffered_flushes = 0;
  const auto emit = [&](DataChunk* out) {
    pass_through += out == &chunk ? 1 : 0;
    buffered_flushes += out != &chunk ? 1 : 0;
  };

  FillChunk(&chunk, kChunkCapacity, 0);  // density 1.0 >= 0.5
  compactor.Push(&chunk, emit);
  EXPECT_EQ(pass_through, 1u);

  FillChunk(&chunk, 100, 0);  // density ~0.1 < 0.5
  compactor.Push(&chunk, emit);
  EXPECT_EQ(buffered_flushes, 0u);  // still accumulating
  compactor.Flush(emit);
  EXPECT_EQ(buffered_flushes, 1u);
  EXPECT_EQ(compactor.stats().rows_compacted, 100u);
}

TEST(ChunkCompactor, EmptyChunksAreDroppedAtTheBoundary) {
  ChunkCompactor compactor(1, /*density_threshold=*/0.25);
  DataChunk chunk(1);
  chunk.set_size(100);
  chunk.SetSelectionSize(0);  // filter killed every row
  compactor.Push(&chunk, [](DataChunk*) { FAIL() << "empty chunk emitted"; });
  EXPECT_EQ(compactor.stats().chunks_in, 1u);
  EXPECT_EQ(compactor.stats().chunks_emitted, 0u);
}

// --- Pipeline: scan-only segment --------------------------------------------

// Keeps keys strictly below `bound`.
class KeyBelowFilter final : public Operator {
 public:
  explicit KeyBelowFilter(uint32_t bound) : bound_(bound) {}
  const char* name() const override { return "test.key_below"; }
  int output_columns() const override { return 2; }
  bool is_filter() const override { return true; }
  void Apply(int tid, DataChunk* chunk) override {
    RefineSelection(chunk, [this](const DataChunk& c, uint32_t row) {
      return c.column(kScanKeyCol)[row] < bound_;
    });
  }

 private:
  uint32_t bound_;
};

TEST(Pipeline, ScanFilterAggregateMatchesScalarLoop) {
  auto probe =
      workload::MakeUniformProbe(System(), 100000, 1 << 16, 21).value();

  TupleScan scan(probe.cspan());
  KeyBelowFilter filter(1 << 14);  // ~25% selective
  CountAggregate aggregate({kScanKeyCol});
  Pipeline pipeline(&scan, {&filter}, &aggregate);

  PipelineConfig config;
  config.num_threads = 4;
  const PipelineStats stats = pipeline.Run(System(), config).value();

  uint64_t expected_rows = 0;
  uint64_t expected_checksum = 0;
  for (const Tuple& t : probe.cspan()) {
    if (t.key < (1u << 14)) {
      ++expected_rows;
      expected_checksum += t.key;
    }
  }
  EXPECT_EQ(aggregate.rows(), expected_rows);
  EXPECT_EQ(aggregate.checksum(), expected_checksum);
  EXPECT_EQ(stats.source_rows, probe.size());
  EXPECT_EQ(stats.sink_rows, expected_rows);
  EXPECT_FALSE(stats.has_join);
  EXPECT_GT(stats.total_ns, 0);
}

TEST(Pipeline, CompactionReducesSinkChunksWithoutChangingTheAnswer) {
  auto probe =
      workload::MakeUniformProbe(System(), 200000, 1 << 16, 22).value();
  const uint32_t bound = 1 << 11;  // ~3% selective -> sparse chunks

  auto run = [&](double threshold) {
    TupleScan scan(probe.cspan());
    KeyBelowFilter filter(bound);
    CountAggregate aggregate({kScanKeyCol});
    Pipeline pipeline(&scan, {&filter}, &aggregate);
    PipelineConfig config;
    config.num_threads = 4;
    config.compaction_threshold = threshold;
    const PipelineStats stats = pipeline.Run(System(), config).value();
    return std::pair<uint64_t, PipelineStats>(aggregate.rows(), stats);
  };

  const auto [rows_off, stats_off] = run(0.0);
  const auto [rows_on, stats_on] = run(1.0);
  EXPECT_EQ(rows_on, rows_off);
  EXPECT_EQ(stats_on.sink_rows, stats_off.sink_rows);
  // Without compaction every sparse post-filter chunk crosses the sink
  // boundary; with it they are gathered into (nearly) full buffers.
  EXPECT_LT(stats_on.sink_chunks, stats_off.sink_chunks);
  EXPECT_GT(stats_on.rows_compacted, 0u);
  EXPECT_GT(stats_on.compaction_flushes, 0u);
  EXPECT_EQ(stats_off.rows_compacted, 0u);
}

// --- Pipeline: join segment -------------------------------------------------

TEST(Pipeline, JoinSegmentAgreesWithReferenceJoin) {
  auto build = workload::MakeDenseBuild(System(), 20000, 23).value();
  auto probe =
      workload::MakeUniformProbe(System(), 100000, 20000, 24).value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());

  for (const double threshold : {0.0, 0.5, 1.0}) {
    TupleScan scan(probe.cspan());
    HashJoinProbe::Spec spec;
    spec.algorithm = join::Algorithm::kCPRL;
    spec.build = build.cspan();
    spec.key_domain = 20000;
    HashJoinProbe join_probe(spec);
    CountAggregate aggregate({kJoinBuildPayloadCol, kJoinProbePayloadCol});
    Pipeline pipeline(&scan, {&join_probe}, &aggregate);

    PipelineConfig config;
    config.num_threads = 4;
    config.compaction_threshold = threshold;
    const PipelineStats stats = pipeline.Run(System(), config).value();

    EXPECT_TRUE(stats.has_join);
    EXPECT_EQ(stats.join_matches, expected.matches) << threshold;
    EXPECT_EQ(stats.join_result.checksum, expected.checksum) << threshold;
    // The chunk stream delivered to the sink carries the same rows the
    // join reported -- nothing lost or duplicated at any boundary.
    EXPECT_EQ(aggregate.rows(), expected.matches) << threshold;
    EXPECT_EQ(aggregate.checksum(), expected.checksum) << threshold;
    EXPECT_EQ(stats.pre_join_ns + stats.join_ns, stats.total_ns);
  }
}

TEST(Pipeline, RejectsInvalidConfigurations) {
  auto build = workload::MakeDenseBuild(System(), 100, 25).value();
  auto probe = workload::MakeUniformProbe(System(), 100, 100, 26).value();

  TupleScan scan(probe.cspan());
  CountAggregate aggregate;
  {
    Pipeline pipeline(&scan, {}, &aggregate);
    PipelineConfig config;
    config.num_threads = 0;
    EXPECT_FALSE(pipeline.Run(System(), config).ok());
    config.num_threads = 2;
    config.compaction_threshold = 1.5;  // > 1 is meaningless
    EXPECT_FALSE(pipeline.Run(System(), config).ok());
  }
  {
    HashJoinProbe::Spec spec;
    spec.algorithm = join::Algorithm::kNOP;
    spec.build = build.cspan();
    HashJoinProbe j1(spec), j2(spec);
    Pipeline pipeline(&scan, {&j1, &j2}, &aggregate);  // two pipeline breakers
    EXPECT_FALSE(pipeline.Run(System(), PipelineConfig{}).ok());
  }
}

// --- Bushy composition: index materialize -> index scan ---------------------

TEST(Pipeline, IndexMaterializeThenIndexScanRoundTrips) {
  const uint64_t dim = 512;
  auto build = workload::MakeDenseBuild(System(), dim, 27).value();
  auto probe = workload::MakeUniformProbe(System(), 50000, dim, 28).value();

  // Pipeline 1: scan -> join -> materialize the join index.
  TupleScan scan(probe.cspan());
  HashJoinProbe::Spec spec;
  spec.algorithm = join::Algorithm::kCPRA;
  spec.build = build.cspan();
  spec.key_domain = dim;
  HashJoinProbe join_probe(spec);
  JoinIndexMaterialize index;
  Pipeline lower(&scan, {&join_probe}, &index);
  PipelineConfig config;
  config.num_threads = 4;
  const PipelineStats lower_stats = lower.Run(System(), config).value();
  EXPECT_EQ(index.size(), lower_stats.join_matches);
  const std::vector<join::MatchedPair> pairs = index.Gather();
  ASSERT_EQ(pairs.size(), probe.size());  // dense build: every probe matches

  // Pipeline 2: scan the index, filter on the key, count.
  const uint32_t bound = 100;
  JoinIndexScan index_scan(&pairs);
  struct IndexKeyBelow final : Operator {
    uint32_t bound;
    explicit IndexKeyBelow(uint32_t b) : bound(b) {}
    const char* name() const override { return "test.index_key_below"; }
    int output_columns() const override { return 3; }
    bool is_filter() const override { return true; }
    void Apply(int tid, DataChunk* chunk) override {
      RefineSelection(chunk, [this](const DataChunk& c, uint32_t row) {
        return c.column(kJoinKeyCol)[row] < bound;
      });
    }
  } key_filter(bound);
  CountAggregate aggregate;
  Pipeline upper(&index_scan, {&key_filter}, &aggregate);
  const PipelineStats upper_stats = upper.Run(System(), config).value();

  uint64_t expected = 0;
  for (const Tuple& t : probe.cspan()) expected += t.key < bound ? 1 : 0;
  EXPECT_EQ(aggregate.rows(), expected);
  EXPECT_EQ(upper_stats.source_rows, pairs.size());
}

}  // namespace
}  // namespace mmjoin::exec

// --- Differential Q19: thirteen algorithms x strategies x thresholds --------

namespace mmjoin::tpch {
namespace {

// Satellite of the pipeline rewrite: the pipelined Q19 must produce revenue
// identical (up to float summation tolerance) to the scalar reference for
// every join algorithm, under both reconstruction strategies, across the
// compaction-threshold range including the endpoints 0 (never compact) and
// 1 (always buffer partial chunks).
class Q19DifferentialTest : public ::testing::TestWithParam<join::Algorithm> {
 protected:
  static GeneratorOptions Options() {
    GeneratorOptions options;
    options.lineitem_rows = 120000;
    options.part_rows = 4000;
    options.seed = 7;
    return options;
  }
};

// TryRunQ19's plan rebuilt from public pieces, so the test can sweep the
// compaction threshold TryRunQ19 leaves at its default: scan(l_partkey) ->
// PreJoin -> join part -> PostJoin -> revenue, with kJoinIndex splitting
// the plan at a join index.
class PreJoinFilter final : public exec::Operator {
 public:
  explicit PreJoinFilter(const LineitemTable& l) : l_(l) {}
  const char* name() const override { return "test.pre_join"; }
  int output_columns() const override { return 2; }
  bool is_filter() const override { return true; }
  void Apply(int tid, exec::DataChunk* chunk) override {
    const uint32_t* row_l = chunk->column(exec::kScanPayloadCol);
    exec::RefineSelection(chunk, [&](const exec::DataChunk&, uint32_t row) {
      return PreJoin(l_, row_l[row]);
    });
  }

 private:
  const LineitemTable& l_;
};

class PostJoinFilter final : public exec::Operator {
 public:
  PostJoinFilter(const LineitemTable& l, const PartTable& p) : l_(l), p_(p) {}
  const char* name() const override { return "test.post_join"; }
  int output_columns() const override { return 3; }
  bool is_filter() const override { return true; }
  void Apply(int tid, exec::DataChunk* chunk) override {
    const uint32_t* row_p = chunk->column(exec::kJoinBuildPayloadCol);
    const uint32_t* row_l = chunk->column(exec::kJoinProbePayloadCol);
    exec::RefineSelection(chunk, [&](const exec::DataChunk&, uint32_t row) {
      return PostJoin(l_, p_, row_l[row], row_p[row]);
    });
  }

 private:
  const LineitemTable& l_;
  const PartTable& p_;
};

class RevenueSum final : public exec::Sink {
 public:
  explicit RevenueSum(const LineitemTable& l) : l_(l) {}
  const char* name() const override { return "test.revenue"; }
  void Open(int num_threads) override { sums_.assign(num_threads, 0.0); }
  void Append(int tid, const exec::DataChunk& chunk) override {
    const uint32_t* row_l = chunk.column(exec::kJoinProbePayloadCol);
    for (uint32_t i = 0; i < chunk.ActiveRows(); ++i) {
      const uint32_t row = row_l[chunk.RowAt(i)];
      sums_[tid] += static_cast<double>(l_.l_extendedprice()[row]) *
                    (1.0 - l_.l_discount()[row]);
    }
  }
  double total() const {
    double total = 0.0;
    for (const double sum : sums_) total += sum;
    return total;
  }

 private:
  const LineitemTable& l_;
  std::vector<double> sums_;  // per thread
};

StatusOr<double> RunQ19Plan(const LineitemTable& lineitem,
                            const PartTable& part, join::Algorithm algorithm,
                            Q19Strategy strategy, double threshold) {
  exec::PipelineConfig config;
  config.num_threads = 4;
  config.compaction_threshold = threshold;
  exec::TupleScan scan(
      ConstTupleSpan(lineitem.l_partkey(), lineitem.num_tuples()));
  PreJoinFilter pre_filter(lineitem);
  exec::HashJoinProbe::Spec spec;
  spec.algorithm = algorithm;
  spec.build = ConstTupleSpan(part.p_partkey(), part.num_tuples());
  spec.key_domain = part.num_tuples();
  exec::HashJoinProbe join_probe(spec);
  PostJoinFilter post_filter(lineitem, part);
  RevenueSum revenue(lineitem);
  if (strategy == Q19Strategy::kPipelined) {
    exec::Pipeline pipeline(&scan, {&pre_filter, &join_probe, &post_filter},
                            &revenue);
    MMJOIN_RETURN_IF_ERROR(pipeline.Run(exec::System(), config).status());
    return revenue.total();
  }
  exec::JoinIndexMaterialize index;
  exec::Pipeline join_pipeline(&scan, {&pre_filter, &join_probe}, &index);
  MMJOIN_RETURN_IF_ERROR(join_pipeline.Run(exec::System(), config).status());
  const std::vector<join::MatchedPair> pairs = index.Gather();
  exec::JoinIndexScan index_scan(&pairs);
  exec::Pipeline post_pipeline(&index_scan, {&post_filter}, &revenue);
  MMJOIN_RETURN_IF_ERROR(post_pipeline.Run(exec::System(), config).status());
  return revenue.total();
}

TEST_P(Q19DifferentialTest, RevenueMatchesReferenceAcrossThresholds) {
  static const GeneratorOptions options = Options();
  static const LineitemTable lineitem =
      GenerateLineitem(exec::System(), options);
  static const PartTable part = GeneratePart(exec::System(), options);
  static const double expected = Q19Reference(lineitem, part);
  const double tolerance = std::abs(expected) * 1e-9 + 1e-6;

  for (const Q19Strategy strategy :
       {Q19Strategy::kPipelined, Q19Strategy::kJoinIndex}) {
    const StatusOr<Q19Result> result =
        TryRunQ19(exec::System(), lineitem, part, GetParam(),
                  /*num_threads=*/4, strategy);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_NEAR(result->revenue, expected, tolerance)
        << join::NameOf(GetParam()) << " strategy="
        << static_cast<int>(strategy);
    EXPECT_EQ(result->join_matches, result->filtered_rows)
        << join::NameOf(GetParam());
    for (const double threshold : {0.0, 0.5, 1.0}) {
      const StatusOr<double> revenue =
          RunQ19Plan(lineitem, part, GetParam(), strategy, threshold);
      ASSERT_TRUE(revenue.ok()) << revenue.status().ToString();
      EXPECT_NEAR(*revenue, expected, tolerance)
          << join::NameOf(GetParam()) << " strategy="
          << static_cast<int>(strategy) << " threshold=" << threshold;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllThirteen, Q19DifferentialTest,
    ::testing::ValuesIn(join::AllAlgorithms()),
    [](const ::testing::TestParamInfo<join::Algorithm>& info) {
      return std::string(join::NameOf(info.param));
    });

}  // namespace
}  // namespace mmjoin::tpch
