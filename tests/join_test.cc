// Cross-algorithm correctness tests: all thirteen joins must produce the
// exact same result as the single-threaded reference join on every workload
// class the paper evaluates (dense/uniform, 1:1 ratio, Zipf-skewed, sparse
// domains, tiny inputs), under varying thread counts, radix bits, and skew
// task splitting.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "join/join_algorithm.h"
#include "join/join_plan.h"
#include "join/reference.h"
#include "mem/budget.h"
#include "numa/system.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "obs/trace.h"
#include "partition/model.h"
#include "util/bits.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mmjoin::join {
namespace {

numa::NumaSystem* System() {
  static auto* system = new numa::NumaSystem(4);
  return system;
}

void ExpectMatchesReference(Algorithm algorithm,
                            const workload::Relation& build,
                            const workload::Relation& probe,
                            const JoinConfig& config,
                            const std::string& context) {
  const JoinResult expected = ReferenceJoin(build.cspan(), probe.cspan());
  const JoinResult actual =
      RunJoin(algorithm, System(), config, build, probe).value();
  EXPECT_EQ(actual.matches, expected.matches)
      << NameOf(algorithm) << " " << context;
  EXPECT_EQ(actual.checksum, expected.checksum)
      << NameOf(algorithm) << " " << context;
  EXPECT_GT(actual.times.total_ns, 0);
}

class AllJoinsTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(AllJoinsTest, DensePkUniformFk) {
  workload::Relation build = workload::MakeDenseBuild(System(), 20000, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 100000, 20000, 2).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "dense/uniform");
}

TEST_P(AllJoinsTest, EqualSizedRelations) {
  workload::Relation build = workload::MakeDenseBuild(System(), 30000, 3).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 30000, 30000, 4).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "1:1");
}

TEST_P(AllJoinsTest, SkewedProbeZipf099) {
  workload::Relation build = workload::MakeDenseBuild(System(), 16384, 5).value();
  workload::Relation probe =
      workload::MakeZipfProbe(System(), 100000, 16384, 0.99, 6).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "zipf 0.99");
}

TEST_P(AllJoinsTest, SkewedProbeWithAggressiveTaskSplitting) {
  workload::Relation build = workload::MakeDenseBuild(System(), 8192, 7).value();
  workload::Relation probe =
      workload::MakeZipfProbe(System(), 60000, 8192, 0.9, 8).value();
  JoinConfig config;
  config.num_threads = 4;
  config.skew_task_factor = 2;  // force many probe slices
  ExpectMatchesReference(GetParam(), build, probe, config, "skew slicing");
}

TEST_P(AllJoinsTest, SparseDomainHoles) {
  workload::Relation build = workload::MakeSparseBuild(System(), 10000, 7, 9).value();
  workload::Relation probe =
      workload::MakeProbeFromBuild(System(), 80000, build, 10).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "holes k=7");
}

TEST_P(AllJoinsTest, TinyInputs) {
  workload::Relation build = workload::MakeDenseBuild(System(), 10, 11).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 37, 10, 12).value();
  JoinConfig config;
  config.num_threads = 4;  // more threads than sensible for 10 tuples
  ExpectMatchesReference(GetParam(), build, probe, config, "tiny");
}

TEST_P(AllJoinsTest, SingleThread) {
  workload::Relation build = workload::MakeDenseBuild(System(), 5000, 13).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 25000, 5000, 14).value();
  JoinConfig config;
  config.num_threads = 1;
  ExpectMatchesReference(GetParam(), build, probe, config, "1 thread");
}

TEST_P(AllJoinsTest, NonPowerOfTwoThreads) {
  workload::Relation build = workload::MakeDenseBuild(System(), 12000, 15).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 60000, 12000, 16).value();
  JoinConfig config;
  config.num_threads = 7;
  ExpectMatchesReference(GetParam(), build, probe, config, "7 threads");
}

TEST_P(AllJoinsTest, ExplicitRadixBits) {
  workload::Relation build = workload::MakeDenseBuild(System(), 20000, 17).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 60000, 20000, 18).value();
  for (const uint32_t bits : {1u, 5u, 10u}) {
    JoinConfig config;
    config.num_threads = 4;
    config.radix_bits = bits;
    ExpectMatchesReference(GetParam(), build, probe, config,
                           "bits=" + std::to_string(bits));
  }
}

TEST_P(AllJoinsTest, ProbeSmallerThanBuild) {
  workload::Relation build = workload::MakeDenseBuild(System(), 20000, 19).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 1000, 20000, 20).value();
  JoinConfig config;
  config.num_threads = 4;
  ExpectMatchesReference(GetParam(), build, probe, config, "small probe");
}

// Exact multiset of matched pairs via a MatchSink on a small input. Also
// counts, per thread, delivered chunks outside [1, MatchChunk::kCapacity].
class PairCollectorSink final : public MatchSink {
 public:
  explicit PairCollectorSink(int num_threads)
      : pairs_(num_threads), bad_chunks_(num_threads, 0) {}
  void ConsumeChunk(int tid, const MatchChunk& chunk) override {
    if (chunk.size < 1 || chunk.size > MatchChunk::kCapacity) {
      ++bad_chunks_[tid];
      return;
    }
    for (uint32_t i = 0; i < chunk.size; ++i) {
      pairs_[tid].emplace_back(chunk.build_payload[i], chunk.probe_payload[i]);
    }
  }
  uint64_t BadChunks() const {
    uint64_t total = 0;
    for (const uint64_t bad : bad_chunks_) total += bad;
    return total;
  }
  std::vector<std::pair<uint32_t, uint32_t>> Sorted() const {
    std::vector<std::pair<uint32_t, uint32_t>> all;
    for (const auto& local : pairs_) {
      all.insert(all.end(), local.begin(), local.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

 private:
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> pairs_;
  std::vector<uint64_t> bad_chunks_;
};

TEST_P(AllJoinsTest, MaterializedPairsExactlyMatchReference) {
  workload::Relation build = workload::MakeDenseBuild(System(), 3000, 21).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 9000, 3000, 22).value();
  const auto expected = ReferenceJoinPairs(build.cspan(), probe.cspan());

  PairCollectorSink sink(4);
  JoinConfig config;
  config.num_threads = 4;
  config.sink = &sink;
  RunJoin(GetParam(), System(), config, build, probe).value();
  EXPECT_EQ(sink.BadChunks(), 0u) << NameOf(GetParam());
  EXPECT_EQ(sink.Sorted(), expected) << NameOf(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    All, AllJoinsTest, ::testing::ValuesIn(AllAlgorithms()),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(NameOf(info.param));
    });

// --- Duplicate build keys (non-array algorithms only; array tables require
// unique keys by construction, as in the paper). ---------------------------

class DuplicateJoinsTest : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DuplicateJoinsTest, DuplicateBuildKeys) {
  numa::NumaSystem* system = System();
  workload::Relation build(system, 10000);
  Rng rng(23);
  for (uint64_t i = 0; i < build.size(); ++i) {
    build.data()[i] = Tuple{static_cast<uint32_t>(rng.NextBelow(3000)),
                            static_cast<uint32_t>(i)};
  }
  build.set_key_domain(3000);
  workload::Relation probe =
      workload::MakeUniformProbe(system, 20000, 3000, 24).value();

  JoinConfig config;
  config.num_threads = 4;
  config.build_unique = false;
  ExpectMatchesReference(GetParam(), build, probe, config, "dup builds");
}

INSTANTIATE_TEST_SUITE_P(
    NonArray, DuplicateJoinsTest,
    ::testing::Values(Algorithm::kPRB, Algorithm::kNOP, Algorithm::kCHTJ,
                      Algorithm::kMWAY, Algorithm::kPRO, Algorithm::kPRL,
                      Algorithm::kCPRL, Algorithm::kPROiS,
                      Algorithm::kPRLiS),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      return std::string(NameOf(info.param));
    });

// --- MWAY at full fan-in ------------------------------------------------------

// One thread sorts the whole of S as one co-partition: 2.5M tuples are 77
// runs, so the merge tree has MWAY's real fan-in, and its FIFOs are carved
// out of the partition buffer.
TEST(MwayJoin, SeventySevenRunsInOnePartition) {
  workload::Relation build =
      workload::MakeDenseBuild(System(), 250000, 31).value();
  JoinConfig config;
  config.num_threads = 1;
  workload::Relation uniform =
      workload::MakeUniformProbe(System(), 2500000, 250000, 32).value();
  ExpectMatchesReference(Algorithm::kMWAY, build, uniform, config,
                         "77 runs, uniform");
  workload::Relation zipf =
      workload::MakeZipfProbe(System(), 2500000, 250000, 0.85, 33).value();
  ExpectMatchesReference(Algorithm::kMWAY, build, zipf, config,
                         "77 runs, Zipf 0.85");
}

// --- Registry metadata ------------------------------------------------------

TEST(Registry, ThirteenAlgorithms) {
  EXPECT_EQ(AllAlgorithms().size(), 13u);
}

TEST(Registry, NamesRoundTrip) {
  for (const Algorithm algorithm : AllAlgorithms()) {
    const auto parsed = AlgorithmFromName(NameOf(algorithm));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, algorithm);
  }
  EXPECT_FALSE(AlgorithmFromName("NOPE").has_value());
}

TEST(Registry, ClassTaxonomyMatchesPaperTable1) {
  EXPECT_EQ(InfoOf(Algorithm::kPRB).join_class, JoinClass::kPartitionBased);
  EXPECT_EQ(InfoOf(Algorithm::kNOP).join_class, JoinClass::kNoPartitioning);
  EXPECT_EQ(InfoOf(Algorithm::kCHTJ).join_class,
            JoinClass::kNoPartitioning);
  EXPECT_EQ(InfoOf(Algorithm::kMWAY).join_class, JoinClass::kSortMerge);
  EXPECT_EQ(InfoOf(Algorithm::kCPRL).join_class,
            JoinClass::kPartitionBased);
}

TEST(Registry, ArrayJoinsFlagDenseRequirement) {
  EXPECT_TRUE(InfoOf(Algorithm::kNOPA).requires_dense_keys);
  EXPECT_TRUE(InfoOf(Algorithm::kPRA).requires_dense_keys);
  EXPECT_TRUE(InfoOf(Algorithm::kCPRA).requires_dense_keys);
  EXPECT_TRUE(InfoOf(Algorithm::kPRAiS).requires_dense_keys);
  EXPECT_FALSE(InfoOf(Algorithm::kNOP).requires_dense_keys);
}

// --- Phase time sanity -------------------------------------------------------

TEST(PhaseTimes, PartitionJoinsReportPartitionPhase) {
  workload::Relation build = workload::MakeDenseBuild(System(), 50000, 25).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 200000, 50000, 26).value();
  JoinConfig config;
  config.num_threads = 4;
  for (const Algorithm algorithm :
       {Algorithm::kPRO, Algorithm::kCPRL, Algorithm::kPRB}) {
    const JoinResult result =
        RunJoin(algorithm, System(), config, build, probe).value();
    EXPECT_GT(result.times.partition_ns, 0) << NameOf(algorithm);
    EXPECT_GT(result.times.probe_ns, 0) << NameOf(algorithm);
    EXPECT_GE(result.times.total_ns,
              result.times.partition_ns + result.times.probe_ns - 1000000)
        << NameOf(algorithm);
  }
}

TEST(PhaseTimes, NopReportsBuildAndProbe) {
  workload::Relation build = workload::MakeDenseBuild(System(), 50000, 27).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 200000, 50000, 28).value();
  JoinConfig config;
  config.num_threads = 4;
  const JoinResult result =
      RunJoin(Algorithm::kNOP, System(), config, build, probe).value();
  EXPECT_GT(result.times.build_ns, 0);
  EXPECT_GT(result.times.probe_ns, 0);
  EXPECT_EQ(result.times.partition_ns, 0);
}

// Every algorithm's PhaseTimes follow its class's mapping and tile the timed
// region exactly, and its phase profile is recorded with observability off:
// wall clock only, no hardware counters and no trace spans.
TEST(PhaseTimes, EveryAlgorithmFollowsItsClassMapping) {
  ASSERT_FALSE(obs::Enabled());
  workload::Relation build =
      workload::MakeDenseBuild(System(), 50000, 25).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 200000, 50000, 26).value();
  JoinConfig config;
  config.num_threads = 4;
  const uint64_t spans_before = obs::TraceRecorder::Get().recorded_spans();

  auto check = [&](Algorithm algorithm, const std::string& what) {
    const JoinResult result =
        RunJoin(algorithm, System(), config, build, probe).value();
    const PhaseTimes& times = result.times;
    EXPECT_EQ(times.partition_ns + times.build_ns + times.probe_ns,
              times.total_ns)
        << what;
    EXPECT_GT(times.probe_ns, 0) << what;
    const obs::PhaseProfile& profile = result.profile;
    EXPECT_FALSE(profile.CountersValid()) << what;
    auto threads = [&](obs::JoinPhase phase) {
      return profile.Of(phase).threads;
    };
    switch (InfoOf(algorithm).join_class) {
      case JoinClass::kPartitionBased:
        EXPECT_GT(times.partition_ns, 0) << what;
        EXPECT_EQ(times.build_ns, 0) << what;
        EXPECT_GT(threads(obs::JoinPhase::kPartitionPass1), 0) << what;
        EXPECT_GT(threads(obs::JoinPhase::kBuild), 0) << what;
        EXPECT_GT(threads(obs::JoinPhase::kProbe), 0) << what;
        break;
      case JoinClass::kNoPartitioning:
        EXPECT_EQ(times.partition_ns, 0) << what;
        EXPECT_GT(times.build_ns, 0) << what;
        EXPECT_EQ(threads(obs::JoinPhase::kBuild), config.num_threads) << what;
        EXPECT_EQ(threads(obs::JoinPhase::kProbe), config.num_threads) << what;
        break;
      case JoinClass::kSortMerge:
        EXPECT_GT(times.partition_ns, 0) << what;
        EXPECT_GT(times.build_ns, 0) << what;
        EXPECT_EQ(threads(obs::JoinPhase::kPartitionPass1), config.num_threads)
            << what;
        EXPECT_GT(threads(obs::JoinPhase::kSort), 0) << what;
        EXPECT_GT(threads(obs::JoinPhase::kMerge), 0) << what;
        break;
    }
  };
  for (const Algorithm algorithm : AllAlgorithms()) {
    check(algorithm, NameOf(algorithm));
  }
  // Spill waves: partition_ns covers R only, and the mapping still holds.
  ASSERT_TRUE(failpoint::Configure("budget.wave=once").ok());
  check(Algorithm::kPRO, "PRO in two spill waves");
  failpoint::DeactivateAll();

  EXPECT_EQ(obs::TraceRecorder::Get().recorded_spans(), spans_before);
}

TEST(Throughput, UsesInputBasedDefinition) {
  JoinResult result;
  result.times.total_ns = 1'000'000'000;  // 1 s
  result.matches = 1;                     // output-insensitive
  EXPECT_DOUBLE_EQ(result.ThroughputMtps(600'000'000, 400'000'000), 1000.0);
}

// --- Radix-join plans --------------------------------------------------------
//
// PlanJoin pinned for all nine partition-based joins under the paper's
// CacheSpec, 4 threads, dense keys and |S| = 4|R|. The expected values were
// recorded from the per-family PR/CPR kernels the planner replaced, with the
// default bits since floored at 8 partitions per thread (5 bits at 4
// threads), so any other drift here changes the partitioning of an existing
// algorithm.

using internal::JoinPlan;
using internal::PlanJoin;
using internal::RadixTable;
using internal::TaskOrder;

JoinPlan PlanFor(Algorithm algorithm, uint64_t build_tuples,
                      const JoinConfig& config) {
  return PlanJoin(algorithm, config, build_tuples, 4 * build_tuples,
                       build_tuples, partition::CacheSpec{});
}

uint32_t PassesOf(const JoinPlan& plan) { return plan.two_pass() ? 2 : 1; }

// The budget PRB reserves (and a run measures as its peak) at `bits`.
uint64_t PrbPeak(uint64_t build_tuples, uint32_t bits) {
  mem::BudgetTracker ample(uint64_t{1} << 40);
  JoinConfig config;
  config.radix_bits = bits;
  config.budget = &ample;
  return PlanFor(Algorithm::kPRB, build_tuples, config).planned_bytes;
}

TEST(RadixPlan, ShapeFollowsTheAlgorithm) {
  using A = Algorithm;
  struct Shape {
    Algorithm algorithm;
    bool chunked;
    RadixTable table;
    TaskOrder order;
    bool swwcb;
  };
  const Shape shapes[] = {
      {A::kPRB, false, RadixTable::kChained, TaskOrder::kSequential, false},
      {A::kPRO, false, RadixTable::kChained, TaskOrder::kSequential, true},
      {A::kPRL, false, RadixTable::kLinear, TaskOrder::kSequential, true},
      {A::kPRA, false, RadixTable::kArray, TaskOrder::kSequential, true},
      {A::kPROiS, false, RadixTable::kChained, TaskOrder::kRoundRobinByNode,
       true},
      {A::kPRLiS, false, RadixTable::kLinear, TaskOrder::kRoundRobinByNode,
       true},
      {A::kPRAiS, false, RadixTable::kArray, TaskOrder::kRoundRobinByNode,
       true},
      {A::kCPRL, true, RadixTable::kLinear, TaskOrder::kChunkBlocks, true},
      {A::kCPRA, true, RadixTable::kArray, TaskOrder::kChunkBlocks, true},
  };
  for (const Shape& shape : shapes) {
    const JoinPlan plan = PlanFor(shape.algorithm, 50000, JoinConfig{});
    EXPECT_EQ(plan.chunked(), shape.chunked) << NameOf(shape.algorithm);
    EXPECT_EQ(plan.table, shape.table) << NameOf(shape.algorithm);
    EXPECT_EQ(plan.order, shape.order) << NameOf(shape.algorithm);
    EXPECT_EQ(plan.use_swwcb, shape.swwcb) << NameOf(shape.algorithm);
  }
}

TEST(RadixPlan, BitsAndPassesMatchTheHistoricalKernels) {
  using A = Algorithm;
  struct BitsPasses {
    uint32_t bits;
    uint32_t passes;
  };
  // Per geometry: the default plan, num_passes = 1, num_passes = 2,
  // radix_bits = 10, and a budget just under PRB's peak at default bits
  // (PRB escalates a bit and keeps two passes; the others already fit).
  struct Row {
    Algorithm algorithm;
    uint64_t build_tuples;
    BitsPasses by_default, one_pass, two_pass, pinned, tight;
  };
  const Row rows[] = {
      {A::kPRB, 8192, {5, 2}, {5, 1}, {5, 2}, {10, 2}, {6, 2}},
      {A::kPRO, 8192, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRL, 8192, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRA, 8192, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kCPRL, 8192, {5, 1}, {5, 1}, {5, 1}, {10, 1}, {5, 1}},
      {A::kCPRA, 8192, {5, 1}, {5, 1}, {5, 1}, {10, 1}, {5, 1}},
      {A::kPROiS, 8192, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRLiS, 8192, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRAiS, 8192, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRB, 50000, {5, 2}, {5, 1}, {5, 2}, {10, 2}, {6, 2}},
      {A::kPRO, 50000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRL, 50000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRA, 50000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kCPRL, 50000, {5, 1}, {5, 1}, {5, 1}, {10, 1}, {5, 1}},
      {A::kCPRA, 50000, {5, 1}, {5, 1}, {5, 1}, {10, 1}, {5, 1}},
      {A::kPROiS, 50000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRLiS, 50000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRAiS, 50000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRB, 200000, {5, 2}, {5, 1}, {5, 2}, {10, 2}, {6, 2}},
      {A::kPRO, 200000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRL, 200000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRA, 200000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kCPRL, 200000, {5, 1}, {5, 1}, {5, 1}, {10, 1}, {5, 1}},
      {A::kCPRA, 200000, {5, 1}, {5, 1}, {5, 1}, {10, 1}, {5, 1}},
      {A::kPROiS, 200000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRLiS, 200000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRAiS, 200000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kPRB, 1000000, {6, 2}, {6, 1}, {6, 2}, {10, 2}, {7, 2}},
      {A::kPRO, 1000000, {6, 1}, {6, 1}, {6, 2}, {10, 1}, {6, 1}},
      {A::kPRL, 1000000, {6, 1}, {6, 1}, {6, 2}, {10, 1}, {6, 1}},
      {A::kPRA, 1000000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
      {A::kCPRL, 1000000, {6, 1}, {6, 1}, {6, 1}, {10, 1}, {6, 1}},
      {A::kCPRA, 1000000, {5, 1}, {5, 1}, {5, 1}, {10, 1}, {5, 1}},
      {A::kPROiS, 1000000, {6, 1}, {6, 1}, {6, 2}, {10, 1}, {6, 1}},
      {A::kPRLiS, 1000000, {6, 1}, {6, 1}, {6, 2}, {10, 1}, {6, 1}},
      {A::kPRAiS, 1000000, {5, 1}, {5, 1}, {5, 2}, {10, 1}, {5, 1}},
  };
  for (const Row& row : rows) {
    const std::string what = std::string(NameOf(row.algorithm)) + " |R|=" +
                             std::to_string(row.build_tuples);
    JoinConfig one_pass;
    one_pass.num_passes = 1;
    JoinConfig two_pass;
    two_pass.num_passes = 2;
    JoinConfig pinned;
    pinned.radix_bits = 10;
    mem::BudgetTracker tracker(PrbPeak(row.build_tuples, 0) - 1);
    JoinConfig tight;
    tight.budget = &tracker;
    const std::pair<JoinConfig, BitsPasses> cases[] = {
        {JoinConfig{}, row.by_default}, {one_pass, row.one_pass},
        {two_pass, row.two_pass},       {pinned, row.pinned},
        {tight, row.tight}};
    for (const auto& [config, expected] : cases) {
      const JoinPlan plan =
          PlanFor(row.algorithm, row.build_tuples, config);
      EXPECT_EQ(plan.radix_bits, expected.bits) << what;
      EXPECT_EQ(PassesOf(plan), expected.passes) << what;
      EXPECT_EQ(plan.wave_count, 1u) << what;
      if (plan.budget_bytes != 0) {
        EXPECT_LE(plan.planned_bytes, plan.budget_bytes) << what;
      }
    }
  }
}

// Default bits are Equation (1) floored at 8 partitions per thread, then
// clamped to one partition per build tuple; pinned bits are never raised.
// Another bit only shrinks the worker tables, so the floor never plans more
// memory than Equation (1) alone, and it is not a budget re-plan.
TEST(RadixPlan, DefaultBitsGiveEveryThreadPartitions) {
  // Per RadixTable, in enum order.
  const partition::TableSpaceSpec spaces[] = {partition::kChainedSpace,
                                              partition::kLinearSpace,
                                              partition::kArraySpace};
  const partition::CacheSpec cache;
  mem::BudgetTracker unbounded(0);
  for (const Algorithm algorithm : AllAlgorithms()) {
    if (InfoOf(algorithm).join_class != JoinClass::kPartitionBased) continue;
    for (const int threads : {1, 2, 3, 4, 8}) {
      for (const uint64_t build_tuples : {1u, 7u, 8192u, 250000u, 1000000u}) {
        const std::string what = std::string(NameOf(algorithm)) +
                                 " threads=" + std::to_string(threads) +
                                 " |R|=" + std::to_string(build_tuples);
        JoinConfig config;
        config.num_threads = threads;
        config.budget = &unbounded;
        const auto plan_with = [&](const JoinConfig& c) {
          return PlanJoin(algorithm, c, build_tuples, 4 * build_tuples,
                          build_tuples, cache);
        };
        const JoinPlan plan = plan_with(config);
        const uint64_t wanted =
            std::min<uint64_t>(8 * static_cast<uint64_t>(threads),
                               uint64_t{1} << CeilLog2(build_tuples));
        EXPECT_GE(uint64_t{1} << plan.radix_bits, wanted) << what;
        EXPECT_FALSE(plan.bits_replanned) << what;

        JoinConfig pinned = config;
        pinned.radix_bits = 1;
        EXPECT_EQ(plan_with(pinned).radix_bits, 1u) << what;

        pinned.radix_bits = partition::PredictRadixBits(
            build_tuples, spaces[static_cast<int>(plan.table)], threads,
            cache);
        EXPECT_LE(plan.planned_bytes, plan_with(pinned).planned_bytes)
            << what;
      }
    }
  }
}

// With the bits pinned PRB cannot escalate, so a budget one byte under its
// peak must drop pass 2; a third of it additionally needs two spill waves.
// Every other join runs one pass anyway and plans the same.
TEST(RadixPlan, TightBudgetDropsPassTwoThenSplitsWaves) {
  for (const uint64_t build_tuples : {8192u, 50000u, 200000u, 1000000u}) {
    const uint64_t peak = PrbPeak(build_tuples, 10);
    for (const Algorithm algorithm : AllAlgorithms()) {
      if (InfoOf(algorithm).join_class != JoinClass::kPartitionBased) continue;
      const std::string what = std::string(NameOf(algorithm)) + " |R|=" +
                               std::to_string(build_tuples);
      mem::BudgetTracker just_under(peak - 1);
      mem::BudgetTracker third(peak / 3);
      JoinConfig config;
      config.radix_bits = 10;
      config.budget = &just_under;
      JoinPlan plan = PlanFor(algorithm, build_tuples, config);
      EXPECT_EQ(plan.radix_bits, 10u) << what;
      EXPECT_EQ(PassesOf(plan), 1u) << what;
      EXPECT_EQ(plan.wave_count, 1u) << what;
      EXPECT_EQ(plan.budget_dropped_pass2, algorithm == Algorithm::kPRB)
          << what;
      EXPECT_LE(plan.planned_bytes, peak - 1) << what;

      config.budget = &third;
      plan = PlanFor(algorithm, build_tuples, config);
      EXPECT_EQ(plan.radix_bits, 10u) << what;
      EXPECT_EQ(PassesOf(plan), 1u) << what;
      EXPECT_EQ(plan.wave_count, 2u) << what;
    }
  }
}

// A budget that forces spill waves escalates radix bits only while another
// bit shrinks the plan, and never past the 4 KB per-worker scratch floor.
// Without the floor every bit shrinks a table's power-of-two tail a little
// (PRO's chained table would escalate to 20 bits, 2^20 partitions), while
// each thread's partition pass allocates a 64-byte SWWCB line per partition
// that no budget sees. At |R| = 1M the floor stops the hash tables at 13 or
// 14 bits (<= 1 MiB of SWWCB per thread) and the arrays at 10.
TEST(RadixPlan, WaveBudgetStopsBitsAtTheScratchFloor) {
  constexpr uint64_t kBuild = 1000000;
  constexpr uint64_t kProbe = 4 * kBuild;
  // R, a quarter of S per wave, and 1 MiB for the worker tables.
  mem::BudgetTracker tracker((kBuild + kProbe / 4) * sizeof(Tuple) +
                             (1u << 20));
  JoinConfig config;
  config.num_threads = 4;
  config.budget = &tracker;
  for (const Algorithm algorithm : AllAlgorithms()) {
    if (InfoOf(algorithm).join_class != JoinClass::kPartitionBased) continue;
    const JoinPlan plan = PlanFor(algorithm, kBuild, config);
    const uint32_t floor_bits =
        InfoOf(algorithm).requires_dense_keys ? 10 : 14;
    EXPECT_GT(plan.wave_count, 1u) << NameOf(algorithm);
    EXPECT_LE(plan.radix_bits, floor_bits) << NameOf(algorithm);
    EXPECT_LE(plan.planned_bytes, tracker.budget_bytes()) << NameOf(algorithm);
  }
}

// The budget PrbPeak plans is what a PRB run reserves and measures.
TEST(RadixPlan, PlannedBytesAreTheMeasuredPeak) {
  workload::Relation build =
      workload::MakeDenseBuild(System(), 8192, 5).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 4 * 8192, 8192, 6).value();
  mem::BudgetTracker measure(uint64_t{1} << 40);
  JoinConfig config;
  config.radix_bits = 10;
  config.budget = &measure;
  ASSERT_TRUE(RunJoin(Algorithm::kPRB, System(), config, build, probe).ok());
  EXPECT_EQ(measure.peak_reserved_bytes(), PrbPeak(8192, 10));
}

TEST(RadixPlan, WaveFailpointForcesOnePassWaves) {
  for (const Algorithm algorithm : AllAlgorithms()) {
    if (InfoOf(algorithm).join_class != JoinClass::kPartitionBased) continue;
    ASSERT_TRUE(failpoint::Configure("budget.wave=once").ok());
    const JoinPlan plan = PlanFor(algorithm, 50000, JoinConfig{});
    failpoint::DeactivateAll();
    EXPECT_EQ(plan.wave_count, 2u) << NameOf(algorithm);
    EXPECT_EQ(PassesOf(plan), 1u) << NameOf(algorithm);
    EXPECT_EQ(plan.wave_dropped_pass2, algorithm == Algorithm::kPRB)
        << NameOf(algorithm);
  }
}

uint64_t CounterValue(const std::string& name) {
  for (const obs::Metric& metric : obs::MetricsRegistry::Get().Snapshot()) {
    if (metric.name == name) return metric.value;
  }
  return 0;
}

// Task seeding of one skewed run per algorithm (Zipf theta = 1.25, 64
// partitions), pinned to the historical kernels' counter deltas.
TEST(RadixPlan, SkewedRunSeedsThePinnedTasks) {
  const uint64_t build_size = 1 << 15;
  workload::Relation build =
      workload::MakeDenseBuild(System(), build_size, 11).value();
  workload::Relation probe = workload::MakeZipfProbe(
      System(), 1 << 17, build_size, /*theta=*/1.25, 12).value();
  JoinConfig config;
  config.num_threads = 4;
  config.radix_bits = 6;
  config.skew_task_factor = 4;
  for (const Algorithm algorithm : AllAlgorithms()) {
    if (InfoOf(algorithm).join_class != JoinClass::kPartitionBased) continue;
    const uint64_t seeded = CounterValue("join.tasks_seeded");
    const uint64_t slices = CounterValue("join.skew_slices");
    const uint64_t split = CounterValue("join.skew_partitions");
    ExpectMatchesReference(algorithm, build, probe, config, "zipf 1.25");
    EXPECT_EQ(CounterValue("join.tasks_seeded") - seeded, 70u)
        << NameOf(algorithm);
    EXPECT_EQ(CounterValue("join.skew_slices") - slices, 6u)
        << NameOf(algorithm);
    EXPECT_EQ(CounterValue("join.skew_partitions") - split, 3u)
        << NameOf(algorithm);
  }
}

// Counted work of a default plan with the host's own cache sizes: where L2
// is large (2 MiB per core), Equation (1) alone gives the array joins 1 bit
// at |R| = 2^20, 2 tasks for 4 threads; the floor seeds at least 8 per
// thread on any host.
TEST(RadixPlan, DefaultPlanSeedsTasksForEveryThread) {
  const uint64_t build_size = 1 << 20;
  workload::Relation build =
      workload::MakeDenseBuild(System(), build_size, 13).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), build_size, build_size, 14).value();
  JoinConfig config;
  config.num_threads = 4;
  const uint64_t seeded = CounterValue("join.tasks_seeded");
  ASSERT_TRUE(RunJoin(Algorithm::kPRA, System(), config, build, probe).ok());
  EXPECT_GE(CounterValue("join.tasks_seeded") - seeded, 32u);
}

}  // namespace
}  // namespace mmjoin::join
