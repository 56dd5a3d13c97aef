// Tests for the core facade: Joiner, materialization sinks, and stray-key
// robustness of the public API.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "core/mmjoin.h"
#include "tpch/generator.h"
#include "tpch/q19.h"
#include "util/rng.h"

namespace mmjoin::core {
namespace {

TEST(Joiner, RunMatchesReference) {
  Joiner joiner;
  auto build = workload::MakeDenseBuild(joiner.system(), 10000, 1).value();
  auto probe =
      workload::MakeUniformProbe(joiner.system(), 50000, 10000, 2).value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());
  const join::JoinResult result =
      joiner.Run(join::Algorithm::kCPRA, build, probe).value();
  EXPECT_EQ(result.matches, expected.matches);
  EXPECT_EQ(result.checksum, expected.checksum);
}

TEST(Joiner, RunMaterializedReturnsAllPairs) {
  Joiner joiner;
  auto build = workload::MakeDenseBuild(joiner.system(), 500, 7).value();
  auto probe = workload::MakeUniformProbe(joiner.system(), 3000, 500, 8).value();
  auto pairs =
      joiner.RunMaterialized(join::Algorithm::kPROiS, build, probe).value();
  ASSERT_EQ(pairs.size(), 3000u);
  // Every pair joins on the key (dense build: payload == key).
  for (const join::MatchedPair& pair : pairs) {
    EXPECT_EQ(pair.build_payload, pair.key);
    EXPECT_LT(pair.probe_payload, 3000u);
  }
  // Probe payloads are row ids: each appears exactly once.
  std::set<uint32_t> probe_rows;
  for (const join::MatchedPair& pair : pairs) {
    probe_rows.insert(pair.probe_payload);
  }
  EXPECT_EQ(probe_rows.size(), 3000u);
}

TEST(JoinIndexSink, GatherEmptiesTheSink) {
  join::JoinIndexSink sink(2);
  join::MatchChunk first;
  first.Add(Tuple{1, 10}, Tuple{1, 20});
  sink.ConsumeChunk(0, first);
  join::MatchChunk second;
  second.Add(Tuple{2, 11}, Tuple{2, 21});
  sink.ConsumeChunk(1, second);
  EXPECT_EQ(sink.size(), 2u);
  auto pairs = sink.Gather();
  EXPECT_EQ(pairs.size(), 2u);
  EXPECT_EQ(sink.size(), 0u);
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.key < b.key; });
  EXPECT_EQ(pairs[0], (join::MatchedPair{1, 10, 20}));
  EXPECT_EQ(pairs[1], (join::MatchedPair{2, 11, 21}));
}

// Regression: the constructor used to accept num_threads <= 0 unchecked,
// leaving Reserve() to divide by per_thread_.size() == 0 and the concurrent
// consume path to index into an empty vector.
TEST(JoinIndexSink, RejectsNonPositiveThreadCounts) {
  EXPECT_DEATH(join::JoinIndexSink sink(0), "check failed");
  EXPECT_DEATH(join::JoinIndexSink sink(-3), "check failed");
}

TEST(JoinIndexSink, ReserveDistributesAcrossThreads) {
  join::JoinIndexSink sink(4);
  sink.Reserve(1000);  // must not divide by zero or throw
  sink.Reserve(0);     // degenerate expectation is fine too
  EXPECT_EQ(sink.size(), 0u);
}

// Every row of a chunk lands in the index as one <key, build, probe> pair,
// in chunk order, appended after what the thread already collected.
TEST(JoinIndexSink, ConsumeChunkCopiesEveryRow) {
  join::MatchChunk chunk;
  std::vector<join::MatchedPair> expected;
  for (int round = 0; round < 2; ++round) {
    for (uint32_t i = 0; i < 100; ++i) {
      expected.push_back(join::MatchedPair{i, i + 1000, i + 2000});
    }
  }
  for (uint32_t i = 0; i < 100; ++i) {
    chunk.Add(Tuple{i, i + 1000}, Tuple{i, i + 2000});
  }

  join::JoinIndexSink sink(2);
  sink.ConsumeChunk(1, chunk);
  sink.ConsumeChunk(1, chunk);
  EXPECT_EQ(sink.Gather(), expected);
}

// Probe keys outside the build key domain must miss safely, for every
// algorithm (the array joins bounds-check, hash probes terminate, the
// sort-merge compares full keys).
TEST(StrayKeys, AllAlgorithmsMissSafely) {
  Joiner joiner;
  auto build = workload::MakeDenseBuild(joiner.system(), 4096, 11).value();
  workload::Relation probe(joiner.system(), 10000);
  Rng rng(12);
  for (uint64_t i = 0; i < probe.size(); ++i) {
    // Half in-domain, half far outside (up to 2^31).
    const uint32_t key =
        (i % 2 == 0) ? static_cast<uint32_t>(rng.NextBelow(4096))
                     : static_cast<uint32_t>(4096 + rng.NextBelow(1u << 31));
    probe.data()[i] = Tuple{key, static_cast<uint32_t>(i)};
  }
  probe.set_key_domain(build.key_domain());

  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());
  EXPECT_EQ(expected.matches, 5000u);
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const join::JoinResult result = joiner.Run(algorithm, build, probe).value();
    EXPECT_EQ(result.matches, expected.matches) << join::NameOf(algorithm);
    EXPECT_EQ(result.checksum, expected.checksum)
        << join::NameOf(algorithm);
  }
}

// Acceptance: one Joiner lifetime covering all thirteen algorithms plus a
// TPC-H Q19 execution reuses the same worker pool throughout -- the executor
// spawned exactly num_threads threads once, while dispatches kept counting.
TEST(Joiner, PoolReusedAcrossJoinsAndQ19) {
  JoinerOptions options;
  options.num_threads = 4;
  Joiner joiner(options);

  auto build = workload::MakeDenseBuild(joiner.system(), 8192, 13).value();
  auto probe = workload::MakeUniformProbe(joiner.system(), 40000, 8192, 14).value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());

  // >= 10 joins: all thirteen algorithms, each checked against the
  // reference (matches, checksum).
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const join::JoinResult result = joiner.Run(algorithm, build, probe).value();
    EXPECT_EQ(result.matches, expected.matches) << join::NameOf(algorithm);
    EXPECT_EQ(result.checksum, expected.checksum)
        << join::NameOf(algorithm);
  }

  // One full TPC-H Q19 on the same pool.
  tpch::GeneratorOptions tpch_options;
  tpch_options.scale_factor = 0.01;
  tpch_options.seed = 15;
  tpch::LineitemTable lineitem =
      tpch::GenerateLineitem(joiner.system(), tpch_options);
  tpch::PartTable part = tpch::GeneratePart(joiner.system(), tpch_options);
  const double reference = tpch::Q19Reference(lineitem, part);
  const StatusOr<tpch::Q19Result> q19 = tpch::TryRunQ19(
      joiner.system(), lineitem, part, join::Algorithm::kCPRL,
      joiner.num_threads(), tpch::Q19Strategy::kPipelined, joiner.executor());
  ASSERT_TRUE(q19.ok()) << q19.status().ToString();
  EXPECT_NEAR(q19->revenue, reference, std::abs(reference) * 1e-9 + 1e-6);

  const thread::ExecutorStats stats = joiner.executor()->stats();
  EXPECT_EQ(stats.threads_spawned,
            static_cast<uint64_t>(joiner.num_threads()));
  EXPECT_GE(stats.dispatches, 10u);
  EXPECT_EQ(stats.max_team_size,
            static_cast<uint64_t>(joiner.num_threads()));
}

}  // namespace
}  // namespace mmjoin::core
