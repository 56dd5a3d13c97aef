// Cross-module integration tests: joins under NUMA accounting, pass-count
// overrides, Q19 across all thirteen algorithms, combined workload
// stressors.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "join/join_algorithm.h"
#include "join/reference.h"
#include "numa/system.h"
#include "tpch/generator.h"
#include "tpch/q19.h"
#include "workload/generator.h"

namespace mmjoin {
namespace {

TEST(NumaIntegration, CprlJoinHasZeroRemotePartitionWrites) {
  // The paper's core CPRL claim, end-to-end through the real join: the
  // partition phase performs no remote writes at all. (The join phase's
  // scratch tables are node-local too, so total remote writes stay 0.)
  numa::NumaSystem system(4);
  workload::Relation build = workload::MakeDenseBuild(&system, 1 << 16, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(&system, 1 << 18, 1 << 16, 2).value();
  system.EnableAccounting();

  join::JoinConfig config;
  config.num_threads = 4;
  const join::JoinResult result =
      join::RunJoin(join::Algorithm::kCPRL, &system, config, build, probe).value();
  EXPECT_EQ(result.matches, probe.size());
  EXPECT_EQ(system.counters()->TotalRemoteWriteBytes(), 0u);
  EXPECT_GT(system.counters()->TotalRemoteReadBytes(), 0u);  // join phase
}

TEST(NumaIntegration, ProJoinWritesRemotely) {
  numa::NumaSystem system(4);
  workload::Relation build = workload::MakeDenseBuild(&system, 1 << 16, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(&system, 1 << 18, 1 << 16, 2).value();
  system.EnableAccounting();

  join::JoinConfig config;
  config.num_threads = 4;
  join::RunJoin(join::Algorithm::kPRO, &system, config, build, probe).value();
  EXPECT_GT(system.counters()->TotalRemoteWriteBytes(),
            system.counters()->TotalLocalWriteBytes());
}

TEST(NumaIntegration, AccountingDoesNotChangeResults) {
  numa::NumaSystem system(4);
  workload::Relation build = workload::MakeDenseBuild(&system, 20000, 3).value();
  workload::Relation probe =
      workload::MakeUniformProbe(&system, 100000, 20000, 4).value();
  join::JoinConfig config;
  config.num_threads = 4;

  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    system.DisableAccounting();
    const join::JoinResult plain =
        join::RunJoin(algorithm, &system, config, build, probe).value();
    system.EnableAccounting();
    const join::JoinResult counted =
        join::RunJoin(algorithm, &system, config, build, probe).value();
    EXPECT_EQ(plain.matches, counted.matches) << join::NameOf(algorithm);
    EXPECT_EQ(plain.checksum, counted.checksum) << join::NameOf(algorithm);
  }
  system.DisableAccounting();
}

TEST(PassOverride, ProTwoPassMatchesOnePass) {
  numa::NumaSystem system(4);
  workload::Relation build = workload::MakeDenseBuild(&system, 30000, 5).value();
  workload::Relation probe =
      workload::MakeUniformProbe(&system, 120000, 30000, 6).value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());

  for (const uint32_t passes : {1u, 2u}) {
    join::JoinConfig config;
    config.num_threads = 4;
    config.num_passes = passes;
    config.radix_bits = 8;
    const join::JoinResult result =
        join::RunJoin(join::Algorithm::kPRO, &system, config, build, probe).value();
    EXPECT_EQ(result.matches, expected.matches) << passes;
    EXPECT_EQ(result.checksum, expected.checksum) << passes;
  }
}

TEST(PassOverride, PrbOnePassMatchesTwoPass) {
  numa::NumaSystem system(4);
  workload::Relation build = workload::MakeDenseBuild(&system, 30000, 7).value();
  workload::Relation probe =
      workload::MakeUniformProbe(&system, 90000, 30000, 8).value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());
  join::JoinConfig config;
  config.num_threads = 3;
  config.num_passes = 1;
  const join::JoinResult result =
      join::RunJoin(join::Algorithm::kPRB, &system, config, build, probe).value();
  EXPECT_EQ(result.matches, expected.matches);
  EXPECT_EQ(result.checksum, expected.checksum);
}

class Q19AllJoinsTest : public ::testing::TestWithParam<join::Algorithm> {};

TEST_P(Q19AllJoinsTest, EveryAlgorithmAnswersQ19) {
  // The paper only evaluates 4 joins on Q19; all 13 must work.
  static numa::NumaSystem* system = new numa::NumaSystem(4);
  tpch::GeneratorOptions options;
  options.lineitem_rows = 120000;
  options.part_rows = 6000;
  options.seed = 11;
  static tpch::LineitemTable* lineitem =
      new tpch::LineitemTable(tpch::GenerateLineitem(system, options));
  static tpch::PartTable* part =
      new tpch::PartTable(tpch::GeneratePart(system, options));
  static const double reference = tpch::Q19Reference(*lineitem, *part);

  const StatusOr<tpch::Q19Result> result =
      tpch::TryRunQ19(system, *lineitem, *part, GetParam(), 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->revenue, reference, std::abs(reference) * 1e-9 + 1e-6)
      << join::NameOf(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    All, Q19AllJoinsTest, ::testing::ValuesIn(join::AllAlgorithms()),
    [](const ::testing::TestParamInfo<join::Algorithm>& info) {
      return std::string(join::NameOf(info.param));
    });

TEST(Stress, SkewedSparseManyThreads) {
  // Combined stressor: sparse domain + skew + more threads than partitions.
  numa::NumaSystem system(4);
  workload::Relation build = workload::MakeSparseBuild(&system, 4096, 5, 13).value();
  workload::Relation probe =
      workload::MakeZipfProbe(&system, 50000, 4096, 0.9, 14).value();
  // Zipf ranks reference the dense domain [0, 4096); remap probe keys onto
  // existing sparse build keys so matches occur.
  for (uint64_t i = 0; i < probe.size(); ++i) {
    probe.data()[i].key = build.data()[probe.data()[i].key].key;
  }
  probe.set_key_domain(build.key_domain());

  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    join::JoinConfig config;
    config.num_threads = 8;
    config.skew_task_factor = 2;
    const join::JoinResult result =
        join::RunJoin(algorithm, &system, config, build, probe).value();
    EXPECT_EQ(result.matches, expected.matches) << join::NameOf(algorithm);
    EXPECT_EQ(result.checksum, expected.checksum)
        << join::NameOf(algorithm);
  }
}

TEST(Stress, RepeatedRunsAreDeterministic) {
  numa::NumaSystem system(4);
  workload::Relation build = workload::MakeDenseBuild(&system, 10000, 15).value();
  workload::Relation probe =
      workload::MakeUniformProbe(&system, 50000, 10000, 16).value();
  join::JoinConfig config;
  config.num_threads = 4;
  for (const join::Algorithm algorithm :
       {join::Algorithm::kCPRL, join::Algorithm::kNOP,
        join::Algorithm::kMWAY}) {
    const join::JoinResult first =
        join::RunJoin(algorithm, &system, config, build, probe).value();
    for (int i = 0; i < 3; ++i) {
      const join::JoinResult again =
          join::RunJoin(algorithm, &system, config, build, probe).value();
      EXPECT_EQ(again.matches, first.matches);
      EXPECT_EQ(again.checksum, first.checksum);
    }
  }
}

}  // namespace
}  // namespace mmjoin
