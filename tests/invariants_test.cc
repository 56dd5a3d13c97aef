// Invariant enforcement (fatal-check paths) and cross-call determinism
// guarantees.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "hash/linear_probing_table.h"
#include "numa/system.h"
#include "tpch/generator.h"
#include "util/cli.h"
#include "workload/generator.h"

namespace mmjoin {
namespace {

using InvariantDeathTest = ::testing::Test;

// GTEST_FLAG_SET is unavailable before GoogleTest 1.12; the flag variable
// itself works on every version.
void UseThreadsafeDeathTests() {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
}

TEST(InvariantDeathTest, LinearTableResetBeyondAllocationAborts) {
  UseThreadsafeDeathTests();
  numa::NumaSystem system(1);
  hash::LinearProbingTable<hash::IdentityHash> table(
      &system, 100, numa::Placement::kLocal);
  EXPECT_DEATH(table.Reset(1 << 20), "check failed");
}

TEST(InvariantDeathTest, CliRejectsMalformedInteger) {
  UseThreadsafeDeathTests();
  const char* argv[] = {"prog", "--threads=abc"};
  CommandLine cli(2, const_cast<char**>(argv), {"threads"});
  EXPECT_EXIT(cli.GetInt("threads", 1), ::testing::ExitedWithCode(2),
              "malformed value for --threads: 'abc'");
}

TEST(InvariantDeathTest, NumaFreeOfUnknownPointerAborts) {
  UseThreadsafeDeathTests();
  numa::NumaSystem system(2);
  int local = 0;
  EXPECT_DEATH(system.Free(&local), "check failed");
}

// --- Determinism guarantees --------------------------------------------------

TEST(Determinism, TpchGenerationIsBitwiseStable) {
  numa::NumaSystem system(4);
  tpch::GeneratorOptions options;
  options.lineitem_rows = 50000;
  options.part_rows = 2000;
  options.seed = 99;
  tpch::LineitemTable a = tpch::GenerateLineitem(&system, options);
  tpch::LineitemTable b = tpch::GenerateLineitem(&system, options);
  ASSERT_EQ(a.num_tuples(), b.num_tuples());
  EXPECT_EQ(std::memcmp(a.l_partkey(), b.l_partkey(),
                        a.num_tuples() * sizeof(Tuple)),
            0);
  EXPECT_EQ(std::memcmp(a.l_shipmode(), b.l_shipmode(), a.num_tuples()), 0);
  EXPECT_EQ(std::memcmp(a.l_quantity(), b.l_quantity(),
                        a.num_tuples() * sizeof(uint32_t)),
            0);

  tpch::PartTable pa = tpch::GeneratePart(&system, options);
  tpch::PartTable pb = tpch::GeneratePart(&system, options);
  EXPECT_EQ(std::memcmp(pa.p_brand(), pb.p_brand(), pa.num_tuples()), 0);
  EXPECT_EQ(std::memcmp(pa.p_container(), pb.p_container(),
                        pa.num_tuples()),
            0);
}

TEST(Determinism, WorkloadsStableAcrossSystems) {
  // The same seed must produce identical relations even from differently
  // configured NumaSystems (placement must not leak into content).
  numa::NumaSystem a_system(1, mem::PagePolicy::kSmall);
  numa::NumaSystem b_system(8, mem::PagePolicy::kHuge);
  workload::Relation a = workload::MakeZipfProbe(&a_system, 20000, 1000,
                                                 0.9, 123).value();
  workload::Relation b = workload::MakeZipfProbe(&b_system, 20000, 1000,
                                                 0.9, 123).value();
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(Tuple)), 0);
}

TEST(Determinism, ConcurrentAllocationRegistryStress) {
  // Allocate/free from many threads; NodeOf must stay consistent and no
  // region bookkeeping must corrupt.
  numa::NumaSystem system(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&system, t] {
      for (int i = 0; i < 200; ++i) {
        void* p = system.Allocate(4096 * (1 + (i % 7)),
                                  numa::Placement::kLocal, t % 4);
        ASSERT_EQ(system.NodeOf(p), t % 4);
        system.Free(p);
      }
    });
  }
  for (auto& thread : threads) thread.join();
}

}  // namespace
}  // namespace mmjoin
