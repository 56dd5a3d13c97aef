// Tests for the TPC-H Q19 substrate: generator distributions, predicate
// semantics, and end-to-end query equivalence across join algorithms.

#include <gtest/gtest.h>

#include <cmath>

#include "join/join_defs.h"
#include "numa/system.h"
#include "tpch/generator.h"
#include "tpch/q19.h"
#include "tpch/tables.h"

namespace mmjoin::tpch {
namespace {

numa::NumaSystem* System() {
  static auto* system = new numa::NumaSystem(4);
  return system;
}

GeneratorOptions SmallOptions() {
  GeneratorOptions options;
  options.lineitem_rows = 300000;
  options.part_rows = 10000;
  options.seed = 7;
  return options;
}

TEST(Generator, RowCountsFollowScaleFactor) {
  GeneratorOptions options;
  options.scale_factor = 0.01;
  PartTable part = GeneratePart(System(), options);
  EXPECT_EQ(part.num_tuples(), 2000u);
}

TEST(Generator, PartKeysDenseAndSorted) {
  PartTable part = GeneratePart(System(), SmallOptions());
  for (uint64_t i = 0; i < part.num_tuples(); ++i) {
    ASSERT_EQ(part.p_partkey()[i].key, i);
    ASSERT_EQ(part.p_partkey()[i].payload, i);
  }
}

TEST(Generator, PartAttributeDomains) {
  PartTable part = GeneratePart(System(), SmallOptions());
  for (uint64_t i = 0; i < part.num_tuples(); ++i) {
    ASSERT_LT(part.p_brand()[i], kNumBrands);
    ASSERT_LT(part.p_container()[i], kNumContainers);
    ASSERT_GE(part.p_size()[i], 1u);
    ASSERT_LE(part.p_size()[i], 50u);
  }
}

TEST(Generator, LineitemReferencesParts) {
  const GeneratorOptions options = SmallOptions();
  LineitemTable lineitem = GenerateLineitem(System(), options);
  for (uint64_t i = 0; i < lineitem.num_tuples(); ++i) {
    ASSERT_LT(lineitem.l_partkey()[i].key, options.part_rows);
    ASSERT_EQ(lineitem.l_partkey()[i].payload, i);
    ASSERT_GE(lineitem.l_quantity()[i], 1u);
    ASSERT_LE(lineitem.l_quantity()[i], 50u);
  }
}

TEST(Generator, PrefilterSelectivityMatchesTarget) {
  const GeneratorOptions options = SmallOptions();
  LineitemTable lineitem = GenerateLineitem(System(), options);
  uint64_t passing = 0;
  for (uint64_t i = 0; i < lineitem.num_tuples(); ++i) {
    passing += PreJoin(lineitem, i) ? 1 : 0;
  }
  const double measured =
      static_cast<double>(passing) / lineitem.num_tuples();
  // Paper: 3.57% for Q19.
  EXPECT_NEAR(measured, 0.0357, 0.004);
}

TEST(Generator, SelectivityKnob) {
  GeneratorOptions options = SmallOptions();
  options.prefilter_selectivity = 0.20;
  LineitemTable lineitem = GenerateLineitem(System(), options);
  uint64_t passing = 0;
  for (uint64_t i = 0; i < lineitem.num_tuples(); ++i) {
    passing += PreJoin(lineitem, i) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(passing) / lineitem.num_tuples(), 0.20,
              0.01);
}

TEST(Predicates, BrandCodes) {
  EXPECT_EQ(kBrand12, 1);
  EXPECT_EQ(kBrand23, 7);
  EXPECT_EQ(kBrand34, 13);
  EXPECT_LT(kBrand12, kNumBrands);
}

TEST(Predicates, PostJoinAcceptsListing3Disjuncts) {
  numa::NumaSystem* system = System();
  LineitemTable l(system, 3);
  PartTable p(system, 3);
  // Disjunct 1: Brand#12, SM container, quantity 1..11, size 1..5.
  p.p_brand()[0] = kBrand12;
  p.p_container()[0] = ContainerCode(kSm, kCase);
  p.p_size()[0] = 3;
  l.l_quantity()[0] = 5;
  EXPECT_TRUE(PostJoin(l, p, 0, 0));

  // Wrong container size class.
  p.p_brand()[1] = kBrand12;
  p.p_container()[1] = ContainerCode(kLg, kCase);
  p.p_size()[1] = 3;
  l.l_quantity()[1] = 5;
  EXPECT_FALSE(PostJoin(l, p, 1, 1));

  // Disjunct 3: Brand#34, LG container, quantity 20..30, size 1..15.
  p.p_brand()[2] = kBrand34;
  p.p_container()[2] = ContainerCode(kLg, kPkg);
  p.p_size()[2] = 15;
  l.l_quantity()[2] = 30;
  EXPECT_TRUE(PostJoin(l, p, 2, 2));
}

TEST(Predicates, PostJoinQuantityBoundaries) {
  numa::NumaSystem* system = System();
  LineitemTable l(system, 1);
  PartTable p(system, 1);
  p.p_brand()[0] = kBrand23;
  p.p_container()[0] = ContainerCode(kMed, kBox);
  p.p_size()[0] = 10;
  for (const auto& [quantity, expected] :
       {std::pair{9u, false}, {10u, true}, {20u, true}, {21u, false}}) {
    l.l_quantity()[0] = quantity;
    EXPECT_EQ(PostJoin(l, p, 0, 0), expected) << "qty=" << quantity;
  }
}

class Q19JoinsTest : public ::testing::TestWithParam<join::Algorithm> {};

TEST_P(Q19JoinsTest, MatchesScanReference) {
  const GeneratorOptions options = SmallOptions();
  LineitemTable lineitem = GenerateLineitem(System(), options);
  PartTable part = GeneratePart(System(), options);

  const double expected = Q19Reference(lineitem, part);
  const StatusOr<Q19Result> result =
      TryRunQ19(System(), lineitem, part, GetParam(), /*num_threads=*/4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_NEAR(result->revenue, expected, std::abs(expected) * 1e-9 + 1e-6);
  EXPECT_GT(result->filtered_rows, 0u);
  EXPECT_EQ(result->join_matches, result->filtered_rows);  // PK join: 1 match
  EXPECT_GT(result->result_rows, 0u);
  EXPECT_GT(result->filter_ns, 0);
  EXPECT_GT(result->join_ns, 0);
}

INSTANTIATE_TEST_SUITE_P(
    PaperJoins, Q19JoinsTest,
    ::testing::Values(join::Algorithm::kNOP, join::Algorithm::kNOPA,
                      join::Algorithm::kCPRL, join::Algorithm::kCPRA),
    [](const ::testing::TestParamInfo<join::Algorithm>& info) {
      return std::string(join::NameOf(info.param));
    });

// Satellite of the pipeline rewrite: the phase accounting must keep the
// identity filter_ns + join_ns == total_ns (join_ns is defined as
// everything after the pre-join filter stage). A small tolerance absorbs
// clock-read placement; real drift (double-counted or dropped phases) is
// orders of magnitude larger.
TEST(Q19, PhaseTimesSumToTotal) {
  const GeneratorOptions options = SmallOptions();
  LineitemTable lineitem = GenerateLineitem(System(), options);
  PartTable part = GeneratePart(System(), options);

  for (const Q19Strategy strategy :
       {Q19Strategy::kPipelined, Q19Strategy::kJoinIndex}) {
    const Q19Result result =
        TryRunQ19(System(), lineitem, part, join::Algorithm::kCPRL,
                  /*num_threads=*/4, strategy)
            .value();
    EXPECT_GT(result.filter_ns, 0);
    EXPECT_GT(result.join_ns, 0);
    const int64_t tolerance = result.total_ns / 100 + 1000;  // 1% + 1us
    EXPECT_NEAR(static_cast<double>(result.filter_ns + result.join_ns),
                static_cast<double>(result.total_ns),
                static_cast<double>(tolerance))
        << "strategy=" << static_cast<int>(strategy);
  }
}

class Q19StrategyTest : public ::testing::TestWithParam<join::Algorithm> {};

TEST_P(Q19StrategyTest, JoinIndexStrategyMatchesPipelined) {
  const GeneratorOptions options = SmallOptions();
  LineitemTable lineitem = GenerateLineitem(System(), options);
  PartTable part = GeneratePart(System(), options);

  const Q19Result pipelined =
      TryRunQ19(System(), lineitem, part, GetParam(), 4,
                Q19Strategy::kPipelined)
          .value();
  const Q19Result indexed =
      TryRunQ19(System(), lineitem, part, GetParam(), 4,
                Q19Strategy::kJoinIndex)
          .value();
  EXPECT_EQ(indexed.join_matches, pipelined.join_matches);
  EXPECT_EQ(indexed.result_rows, pipelined.result_rows);
  EXPECT_NEAR(indexed.revenue, pipelined.revenue,
              std::abs(pipelined.revenue) * 1e-9 + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, Q19StrategyTest,
    ::testing::Values(join::Algorithm::kNOP, join::Algorithm::kCPRA),
    [](const ::testing::TestParamInfo<join::Algorithm>& info) {
      return std::string(join::NameOf(info.param));
    });

TEST(Q19Morph, StepsAreCumulativeAndRevenueConsistent) {
  const GeneratorOptions options = SmallOptions();
  LineitemTable lineitem = GenerateLineitem(System(), options);
  PartTable part = GeneratePart(System(), options);

  const StatusOr<Q19MorphResult> run =
      RunQ19Morph(System(), lineitem, part, /*num_threads=*/4);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const Q19MorphResult& morph = *run;
  const double expected = Q19Reference(lineitem, part);
  EXPECT_NEAR(morph.revenue_step4, expected,
              std::abs(expected) * 1e-9 + 1e-6);
  EXPECT_NEAR(morph.revenue_step5, expected,
              std::abs(expected) * 1e-9 + 1e-6);
  for (int s = 0; s < 5; ++s) EXPECT_GT(morph.step_ns[s], 0) << s;
  // Step 4 includes step 3's work.
  EXPECT_GE(morph.step_ns[3], morph.step_ns[2]);
}

TEST(Q19, RevenueIsPositiveOnRealisticData) {
  const GeneratorOptions options = SmallOptions();
  LineitemTable lineitem = GenerateLineitem(System(), options);
  PartTable part = GeneratePart(System(), options);
  EXPECT_GT(Q19Reference(lineitem, part), 0.0);
}

}  // namespace
}  // namespace mmjoin::tpch
