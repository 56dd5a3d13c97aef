// Regression tests for specific defects found and fixed during
// development. Each test encodes the failure mode so it cannot return.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/joiner.h"
#include "hash/array_table.h"
#include "hash/linear_probing_table.h"
#include "mem/aligned_alloc.h"
#include "memsim/cache.h"
#include "memsim/replay.h"
#include "numa/system.h"
#include "partition/model.h"
#include "tpch/generator.h"
#include "tpch/q19.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace mmjoin {
namespace {

// Bug 1: linear probing Probe() scans to the first empty slot; with the
// identity hash on a dense PK build the occupied region is one contiguous
// cluster, so a full-semantics probe of key k walked O(|R| - k) slots.
// ProbeUnique must stay O(1) on this workload.
TEST(Regression, DenseIdentityProbeUniqueIsConstantTime) {
  numa::NumaSystem system(1);
  const uint64_t n = 200000;
  hash::LinearProbingTable<hash::IdentityHash> table(
      &system, n, numa::Placement::kLocal);
  for (uint64_t k = 0; k < n; ++k) {
    table.InsertSerial(Tuple{static_cast<uint32_t>(k), 1});
  }
  // Probing every key once must be fast: O(n) total, not O(n^2). 200k
  // O(1) probes take well under a millisecond; the quadratic behaviour
  // took seconds. Use a generous 200 ms bound to stay timing-robust.
  Stopwatch watch;
  uint64_t found = 0;
  for (uint64_t k = 0; k < n; ++k) {
    found += table.ProbeUnique(static_cast<uint32_t>(k), [](Tuple) {});
  }
  EXPECT_EQ(found, n);
  EXPECT_LT(watch.ElapsedSeconds(), 0.2);
}

// Bug 2: the Q19 selectivity knob silently saturated at 25% because only
// the shipmode mass scaled while shipinstruct stayed at the TPC-H 1/4.
TEST(Regression, Q19SelectivityKnobReachesFullRange) {
  numa::NumaSystem system(4);
  for (const double target : {0.5, 1.0}) {
    tpch::GeneratorOptions options;
    options.lineitem_rows = 100000;
    options.part_rows = 1000;
    options.prefilter_selectivity = target;
    options.seed = 3;
    tpch::LineitemTable lineitem = tpch::GenerateLineitem(&system, options);
    uint64_t passing = 0;
    for (uint64_t i = 0; i < lineitem.num_tuples(); ++i) {
      passing += tpch::PreJoin(lineitem, i) ? 1 : 0;
    }
    EXPECT_NEAR(static_cast<double>(passing) / lineitem.num_tuples(),
                target, 0.02)
        << "target " << target;
  }
}

// Bug 3: the cache simulator without a prefetcher charged sequential
// streams full demand misses, drowning the random-access contrast that
// Table 4 is about.
TEST(Regression, PrefetcherSuppressesSequentialDemandMisses) {
  memsim::HierarchyConfig with = memsim::HierarchyConfig::HugePages();
  memsim::HierarchyConfig without = with;
  without.prefetch_streams = 0;

  const auto streamed = memsim::ReplaySequentialScan(with, 1 << 20);
  const auto unstreamed = memsim::ReplaySequentialScan(without, 1 << 20);
  // Without prefetching a scan misses once per line (1/8 of accesses);
  // with it, almost never.
  EXPECT_GT(unstreamed.llc.misses, (1u << 20) / 8 - 1000);
  EXPECT_LT(streamed.llc.misses, unstreamed.llc.misses / 20);
}

// Bug 4: Equation (1) ignored that oversubscribed workers share one
// hardware thread's L2 (paper machines have private L2 per worker).
TEST(Regression, RadixBitModelAccountsForSharedL2) {
  partition::CacheSpec shared;
  shared.l2_bytes = 2 * 1024 * 1024;
  shared.llc_bytes = 256ull * 1024 * 1024;
  shared.hardware_threads = 1;  // 4 workers share one core's L2
  partition::CacheSpec privat = shared;
  privat.hardware_threads = 4;

  const uint32_t shared_bits = partition::PredictRadixBits(
      1 << 20, partition::kLinearSpace, 4, shared);
  const uint32_t private_bits = partition::PredictRadixBits(
      1 << 20, partition::kLinearSpace, 4, privat);
  EXPECT_EQ(private_bits + 2, shared_bits);  // 4 sharers = 2 extra bits
}

// Bug 5: array-table probes read out of bounds for keys beyond the build
// domain (probe side need not honour the FK contract).
TEST(Regression, ArrayTableProbeOutOfDomainMisses) {
  numa::NumaSystem system(1);
  hash::ArrayTable table(&system, 100, 0, numa::Placement::kLocal);
  table.InsertSerial(Tuple{99, 7});
  EXPECT_EQ(table.Probe(99, [](Tuple) {}), 1u);
  EXPECT_EQ(table.Probe(100, [](Tuple) {}), 0u);
  EXPECT_EQ(table.Probe(0xFFFFFFFE, [](Tuple) {}), 0u);
}

// Bug 6: Q19 morph steps 1-3 used the multiset probe and made the "naked
// join" microbenchmark slower than the full query. Step 1 (pre-filtered
// probe only) must be the cheapest step. Both steps build the same
// 65,536-slot table; 2M lineitem rows make step 2's full scan stand well
// above that shared fixed cost, so host noise cannot swap the two.
TEST(Regression, Q19MorphStepOneIsCheapest) {
  numa::NumaSystem system(4);
  tpch::GeneratorOptions options;
  options.lineitem_rows = 2000000;
  options.part_rows = 20000;
  options.seed = 5;
  tpch::LineitemTable lineitem = tpch::GenerateLineitem(&system, options);
  tpch::PartTable part = tpch::GeneratePart(&system, options);

  // Best of 3, to be robust against scheduler noise.
  int64_t best[5] = {INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX, INT64_MAX};
  for (int i = 0; i < 3; ++i) {
    const StatusOr<tpch::Q19MorphResult> morph =
        tpch::RunQ19Morph(&system, lineitem, part, 4);
    ASSERT_TRUE(morph.ok()) << morph.status().ToString();
    for (int s = 0; s < 5; ++s) {
      best[s] = std::min(best[s], morph->step_ns[s]);
    }
  }
  // Step 1 probes 3.57% of the rows; step 2 scans all rows. Allow slack
  // but require a clear gap.
  EXPECT_LT(best[0], best[1])
      << "best-of-3 step ns: 1=" << best[0] << " 2=" << best[1]
      << " 3=" << best[2] << " 4=" << best[3] << " 5=" << best[4];
}

// Bug 7: the retained-mapping list reused a freed mapping only on an exact
// fit and evicts oldest-first, so joins taking turns on one Joiner evicted
// each other's mappings: NOP and MWAY did a fresh mmap plus a single-
// threaded prefault in every round. With best-fit reuse, every join after
// the first round finds a retained mapping, and the mapped high-water mark
// does not move.
TEST(Regression, RoundRobinJoinsMapNothingAfterRoundOne) {
  core::Joiner joiner;
  workload::Relation build =
      workload::MakeDenseBuild(joiner.system(), 200000, 0x7E57u).value();
  workload::Relation probe =
      workload::MakeProbeFromBuild(joiner.system(), 800000, build, 0x7E58u)
          .value();
  uint64_t high_water_after_round_one = 0;
  for (int round = 1; round <= 5; ++round) {
    for (const join::Algorithm algorithm : join::AllAlgorithms()) {
      const uint64_t mmaps_before = mem::GetAllocStats().mmap_allocations;
      ASSERT_TRUE(joiner.Run(algorithm, build, probe).ok());
      if (round > 1) {
        EXPECT_EQ(mem::GetAllocStats().mmap_allocations, mmaps_before)
            << join::NameOf(algorithm) << " in round " << round;
      }
    }
    const uint64_t high_water = mem::GetAllocStats().mapped_high_water;
    if (round == 1) high_water_after_round_one = high_water;
    EXPECT_EQ(high_water, high_water_after_round_one) << "round " << round;
  }
}

}  // namespace
}  // namespace mmjoin
