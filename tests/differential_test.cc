// Randomized differential testing: many random workload configurations
// (sizes, domains, skew, duplicates, thread counts, radix bits) swept
// through all thirteen algorithms, each compared exactly against the
// reference join. Seeds are fixed, so failures are reproducible; the trial
// parameters are printed on mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/joiner.h"
#include "join/join_algorithm.h"
#include "join/reference.h"
#include "mem/aligned_alloc.h"
#include "numa/system.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mmjoin::join {
namespace {

struct TrialConfig {
  uint64_t build_size;
  uint64_t probe_size;
  uint64_t domain_factor;  // 1 = dense
  double zipf;
  bool duplicates;  // duplicate build keys (non-array algorithms only)
  int threads;
  uint32_t radix_bits;  // 0 = auto
  uint32_t skew_factor;

  std::string ToString() const {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "build=%llu probe=%llu domain_factor=%llu zipf=%.2f "
                  "dups=%d threads=%d bits=%u skew_factor=%u",
                  static_cast<unsigned long long>(build_size),
                  static_cast<unsigned long long>(probe_size),
                  static_cast<unsigned long long>(domain_factor), zipf,
                  duplicates ? 1 : 0, threads, radix_bits, skew_factor);
    return buf;
  }
};

TrialConfig RandomTrial(Rng* rng) {
  TrialConfig trial;
  trial.build_size = 1 + rng->NextBelow(30000);
  trial.probe_size = 1 + rng->NextBelow(120000);
  trial.domain_factor = 1 + rng->NextBelow(10);
  trial.zipf = rng->NextBelow(3) == 0
                   ? 0.0
                   : 0.3 + 0.69 * rng->NextDouble();
  trial.duplicates = rng->NextBelow(4) == 0;
  trial.threads = 1 + static_cast<int>(rng->NextBelow(8));
  trial.radix_bits =
      rng->NextBelow(3) == 0 ? 0
                             : 1 + static_cast<uint32_t>(rng->NextBelow(11));
  trial.skew_factor = rng->NextBelow(4) == 0
                          ? 0
                          : 1 + static_cast<uint32_t>(rng->NextBelow(16));
  return trial;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, RandomTrialBatch) {
  static numa::NumaSystem* system = new numa::NumaSystem(4);
  Rng rng(0xD1FFu + GetParam() * 1000003);

  constexpr int kTrialsPerBatch = 6;
  for (int t = 0; t < kTrialsPerBatch; ++t) {
    const TrialConfig trial = RandomTrial(&rng);

    workload::Relation build =
        trial.domain_factor > 1
            ? workload::MakeSparseBuild(system, trial.build_size,
                                        trial.domain_factor, rng.Next()).value()
            : workload::MakeDenseBuild(system, trial.build_size, rng.Next()).value();
    if (trial.duplicates) {
      // Overwrite some keys with repeats of other build keys.
      for (uint64_t i = 0; i < build.size(); i += 7) {
        build.data()[i].key =
            build.data()[rng.NextBelow(build.size())].key;
      }
    }
    workload::Relation probe =
        trial.zipf > 0.0 && trial.domain_factor == 1
            ? workload::MakeZipfProbe(system, trial.probe_size,
                                      trial.build_size, trial.zipf,
                                      rng.Next()).value()
            : workload::MakeProbeFromBuild(system, trial.probe_size, build,
                                           rng.Next()).value();

    const JoinResult expected = ReferenceJoin(build.cspan(), probe.cspan());

    JoinConfig config;
    config.num_threads = trial.threads;
    config.radix_bits = trial.radix_bits;
    config.skew_task_factor = trial.skew_factor;
    config.build_unique = !trial.duplicates;

    for (const Algorithm algorithm : AllAlgorithms()) {
      if (trial.duplicates && InfoOf(algorithm).requires_dense_keys) {
        continue;  // array tables require unique keys by construction
      }
      const JoinResult result =
          RunJoin(algorithm, system, config, build, probe).value();
      ASSERT_EQ(result.matches, expected.matches)
          << NameOf(algorithm) << " on " << trial.ToString();
      ASSERT_EQ(result.checksum, expected.checksum)
          << NameOf(algorithm) << " on " << trial.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Batches, DifferentialTest, ::testing::Range(0, 8));

// Heavy-skew differential: Zipf theta = 1.25 (the regime of the paper's
// Fig 15 where most probe tuples hit a handful of partitions) with the skew
// splitter enabled, so every algorithm exercises probe-slice tasks, the
// shared skew build slots, and cross-node steals -- then must still match
// the reference exactly.
TEST(DifferentialSkewTest, ZipfThetaAboveOneMatchesReference) {
  static numa::NumaSystem* system = new numa::NumaSystem(4);
  constexpr uint64_t kBuild = 40000;
  constexpr uint64_t kProbe = 400000;

  const workload::Relation build =
      workload::MakeDenseBuild(system, kBuild, 0xB17Du).value();
  const workload::Relation probe =
      workload::MakeZipfProbe(system, kProbe, kBuild, 1.25, 0x5EEDu).value();
  const JoinResult expected = ReferenceJoin(build.cspan(), probe.cspan());

  JoinConfig config;
  config.num_threads = 8;
  config.skew_task_factor = 4;

  for (const Algorithm algorithm : AllAlgorithms()) {
    const JoinResult result =
        RunJoin(algorithm, system, config, build, probe).value();
    ASSERT_EQ(result.matches, expected.matches) << NameOf(algorithm);
    ASSERT_EQ(result.checksum, expected.checksum) << NameOf(algorithm);
  }
}

// A walk over all n * n ordered pairs (a, b), self-pairs included, each
// once: an Eulerian circuit of the complete digraph with loops (Hierholzer).
// Consecutive entries of the n * n + 1 returned nodes are the pairs.
std::vector<int> AllOrderedPairsWalk(int n) {
  std::vector<int> next_successor(n, 0);
  std::vector<int> stack = {0};
  std::vector<int> walk;
  while (!stack.empty()) {
    const int node = stack.back();
    if (next_successor[node] < n) {
      stack.push_back(next_successor[node]++);
    } else {
      walk.push_back(node);
      stack.pop_back();
    }
  }
  std::reverse(walk.begin(), walk.end());
  return walk;
}

// Stale-memory differential: a freed buffer above the mmap threshold is
// retained and handed back to the next request it is the best fit for,
// without being cleared, so a kernel that read a buffer before writing it
// would see the previous join's data -- also across sizes, since a request
// can get a larger mapping another join left behind. On one Joiner every
// algorithm runs right after every other (all 13 x 13 ordered pairs, walked
// once each); consecutive runs alternate between two input sets of the same
// size under different seeds, so a run reuses its predecessor's mappings
// wherever they fit. |R| = 200K and |S| = 800K put the buffers on the mmap
// path. Dense builds of one size hold the same keys under any seed, so each
// input set also salts its build payloads: a stale build tuple changes the
// checksum.
TEST(DifferentialStaleMemoryTest, EveryAlgorithmAfterEveryOther) {
  core::Joiner joiner;
  constexpr uint64_t kBuild = 200000;
  constexpr uint64_t kProbe = 800000;
  struct Inputs {
    workload::Relation build;
    workload::Relation probe;
    JoinResult expected;
  };
  const auto make_inputs = [&](uint64_t seed, uint32_t payload_salt) {
    Inputs inputs;
    inputs.build =
        workload::MakeDenseBuild(joiner.system(), kBuild, seed).value();
    for (uint64_t i = 0; i < inputs.build.size(); ++i) {
      inputs.build.data()[i].payload ^= payload_salt;
    }
    inputs.probe = workload::MakeProbeFromBuild(joiner.system(), kProbe,
                                                inputs.build, seed + 1)
                       .value();
    inputs.expected =
        ReferenceJoin(inputs.build.cspan(), inputs.probe.cspan());
    return inputs;
  };
  const Inputs inputs[2] = {make_inputs(0x57A1Eu, 0),
                            make_inputs(0xF2E5Bu, 0x5A5A5A5Au)};

  const std::vector<Algorithm>& algorithms = AllAlgorithms();
  const int n = static_cast<int>(algorithms.size());
  const std::vector<int> walk = AllOrderedPairsWalk(n);
  ASSERT_EQ(walk.size(), static_cast<std::size_t>(n * n + 1));

  const mem::AllocStats before = mem::GetAllocStats();
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const Algorithm algorithm = algorithms[walk[i]];
    const Inputs& in = inputs[i % 2];
    const std::string label =
        std::string(NameOf(algorithm)) + " after " +
        (i == 0 ? std::string("nothing")
                : std::string(NameOf(algorithms[walk[i - 1]])));
    const JoinResult result =
        joiner.Run(algorithm, in.build, in.probe).value();
    EXPECT_EQ(result.matches, in.expected.matches) << label;
    EXPECT_EQ(result.checksum, in.expected.checksum) << label;
  }
  const mem::AllocStats after = mem::GetAllocStats();
  EXPECT_GT(after.reused_mappings, before.reused_mappings);
  EXPECT_GT(after.reused_larger, before.reused_larger);
}

}  // namespace
}  // namespace mmjoin::join
