// Fault-injection tests: drive the recoverable-error paths of every join
// algorithm by arming failpoints at each allocation phase, and exercise the
// failpoint machinery and the executor dispatch watchdog directly.
//
// The contract under test (docs/ROBUSTNESS.md): an injected allocation
// failure in any phase surfaces as a non-OK Status from Joiner::Run /
// join::RunJoin -- no abort, no crash, no leaked NUMA regions -- and the
// very next join on the same Joiner succeeds.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <string_view>
#include <thread>

#include "core/joiner.h"
#include "join/join_algorithm.h"
#include "join/materialize.h"
#include "join/reference.h"
#include "mem/aligned_alloc.h"
#include "mem/budget.h"
#include "obs/metrics.h"
#include "thread/executor.h"
#include "tpch/generator.h"
#include "tpch/q19.h"
#include "tpch/tables.h"
#include "util/failpoint.h"
#include "util/failpoint_registry.h"
#include "util/log.h"
#include "util/status.h"
#include "workload/generator.h"

namespace mmjoin {
namespace {

// ---------------------------------------------------------------------------
// FailPoint unit tests
// ---------------------------------------------------------------------------

TEST(FailPoint, OnceFiresExactlyOnce) {
  FailPoint& fp = FailPoint::Get("test.once");
  fp.Activate(FailPoint::Mode::kOnce);
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
}

TEST(FailPoint, NthFiresOnNthEvaluation) {
  FailPoint& fp = FailPoint::Get("test.nth");
  fp.Activate(FailPoint::Mode::kNth, /*n=*/3);
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_FALSE(fp.ShouldFail());  // disarmed after firing
}

TEST(FailPoint, AlwaysFiresUntilDeactivated) {
  FailPoint& fp = FailPoint::Get("test.always");
  fp.Activate(FailPoint::Mode::kAlways);
  EXPECT_TRUE(fp.ShouldFail());
  EXPECT_TRUE(fp.ShouldFail());
  fp.Deactivate();
  EXPECT_FALSE(fp.ShouldFail());
}

TEST(FailPoint, ProbabilityExtremes) {
  FailPoint& fp = FailPoint::Get("test.prob");
  fp.Activate(FailPoint::Mode::kProb, /*n=*/1, /*probability=*/1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(fp.ShouldFail());
  fp.Activate(FailPoint::Mode::kProb, /*n=*/1, /*probability=*/0.0);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fp.ShouldFail());
  fp.Deactivate();
}

TEST(FailPoint, ConfigureParsesEveryTriggerForm) {
  ASSERT_TRUE(failpoint::Configure("test.cfg.a=once,test.cfg.b=nth:2").ok());
  ASSERT_TRUE(failpoint::Configure("test.cfg.c=prob:0.5").ok());
  ASSERT_TRUE(failpoint::Configure("test.cfg.d=always").ok());
  const auto names = failpoint::ActiveNames();
  for (const char* expect :
       {"test.cfg.a", "test.cfg.b", "test.cfg.c", "test.cfg.d"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expect), names.end())
        << expect;
  }
  ASSERT_TRUE(failpoint::Configure("test.cfg.a=off").ok());
  const auto after = failpoint::ActiveNames();
  EXPECT_EQ(std::find(after.begin(), after.end(), "test.cfg.a"), after.end());
  failpoint::DeactivateAll();
  EXPECT_TRUE(failpoint::ActiveNames().empty());
}

TEST(FailPoint, MalformedSpecAppliesNothing) {
  failpoint::DeactivateAll();
  // The second entry is invalid; the valid first entry must not be applied
  // either (parse everything, then apply).
  EXPECT_FALSE(
      failpoint::Configure("test.cfg.e=once,test.cfg.f=bogus").ok());
  EXPECT_FALSE(failpoint::Configure("test.cfg.g=nth:xyz").ok());
  EXPECT_FALSE(failpoint::Configure("test.cfg.h=prob:1.5").ok());
  EXPECT_FALSE(failpoint::Configure("no_equals_sign").ok());
  EXPECT_TRUE(failpoint::ActiveNames().empty());
}

TEST(FailPoint, RegistryKnowsEveryCanonicalName) {
  // The X-macro registry is the lint-checked source of truth; the runtime
  // view must agree with it.
  EXPECT_GE(std::size(failpoint::kRegisteredNames), 9u);
  for (const std::string_view name : failpoint::kRegisteredNames) {
    EXPECT_TRUE(failpoint::IsCanonicalName(name)) << name;
    EXPECT_NE(name.substr(0, failpoint::kTestNamePrefix.size()),
              failpoint::kTestNamePrefix)
        << name << ": test.* namespace is reserved for ad-hoc points";
  }
  EXPECT_TRUE(failpoint::IsCanonicalName("alloc.partition"));
  EXPECT_FALSE(failpoint::IsCanonicalName("alloc.partitoin"));  // the typo
  EXPECT_FALSE(failpoint::IsCanonicalName("test.once"));
}

TEST(FailPoint, ConfigureWarnsOnUnknownNameButStillArms) {
  failpoint::DeactivateAll();
  std::string captured;
  logging::SetLogCaptureForTest(&captured);
  logging::SetLogFormatForTest(logging::LogFormat::kText);

  // Canonical and test-reserved names arm silently.
  ASSERT_TRUE(failpoint::Configure("alloc.partition=once").ok());
  ASSERT_TRUE(failpoint::Configure("test.cfg.a=once").ok());
  EXPECT_EQ(captured.find("failpoint.unknown_name"), std::string::npos)
      << captured;

  // A typo'd name warns but the (well-formed) spec still applies.
  ASSERT_TRUE(failpoint::Configure("alloc.partitoin=once").ok());
  EXPECT_NE(captured.find("failpoint.unknown_name"), std::string::npos);
  EXPECT_NE(captured.find("alloc.partitoin"), std::string::npos);
  const auto names = failpoint::ActiveNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "alloc.partitoin"),
            names.end());

  logging::SetLogCaptureForTest(nullptr);
  logging::SetLogFormatForTest(logging::LogFormat::kDefault);
  failpoint::DeactivateAll();
}

// ---------------------------------------------------------------------------
// Per-phase fault injection through Joiner::Run, all thirteen algorithms
// ---------------------------------------------------------------------------

class JoinFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    build_ = workload::MakeDenseBuild(joiner_.system(), 8192, 1).value();
    probe_ =
        workload::MakeUniformProbe(joiner_.system(), 32768, 8192, 2).value();
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  core::Joiner joiner_;
  workload::Relation build_;
  workload::Relation probe_;
};

// Every algorithm must surface an injected allocation failure in each phase
// as a non-OK Status (never an abort), unwind all NUMA regions, and run
// cleanly immediately afterwards.
TEST_F(JoinFaultTest, EveryAlgorithmFailsCleanlyInEveryPhase) {
  for (const char* phase : {"partition", "build", "probe"}) {
    const std::string spec = std::string("alloc.") + phase + "=once";
    for (const join::Algorithm algorithm : join::AllAlgorithms()) {
      const std::size_t live_before = joiner_.system()->num_live_regions();
      ASSERT_TRUE(failpoint::Configure(spec).ok());

      const auto failed = joiner_.Run(algorithm, build_, probe_);
      ASSERT_FALSE(failed.ok())
          << join::NameOf(algorithm) << " ignored " << spec;
      EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
          << join::NameOf(algorithm) << " " << spec;
      EXPECT_NE(failed.status().message().find(phase), std::string::npos)
          << join::NameOf(algorithm) << ": '" << failed.status().message()
          << "' does not name the " << phase << " phase";
      EXPECT_EQ(joiner_.system()->num_live_regions(), live_before)
          << join::NameOf(algorithm) << " leaked a region after " << spec;

      // The failpoint disarmed itself (once); the same joiner must recover.
      const auto recovered = joiner_.Run(algorithm, build_, probe_);
      ASSERT_TRUE(recovered.ok())
          << join::NameOf(algorithm) << " did not recover after " << spec
          << ": " << recovered.status().ToString();
      EXPECT_EQ(recovered.value().matches, probe_.size())
          << join::NameOf(algorithm);
    }
  }
}

// The same faults inside the spill-wave path (budget.wave=always forces it,
// no budget needed): every barrier round of the wave loop must unwind a
// failure cleanly -- a ResourceExhausted naming the phase, no leaked NUMA
// regions -- and the next (still spill-wave) run on the same joiner must be
// bit-identical to the reference.
TEST_F(JoinFaultTest, EveryPartitionJoinFailsCleanlyInSpillWaves) {
  const join::JoinResult reference =
      join::ReferenceJoin(build_.cspan(), probe_.cspan());
  for (const char* phase : {"partition", "build", "probe"}) {
    const std::string spec =
        std::string("budget.wave=always,alloc.") + phase + "=once";
    for (const join::Algorithm algorithm : join::AllAlgorithms()) {
      if (join::InfoOf(algorithm).join_class !=
          join::JoinClass::kPartitionBased) {
        continue;
      }
      const std::size_t live_before = joiner_.system()->num_live_regions();
      mem::ResetBudgetStats();
      ASSERT_TRUE(failpoint::Configure(spec).ok());

      const auto failed = joiner_.Run(algorithm, build_, probe_);
      EXPECT_GE(mem::GetBudgetStats().waves, 1u)
          << join::NameOf(algorithm) << " skipped the wave path";
      ASSERT_FALSE(failed.ok())
          << join::NameOf(algorithm) << " ignored " << spec;
      EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
          << join::NameOf(algorithm) << " " << spec;
      EXPECT_NE(failed.status().message().find(phase), std::string::npos)
          << join::NameOf(algorithm) << ": '" << failed.status().message()
          << "' does not name the " << phase << " phase";
      EXPECT_EQ(joiner_.system()->num_live_regions(), live_before)
          << join::NameOf(algorithm) << " leaked a region after " << spec;

      // alloc.<phase> disarmed itself; budget.wave still forces waves.
      const auto recovered = joiner_.Run(algorithm, build_, probe_);
      failpoint::DeactivateAll();
      ASSERT_TRUE(recovered.ok())
          << join::NameOf(algorithm) << " did not recover after " << spec
          << ": " << recovered.status().ToString();
      EXPECT_EQ(recovered.value().matches, reference.matches)
          << join::NameOf(algorithm) << " " << spec;
      EXPECT_EQ(recovered.value().checksum, reference.checksum)
          << join::NameOf(algorithm) << " " << spec;
      EXPECT_GE(mem::GetBudgetStats().waves, 2u) << join::NameOf(algorithm);
    }
  }
}

// The materialize failpoint guards sink-fed runs: armed, every algorithm
// refuses to start; no sink, the failpoint is not even evaluated.
TEST_F(JoinFaultTest, MaterializeFailpointGatesSinkRuns) {
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    ASSERT_TRUE(failpoint::Configure("alloc.materialize=once").ok());
    const auto failed = joiner_.RunMaterialized(algorithm, build_, probe_);
    ASSERT_FALSE(failed.ok()) << join::NameOf(algorithm);
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
        << join::NameOf(algorithm);

    const auto recovered = joiner_.RunMaterialized(algorithm, build_, probe_);
    ASSERT_TRUE(recovered.ok())
        << join::NameOf(algorithm) << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered.value().size(), probe_.size())
        << join::NameOf(algorithm);
  }

  // Without a sink the materialize failpoint must not trip plain runs.
  ASSERT_TRUE(failpoint::Configure("alloc.materialize=once").ok());
  EXPECT_TRUE(joiner_.Run(join::Algorithm::kNOP, build_, probe_).ok());
  failpoint::DeactivateAll();
}

// alloc.mmap sits in the allocator itself: the first buffer the join
// requests reports ResourceExhausted and the error propagates out of Run.
TEST_F(JoinFaultTest, AllocatorLevelFaultPropagates) {
  ASSERT_TRUE(failpoint::Configure("alloc.mmap=once").ok());
  const auto failed = joiner_.Run(join::Algorithm::kPRO, build_, probe_);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  // The allocator's own status reaches the caller, naming the failpoint.
  EXPECT_NE(failed.status().message().find("alloc.mmap"), std::string::npos)
      << failed.status().ToString();
  EXPECT_GE(mem::GetAllocStats().injected_failures, 1u);

  const auto recovered = joiner_.Run(join::Algorithm::kPRO, build_, probe_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value().matches, probe_.size());
}

// An injected budget-reservation failure must surface exactly like a real
// one -- a clean ResourceExhausted, no leaked regions -- in every algorithm,
// and the same joiner must run cleanly right afterwards (budgets are
// per-run, so no state lingers).
TEST_F(JoinFaultTest, BudgetReserveFaultFailsCleanlyEverywhere) {
  join::JoinConfig config;
  config.mem_budget_bytes = uint64_t{1} << 30;  // ample: only the fault fails
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const std::size_t live_before = joiner_.system()->num_live_regions();
    ASSERT_TRUE(failpoint::Configure("budget.reserve=once").ok());

    const auto failed = joiner_.Run(algorithm, config, build_, probe_);
    ASSERT_FALSE(failed.ok())
        << join::NameOf(algorithm) << " ignored budget.reserve";
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
        << join::NameOf(algorithm);
    EXPECT_EQ(joiner_.system()->num_live_regions(), live_before)
        << join::NameOf(algorithm) << " leaked a region";

    const auto recovered = joiner_.Run(algorithm, config, build_, probe_);
    ASSERT_TRUE(recovered.ok())
        << join::NameOf(algorithm) << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered.value().matches, probe_.size())
        << join::NameOf(algorithm);
  }
}

// Each degradation edge fires deterministically: stage 1 (re-plan) from a
// budget just under the measured plan, stage 2 (waves) from the budget.wave
// failpoint, rejection from budget.reserve.
TEST_F(JoinFaultTest, EveryDegradationEdgeFiresDeterministically) {
  join::JoinConfig config;

  // Re-plan edge: PRB's two-pass plan cannot fit just under its own peak,
  // so it must drop to one pass (counted as a replan).
  {
    mem::BudgetTracker measure(uint64_t{1} << 40);
    join::JoinConfig measured = config;
    measured.budget = &measure;
    ASSERT_TRUE(join::RunJoin(join::Algorithm::kPRB, joiner_.system(),
                              measured, build_, probe_)
                    .ok());
    mem::ResetBudgetStats();
    mem::BudgetTracker tight(measure.peak_reserved_bytes() - 1);
    join::JoinConfig degraded = config;
    degraded.budget = &tight;
    const auto result = join::RunJoin(join::Algorithm::kPRB, joiner_.system(),
                                      degraded, build_, probe_);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().matches, probe_.size());
    EXPECT_GE(mem::GetBudgetStats().replans, 1u);
  }

  // Wave edge: budget.wave forces the spill path with no budget at all.
  {
    mem::ResetBudgetStats();
    ASSERT_TRUE(failpoint::Configure("budget.wave=always").ok());
    const auto result = joiner_.Run(join::Algorithm::kPRO, config, build_,
                                    probe_);
    failpoint::DeactivateAll();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.value().matches, probe_.size());
    const mem::BudgetStats stats = mem::GetBudgetStats();
    EXPECT_GE(stats.waves, 1u);
    EXPECT_GE(stats.wave_rounds, 2u);
  }

  // Reject edge: an indivisible working set larger than the budget.
  {
    mem::ResetBudgetStats();
    mem::BudgetTracker tiny(1024);  // below any table estimate
    join::JoinConfig rejected = config;
    rejected.budget = &tiny;
    const auto result = join::RunJoin(join::Algorithm::kNOP, joiner_.system(),
                                      rejected, build_, probe_);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    EXPECT_GE(mem::GetBudgetStats().rejections, 1u);
  }
}

// ---------------------------------------------------------------------------
// Fault injection through the exec:: pipeline (TPC-H Q19)
// ---------------------------------------------------------------------------

class PipelineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    failpoint::DeactivateAll();
    tpch::GeneratorOptions options;
    options.lineitem_rows = 200000;
    options.part_rows = 10000;
    options.seed = 11;
    lineitem_ = std::make_unique<tpch::LineitemTable>(
        tpch::GenerateLineitem(System(), options));
    part_ = std::make_unique<tpch::PartTable>(
        tpch::GeneratePart(System(), options));
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  static numa::NumaSystem* System() {
    static auto* system = new numa::NumaSystem(4);
    return system;
  }

  std::unique_ptr<tpch::LineitemTable> lineitem_;
  std::unique_ptr<tpch::PartTable> part_;
};

// An allocation fault inside the embedded join must surface as a clean
// Status from the whole pipeline -- both reconstruction strategies, every
// phase -- and the immediately following run must produce the reference
// revenue.
TEST_F(PipelineFaultTest, JoinAllocFaultsSurfaceCleanlyInBothStrategies) {
  const double reference = tpch::Q19Reference(*lineitem_, *part_);
  for (const tpch::Q19Strategy strategy :
       {tpch::Q19Strategy::kPipelined, tpch::Q19Strategy::kJoinIndex}) {
    for (const char* spec :
         {"alloc.partition=once", "alloc.build=once", "alloc.probe=once",
          "alloc.materialize=once"}) {
      ASSERT_TRUE(failpoint::Configure(spec).ok());
      const auto failed = tpch::TryRunQ19(System(), *lineitem_, *part_,
                                          join::Algorithm::kCPRL,
                                          /*num_threads=*/4, strategy);
      ASSERT_FALSE(failed.ok()) << spec;
      EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
          << spec << ": " << failed.status().ToString();
      failpoint::DeactivateAll();

      const auto recovered = tpch::TryRunQ19(System(), *lineitem_, *part_,
                                             join::Algorithm::kCPRL,
                                             /*num_threads=*/4, strategy);
      ASSERT_TRUE(recovered.ok()) << spec << ": "
                                  << recovered.status().ToString();
      EXPECT_NEAR(recovered.value().revenue, reference,
                  std::abs(reference) * 1e-9)
          << spec;
    }
  }
}

uint64_t JoinRuns() {
  for (const obs::Metric& metric : obs::MetricsRegistry::Get().Snapshot()) {
    if (metric.name == "join.runs") return metric.value;
  }
  return 0;
}

// join.runs counts successful joins through join::RunJoin, the one entry
// point: a join failed by an injected fault adds nothing, and a Q19 run --
// whose join goes through the pipeline -- adds exactly one in either
// strategy.
TEST_F(PipelineFaultTest, JoinRunsCountsSuccessfulJoinsOnly) {
  auto build = workload::MakeDenseBuild(System(), 1000, 1).value();
  auto probe = workload::MakeUniformProbe(System(), 4000, 1000, 2).value();
  const uint64_t before_failed = JoinRuns();
  ASSERT_TRUE(failpoint::Configure("alloc.build=once").ok());
  join::JoinConfig config;
  config.num_threads = 4;
  ASSERT_FALSE(
      join::RunJoin(join::Algorithm::kNOP, System(), config, build, probe)
          .ok());
  failpoint::DeactivateAll();
  EXPECT_EQ(JoinRuns(), before_failed);

  for (const tpch::Q19Strategy strategy :
       {tpch::Q19Strategy::kPipelined, tpch::Q19Strategy::kJoinIndex}) {
    const uint64_t before = JoinRuns();
    ASSERT_TRUE(tpch::TryRunQ19(System(), *lineitem_, *part_,
                                join::Algorithm::kCPRL, /*num_threads=*/4,
                                strategy)
                    .ok());
    EXPECT_EQ(JoinRuns() - before, 1u) << static_cast<int>(strategy);
  }
}

// A budget rejection inside the pipeline's join propagates the same way: a
// clean Status, then full recovery (the per-run tracker leaves no state).
TEST_F(PipelineFaultTest, BudgetRejectionPropagatesThroughPipeline) {
  ASSERT_TRUE(failpoint::Configure("budget.reserve=once").ok());
  const auto failed = tpch::TryRunQ19(
      System(), *lineitem_, *part_, join::Algorithm::kNOP, /*num_threads=*/4,
      tpch::Q19Strategy::kPipelined, /*executor=*/nullptr,
      /*mem_budget_bytes=*/uint64_t{1} << 30);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  failpoint::DeactivateAll();

  const auto recovered = tpch::TryRunQ19(
      System(), *lineitem_, *part_, join::Algorithm::kNOP, /*num_threads=*/4,
      tpch::Q19Strategy::kPipelined, /*executor=*/nullptr,
      /*mem_budget_bytes=*/uint64_t{1} << 30);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_NEAR(recovered.value().revenue,
              tpch::Q19Reference(*lineitem_, *part_),
              std::abs(recovered.value().revenue) * 1e-9 + 1e-9);
}

// The probe-side materialization in front of the join -- the pipeline's
// TupleMaterialize in TryRunQ19, FilterProbe in RunQ19Morph -- is the first
// NumaSystem allocation of a Q19 run. An alloc.mmap fault there must fail
// the run with a clean ResourceExhausted, leak no region, and leave the
// next run correct.
TEST_F(PipelineFaultTest, ProbeMaterializationFaultFailsCleanly) {
  const double reference = tpch::Q19Reference(*lineitem_, *part_);
  const auto expect_mmap_fault = [](const Status& status) {
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
        << status.ToString();
    EXPECT_NE(status.message().find("alloc.mmap"), std::string::npos)
        << status.ToString();
  };

  for (const tpch::Q19Strategy strategy :
       {tpch::Q19Strategy::kPipelined, tpch::Q19Strategy::kJoinIndex}) {
    const std::size_t live_before = System()->num_live_regions();
    ASSERT_TRUE(failpoint::Configure("alloc.mmap=once").ok());
    const auto failed = tpch::TryRunQ19(System(), *lineitem_, *part_,
                                        join::Algorithm::kNOP,
                                        /*num_threads=*/4, strategy);
    failpoint::DeactivateAll();
    ASSERT_FALSE(failed.ok()) << static_cast<int>(strategy);
    expect_mmap_fault(failed.status());
    EXPECT_EQ(System()->num_live_regions(), live_before);

    const auto recovered = tpch::TryRunQ19(System(), *lineitem_, *part_,
                                           join::Algorithm::kNOP,
                                           /*num_threads=*/4, strategy);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_NEAR(recovered.value().revenue, reference,
                std::abs(reference) * 1e-9);
  }

  const std::size_t live_before = System()->num_live_regions();
  ASSERT_TRUE(failpoint::Configure("alloc.mmap=once").ok());
  const auto failed =
      tpch::RunQ19Morph(System(), *lineitem_, *part_, /*num_threads=*/4);
  failpoint::DeactivateAll();
  ASSERT_FALSE(failed.ok());
  expect_mmap_fault(failed.status());
  EXPECT_EQ(System()->num_live_regions(), live_before);

  const auto recovered =
      tpch::RunQ19Morph(System(), *lineitem_, *part_, /*num_threads=*/4);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_NEAR(recovered.value().revenue_step4, reference,
              std::abs(reference) * 1e-9);
  EXPECT_NEAR(recovered.value().revenue_step5, reference,
              std::abs(reference) * 1e-9);
}

// ---------------------------------------------------------------------------
// Graceful degradation and validation
// ---------------------------------------------------------------------------

TEST(Degradation, HugePageDenialFallsBackToDefaultPages) {
  numa::NumaSystem system(2, mem::PagePolicy::kHuge);
  ASSERT_TRUE(failpoint::Configure("alloc.madvise_huge=once").ok());
  const mem::AllocStats before = mem::GetAllocStats();
  // Above the mmap threshold so the huge-page path is taken.
  const StatusOr<void*> ptr =
      system.TryAllocate(4u << 20, numa::Placement::kLocal);
  failpoint::DeactivateAll();
  ASSERT_TRUE(ptr.ok()) << ptr.status().ToString();  // degraded, not failed
  const mem::AllocStats after = mem::GetAllocStats();
  EXPECT_GT(after.huge_page_fallbacks, before.huge_page_fallbacks);
  system.Free(*ptr);
}

TEST(Degradation, OutOfRangeHomeNodeClampsAndCounts) {
  numa::NumaSystem system(2);
  const mem::AllocStats before = mem::GetAllocStats();
  const StatusOr<void*> ptr =
      system.TryAllocate(1u << 12, numa::Placement::kLocal, /*home_node=*/99);
  ASSERT_TRUE(ptr.ok()) << ptr.status().ToString();
  const mem::AllocStats after = mem::GetAllocStats();
  EXPECT_GT(after.numa_degradations, before.numa_degradations);
  system.Free(*ptr);
}

TEST(Validation, JoinConfigRejectsUnrunnableSettings) {
  core::Joiner joiner;
  auto build = workload::MakeDenseBuild(joiner.system(), 1024, 3).value();
  auto probe =
      workload::MakeUniformProbe(joiner.system(), 4096, 1024, 4).value();

  join::JoinConfig bad_bits;
  bad_bits.radix_bits = join::JoinConfig::kMaxRadixBits + 1;
  EXPECT_EQ(joiner.Run(join::Algorithm::kPRO, bad_bits, build, probe)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  join::JoinConfig bad_passes;
  bad_passes.num_passes = 3;
  EXPECT_EQ(joiner.Run(join::Algorithm::kPRO, bad_passes, build, probe)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(Validation, JoinerCreateRejectsBadOptions) {
  core::JoinerOptions bad;
  bad.num_threads = 0;
  EXPECT_EQ(core::Joiner::Create(bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.num_threads = 4;
  bad.num_nodes = 0;
  EXPECT_EQ(core::Joiner::Create(bad).status().code(),
            StatusCode::kInvalidArgument);
  bad.num_nodes = 2;
  EXPECT_TRUE(core::Joiner::Create(bad).ok());
}

// ---------------------------------------------------------------------------
// Executor dispatch watchdog
// ---------------------------------------------------------------------------

TEST(Watchdog, StuckDispatchPoisonsExecutor) {
  thread::Executor executor(2, /*num_nodes=*/1);
  executor.set_watchdog_timeout(50);
  const Status stuck =
      executor.Dispatch(2, [](const thread::WorkerContext& ctx) {
        if (ctx.thread_id == 1) {
          // Bounded straggler: long enough to trip the 50 ms watchdog,
          // short enough that the destructor's join completes.
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
        }
      });
  EXPECT_EQ(stuck.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(executor.poisoned());

  // A poisoned executor refuses further dispatches instead of racing the
  // straggler.
  const Status refused =
      executor.Dispatch(2, [](const thread::WorkerContext&) {});
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition);
}

// The Appendix G morph runs its steps on the caller's executor; once the
// watchdog has poisoned it, the morph returns the refused dispatch's Status
// instead of aborting the process.
TEST(Watchdog, PoisonedExecutorFailsQ19MorphCleanly) {
  numa::NumaSystem system(1);
  tpch::GeneratorOptions options;
  options.lineitem_rows = 20000;
  options.part_rows = 1000;
  options.seed = 13;
  const tpch::LineitemTable lineitem = tpch::GenerateLineitem(&system, options);
  const tpch::PartTable part = tpch::GeneratePart(&system, options);

  thread::Executor executor(2, /*num_nodes=*/1);
  executor.set_watchdog_timeout(50);
  const Status stuck =
      executor.Dispatch(2, [](const thread::WorkerContext& ctx) {
        if (ctx.thread_id == 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(400));
        }
      });
  ASSERT_EQ(stuck.code(), StatusCode::kDeadlineExceeded);
  ASSERT_TRUE(executor.poisoned());

  const StatusOr<tpch::Q19MorphResult> morph =
      tpch::RunQ19Morph(&system, lineitem, part, /*num_threads=*/2, &executor);
  ASSERT_FALSE(morph.ok());
  EXPECT_EQ(morph.status().code(), StatusCode::kFailedPrecondition)
      << morph.status().ToString();
}

TEST(Watchdog, DisabledByDefaultAndHarmlessWhenFast) {
  thread::Executor executor(2, /*num_nodes=*/1);
  EXPECT_EQ(executor.watchdog_timeout_ms(), 0);
  executor.set_watchdog_timeout(10'000);
  std::atomic<int> ran{0};
  ASSERT_TRUE(executor
                  .Dispatch(2,
                            [&](const thread::WorkerContext&) {
                              ran.fetch_add(1);
                            })
                  .ok());
  EXPECT_EQ(ran.load(), 2);
  EXPECT_FALSE(executor.poisoned());
}

}  // namespace
}  // namespace mmjoin
