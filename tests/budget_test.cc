// Per-join memory budget tests (docs/ROBUSTNESS.md "Memory budgets"):
// BudgetTracker admission control, PlanJoin's degradation ladder (re-plan
// bits -> drop pass 2 -> spill waves -> reject), peak-resident accounting,
// and the differential contract -- every algorithm produces bit-identical
// match counts and checksums under a budget, or rejects with a clean
// ResourceExhausted when its working set is indivisible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>

#include "join/join_algorithm.h"
#include "join/join_defs.h"
#include "join/join_plan.h"
#include "mem/aligned_alloc.h"
#include "mem/budget.h"
#include "numa/system.h"
#include "partition/model.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/status.h"
#include "workload/generator.h"

namespace mmjoin {
namespace {

// ---------------------------------------------------------------------------
// BudgetTracker / BudgetReservation units
// ---------------------------------------------------------------------------

TEST(BudgetTracker, UnboundedAdmitsEverythingButStillAccounts) {
  mem::BudgetTracker tracker;  // budget 0 == unbounded
  EXPECT_FALSE(tracker.bounded());
  ASSERT_TRUE(tracker.Reserve(1ull << 40, "huge").ok());
  EXPECT_EQ(tracker.reserved_bytes(), 1ull << 40);
  tracker.Release(1ull << 40);
  EXPECT_EQ(tracker.reserved_bytes(), 0u);
  // Peak survives the release: it reports the plan-level working set.
  EXPECT_EQ(tracker.peak_reserved_bytes(), 1ull << 40);
}

TEST(BudgetTracker, BoundedRejectsOvercommitAndRecovers) {
  mem::BudgetTracker tracker(1000);
  EXPECT_TRUE(tracker.bounded());
  ASSERT_TRUE(tracker.Reserve(600, "first").ok());
  EXPECT_EQ(tracker.available_bytes(), 400u);

  const Status denied = tracker.Reserve(600, "second");
  ASSERT_FALSE(denied.ok());
  EXPECT_EQ(denied.code(), StatusCode::kResourceExhausted);
  // The message names the claimant and the budget state.
  EXPECT_NE(denied.message().find("second"), std::string::npos);
  EXPECT_EQ(tracker.reserved_bytes(), 600u);  // failed reserve charged nothing

  tracker.Release(600);
  EXPECT_TRUE(tracker.Reserve(1000, "exact fit").ok());
  EXPECT_EQ(tracker.available_bytes(), 0u);
  tracker.Release(1000);
}

TEST(BudgetTracker, OversizedSingleRequestRejectedEvenWhenEmpty) {
  mem::BudgetTracker tracker(100);
  EXPECT_EQ(tracker.Reserve(101, "too big").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(tracker.reserved_bytes(), 0u);
}

TEST(BudgetReservation, RaiiReleasesOnScopeExit) {
  mem::BudgetTracker tracker(4096);
  {
    auto reservation =
        mem::BudgetReservation::Acquire(&tracker, 4096, "scoped");
    ASSERT_TRUE(reservation.ok());
    EXPECT_EQ(reservation->bytes(), 4096u);
    EXPECT_EQ(tracker.reserved_bytes(), 4096u);
  }
  EXPECT_EQ(tracker.reserved_bytes(), 0u);
}

TEST(BudgetReservation, MoveTransfersOwnershipAndReleaseIsIdempotent) {
  mem::BudgetTracker tracker(4096);
  auto first = mem::BudgetReservation::Acquire(&tracker, 1024, "a");
  ASSERT_TRUE(first.ok());
  mem::BudgetReservation moved = *std::move(first);
  EXPECT_EQ(tracker.reserved_bytes(), 1024u);
  moved.Release();
  moved.Release();  // idempotent
  EXPECT_EQ(tracker.reserved_bytes(), 0u);
}

TEST(BudgetReservation, NullTrackerYieldsEmptyReservation) {
  auto reservation =
      mem::BudgetReservation::Acquire(nullptr, 1ull << 30, "unbudgeted");
  ASSERT_TRUE(reservation.ok());
  EXPECT_TRUE(reservation->empty());
  EXPECT_EQ(reservation->bytes(), 0u);
}

TEST(BudgetStats, CountersTrackReservationsAndRejections) {
  mem::ResetBudgetStats();
  mem::BudgetTracker tracker(100);
  ASSERT_TRUE(tracker.Reserve(100, "fits").ok());
  EXPECT_FALSE(tracker.Reserve(1, "denied").ok());
  tracker.Release(100);
  const mem::BudgetStats stats = mem::GetBudgetStats();
  EXPECT_EQ(stats.reservations, 1u);
  EXPECT_EQ(stats.rejections, 1u);
}

TEST(BudgetStats, ReserveFailpointInjectsRejection) {
  failpoint::DeactivateAll();
  mem::ResetBudgetStats();
  ASSERT_TRUE(failpoint::Configure("budget.reserve=once").ok());
  mem::BudgetTracker tracker(1ull << 30);
  const Status injected = tracker.Reserve(1, "victim");
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(injected.message().find("injected"), std::string::npos);
  EXPECT_EQ(tracker.reserved_bytes(), 0u);
  // Disarmed after firing: the retry is admitted.
  EXPECT_TRUE(tracker.Reserve(1, "victim").ok());
  EXPECT_EQ(mem::GetBudgetStats().rejections, 1u);
  tracker.Release(1);
  failpoint::DeactivateAll();
}

// ---------------------------------------------------------------------------
// PlanMemoryBudget: PlanJoin's degradation ladder for a radix join
// ---------------------------------------------------------------------------

using join::internal::JoinPlan;

constexpr uint64_t kLadderBuild = 1u << 20;
constexpr uint64_t kLadderProbe = 1u << 23;

// PRL's plan for |R| = 2^20 dense keys and |S| = 2^23 on 4 threads of the
// paper's machine, under a tracker of `budget_bytes` (0 = unbounded).
// `radix_bits` 0 leaves the bits to Equation (1) and the ladder.
JoinPlan PrlPlan(uint64_t budget_bytes, uint32_t radix_bits = 0) {
  mem::BudgetTracker tracker(budget_bytes);
  join::JoinConfig config;
  config.num_threads = 4;
  config.radix_bits = radix_bits;
  config.budget = &tracker;
  return join::internal::PlanJoin(join::Algorithm::kPRL, config,
                                  kLadderBuild, kLadderProbe, kLadderBuild,
                                  partition::CacheSpec{});
}

TEST(PlanMemoryBudget, UnboundedKeepsBasePlan) {
  const JoinPlan plan = PrlPlan(0);
  EXPECT_EQ(plan.budget_bytes, 0u);
  EXPECT_FALSE(plan.bits_replanned);
  EXPECT_EQ(plan.radix_bits,
            partition::PredictRadixBits(kLadderBuild, partition::kLinearSpace,
                                        4, partition::CacheSpec{}));
  EXPECT_EQ(plan.wave_count, 1u);
}

TEST(PlanMemoryBudget, AmplePlanAdmittedUnchanged) {
  const JoinPlan base = PrlPlan(0);
  const JoinPlan plan = PrlPlan(1ull << 32);
  EXPECT_FALSE(plan.bits_replanned);
  EXPECT_EQ(plan.radix_bits, base.radix_bits);
  EXPECT_EQ(plan.wave_count, 1u);
  EXPECT_EQ(plan.planned_bytes, base.planned_bytes);
  EXPECT_LE(plan.planned_bytes, plan.budget_bytes);
}

TEST(PlanMemoryBudget, Stage1EscalatesRadixBits) {
  // Just below the base plan: one extra bit's worth of table shrink
  // suffices, so the plan degrades without waves.
  const JoinPlan base = PrlPlan(0);
  const JoinPlan plan = PrlPlan(base.planned_bytes - 1);
  EXPECT_TRUE(plan.bits_replanned);
  EXPECT_GT(plan.radix_bits, base.radix_bits);
  EXPECT_EQ(plan.wave_count, 1u);
  EXPECT_LE(plan.planned_bytes, plan.budget_bytes);
}

TEST(PlanMemoryBudget, Stage1RespectsFixedBits) {
  const JoinPlan plan = PrlPlan(PrlPlan(0, 10).planned_bytes - 1, 10);
  EXPECT_FALSE(plan.bits_replanned);
  EXPECT_EQ(plan.radix_bits, 10u);  // never escalated
  // The budget shortfall must be absorbed by waves instead.
  EXPECT_GT(plan.wave_count, 1u);
  EXPECT_LE(plan.planned_bytes, plan.budget_bytes);
}

TEST(PlanMemoryBudget, Stage2SpillsProbeSideInWaves) {
  // Too small for the whole probe side, ample for everything else.
  const JoinPlan plan =
      PrlPlan(kLadderProbe * sizeof(Tuple) / 4 +
              kLadderBuild * sizeof(Tuple) + 4 * (1u << 20));
  EXPECT_GT(plan.wave_count, 1u);
  EXPECT_LE(plan.wave_count, join::internal::kMaxSpillWaves);
  EXPECT_LE(plan.planned_bytes, plan.budget_bytes);
}

TEST(PlanMemoryBudget, InfeasibleWhenResidentSetExceedsBudget) {
  const JoinPlan plan = PrlPlan(kLadderBuild * sizeof(Tuple) / 2);  // < R
  // planned_bytes reports the smallest plan, so the rejection can say how
  // much would have been needed.
  EXPECT_GT(plan.planned_bytes, plan.budget_bytes);
}

TEST(PlanMemoryBudget, InfeasibleBeyondWaveCap) {
  // Leaves room for less than 1/kMaxSpillWaves of the probe side above the
  // resident set, so the wave ladder runs out.
  const uint64_t probe_bytes = kLadderProbe * sizeof(Tuple);
  const uint64_t resident = PrlPlan(0, 10).planned_bytes - probe_bytes;
  const JoinPlan plan = PrlPlan(
      resident + probe_bytes / (2 * join::internal::kMaxSpillWaves), 10);
  EXPECT_GT(plan.planned_bytes, plan.budget_bytes);
}

TEST(PlanMemoryBudget, EscalationStopsAtScratchFloor) {
  // Unsatisfiable: the ladder runs to its end. Bits escalate until every
  // worker table is charged the 4 KB floor, and the reported smallest plan
  // is R, 1/kMaxSpillWaves of S and four floor-sized tables.
  const JoinPlan plan = PrlPlan(1);
  EXPECT_FALSE(plan.bits_replanned);  // an infeasible plan reports no replan
  EXPECT_EQ(plan.planned_bytes,
            (kLadderBuild + kLadderProbe / join::internal::kMaxSpillWaves) *
                    sizeof(Tuple) +
                4 * 4096);
}

// ---------------------------------------------------------------------------
// Peak-resident accounting (mem.current_bytes / mem.peak_bytes)
// ---------------------------------------------------------------------------

TEST(PeakResident, AllocationRaisesPeakFreeLowersCurrent) {
  mem::ResetPeakResident();
  const mem::AllocStats before = mem::GetAllocStats();
  constexpr uint64_t kBytes = 4u << 20;  // mmap-class
  const StatusOr<void*> allocated = mem::TryAllocateAligned(
      kBytes, kCacheLineSize, mem::PagePolicy::kDefault);
  ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
  void* ptr = *allocated;
  const mem::AllocStats held = mem::GetAllocStats();
  EXPECT_GE(held.current_bytes, before.current_bytes + kBytes);
  EXPECT_GE(held.peak_bytes, before.current_bytes + kBytes);
  mem::FreeAligned(ptr, kBytes);
  const mem::AllocStats after = mem::GetAllocStats();
  EXPECT_EQ(after.current_bytes, held.current_bytes - kBytes);
  EXPECT_EQ(after.peak_bytes, held.peak_bytes);  // peak survives the free

  mem::ResetPeakResident();
  EXPECT_EQ(mem::GetAllocStats().peak_bytes, after.current_bytes);
}

// ---------------------------------------------------------------------------
// Differential: all thirteen algorithms under shrinking budgets
// ---------------------------------------------------------------------------

class BudgetDifferentialTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kBuild = 65536;
  static constexpr uint64_t kProbe = 400000;

  void SetUp() override {
    failpoint::DeactivateAll();
    build_ = workload::MakeDenseBuild(System(), kBuild, 7).value();
    probe_ = workload::MakeUniformProbe(System(), kProbe, kBuild, 8).value();
  }
  void TearDown() override { failpoint::DeactivateAll(); }

  static numa::NumaSystem* System() {
    static auto* system = new numa::NumaSystem(4);
    return system;
  }

  // Runs `algorithm` with an explicit tracker and returns the result plus
  // the tracker's peak reservation (the measured plan-level working set).
  StatusOr<join::JoinResult> RunWithBudget(join::Algorithm algorithm,
                                           uint64_t budget_bytes,
                                           uint64_t* peak_out = nullptr) {
    mem::BudgetTracker tracker(budget_bytes);
    join::JoinConfig config;
    config.num_threads = 4;
    config.budget = &tracker;
    auto result = join::RunJoin(algorithm, System(), config, build_, probe_);
    if (peak_out != nullptr) *peak_out = tracker.peak_reserved_bytes();
    return result;
  }

  workload::Relation build_;
  workload::Relation probe_;
};

// PR*/CPR* degrade gracefully and stay bit-identical; the indivisible-table
// algorithms (NOP*, CHTJ, MWAY) either fit or reject cleanly. Budgets are
// fractions of each algorithm's own measured (plan-level) unbounded peak,
// clamped to the configurable minimum.
TEST_F(BudgetDifferentialTest, AllAlgorithmsBitIdenticalOrCleanlyRejected) {
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    // Measure: a budget far above any plan admits without degradation.
    uint64_t peak = 0;
    const auto baseline =
        RunWithBudget(algorithm, uint64_t{1} << 40, &peak);
    ASSERT_TRUE(baseline.ok())
        << join::NameOf(algorithm) << ": " << baseline.status().ToString();
    ASSERT_GT(peak, 0u) << join::NameOf(algorithm)
                        << " reserved nothing against a bounded tracker";

    for (const double fraction : {0.5, 0.15}) {
      const uint64_t budget = std::max<uint64_t>(
          static_cast<uint64_t>(static_cast<double>(peak) * fraction),
          join::JoinConfig::kMinMemBudgetBytes);
      const std::size_t live_before = System()->num_live_regions();
      mem::ResetBudgetStats();
      const auto constrained = RunWithBudget(algorithm, budget);
      if (constrained.ok()) {
        EXPECT_EQ(constrained.value().matches, baseline.value().matches)
            << join::NameOf(algorithm) << " fraction=" << fraction;
        EXPECT_EQ(constrained.value().checksum, baseline.value().checksum)
            << join::NameOf(algorithm) << " fraction=" << fraction;
      } else {
        // Only the indivisible-working-set algorithms may reject.
        EXPECT_EQ(constrained.status().code(),
                  StatusCode::kResourceExhausted)
            << join::NameOf(algorithm) << " fraction=" << fraction;
        EXPECT_TRUE(algorithm == join::Algorithm::kNOP ||
                    algorithm == join::Algorithm::kNOPA ||
                    algorithm == join::Algorithm::kCHTJ ||
                    algorithm == join::Algorithm::kMWAY)
            << join::NameOf(algorithm)
            << " must degrade gracefully, not reject; "
            << constrained.status().ToString();
        EXPECT_GE(mem::GetBudgetStats().rejections, 1u)
            << join::NameOf(algorithm);
      }
      EXPECT_EQ(System()->num_live_regions(), live_before)
          << join::NameOf(algorithm) << " leaked a region at fraction "
          << fraction;
    }
  }
}

// The 15% budget must push every partition-based algorithm into spill-wave
// mode (the probe side alone exceeds the budget), observable through the
// mem.budget_* counters.
TEST_F(BudgetDifferentialTest, TightBudgetEngagesWaveModeForPartitionJoins) {
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const auto join_class = join::InfoOf(algorithm).join_class;
    if (join_class != join::JoinClass::kPartitionBased) continue;

    uint64_t peak = 0;
    const auto baseline =
        RunWithBudget(algorithm, uint64_t{1} << 40, &peak);
    ASSERT_TRUE(baseline.ok()) << join::NameOf(algorithm);

    const uint64_t budget = std::max<uint64_t>(
        static_cast<uint64_t>(static_cast<double>(peak) * 0.15),
        join::JoinConfig::kMinMemBudgetBytes);
    mem::ResetBudgetStats();
    const auto constrained = RunWithBudget(algorithm, budget);
    ASSERT_TRUE(constrained.ok())
        << join::NameOf(algorithm) << " failed at 15%: "
        << constrained.status().ToString();
    EXPECT_EQ(constrained.value().checksum, baseline.value().checksum)
        << join::NameOf(algorithm);

    const mem::BudgetStats stats = mem::GetBudgetStats();
    EXPECT_GE(stats.waves, 1u)
        << join::NameOf(algorithm) << " never entered wave mode at 15%";
    EXPECT_GE(stats.wave_rounds, 2u)
        << join::NameOf(algorithm) << " wave mode ran fewer than 2 rounds";
    EXPECT_EQ(stats.reservations, 1u) << join::NameOf(algorithm);
  }
}

// Every rejection takes one path -- the run's single reservation -- so it
// counts once and logs one budget.reject, whether the plan was infeasible
// (all nine radix joins, which cannot spill R) or the reservation failed.
// At 1 MiB only NOPA's 825,000-byte array fits a 200K-tuple build.
TEST_F(BudgetDifferentialTest, EveryRejectionCountsAndLogsOnce) {
  constexpr uint64_t kBudget = join::JoinConfig::kMinMemBudgetBytes;
  workload::Relation build =
      workload::MakeDenseBuild(System(), 200000, 9).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 800000, 200000, 10).value();
  std::string captured;
  logging::SetLogCaptureForTest(&captured);
  logging::SetLogFormatForTest(logging::LogFormat::kText);
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    const char* name = join::NameOf(algorithm);
    join::JoinConfig config;
    config.num_threads = 4;
    config.mem_budget_bytes = kBudget;
    captured.clear();
    mem::ResetBudgetStats();
    const auto result =
        join::RunJoin(algorithm, System(), config, build, probe);
    const bool fits = algorithm == join::Algorithm::kNOPA;
    EXPECT_EQ(result.ok(), fits) << name << ": " << result.status().ToString();
    EXPECT_EQ(mem::GetBudgetStats().rejections, fits ? 0u : 1u) << name;
    std::size_t logged = 0;
    for (std::size_t at = captured.find("budget.reject");
         at != std::string::npos;
         at = captured.find("budget.reject", at + 1)) {
      ++logged;
    }
    EXPECT_EQ(logged, fits ? 0u : 1u) << name << ": " << captured;
    if (fits) continue;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted) << name;
    const std::string message(result.status().message());
    EXPECT_NE(message.find(std::string(name) + " join"), std::string::npos)
        << message;
    EXPECT_NE(message.find(std::to_string(kBudget)), std::string::npos)
        << message;
  }
  logging::SetLogCaptureForTest(nullptr);
  logging::SetLogFormatForTest(logging::LogFormat::kDefault);
}

// An infeasible plan reports no degradation: PRB's two-pass plan does not
// fit 1 MiB, and neither does the one-pass plan it would drop to, so the run
// is rejected without a budget.replan event or a mem.budget_replans count.
TEST_F(BudgetDifferentialTest, InfeasiblePrbPlanReportsNoPassTwoDrop) {
  constexpr uint64_t kBudget = join::JoinConfig::kMinMemBudgetBytes;
  workload::Relation build =
      workload::MakeDenseBuild(System(), 200000, 9).value();
  workload::Relation probe =
      workload::MakeUniformProbe(System(), 800000, 200000, 10).value();
  join::JoinConfig config;
  config.num_threads = 2;
  config.mem_budget_bytes = kBudget;

  mem::BudgetTracker tracker(kBudget);
  join::JoinConfig planned = config;
  planned.budget = &tracker;
  const JoinPlan plan = join::internal::PlanJoin(
      join::Algorithm::kPRB, planned, build.size(), probe.size(),
      build.size(), partition::CacheSpec{});
  EXPECT_GT(plan.planned_bytes, plan.budget_bytes);
  EXPECT_FALSE(plan.budget_dropped_pass2);
  EXPECT_FALSE(plan.bits_replanned);

  std::string captured;
  logging::SetLogCaptureForTest(&captured);
  logging::SetLogFormatForTest(logging::LogFormat::kText);
  mem::ResetBudgetStats();
  const auto result =
      join::RunJoin(join::Algorithm::kPRB, System(), config, build, probe);
  logging::SetLogCaptureForTest(nullptr);
  logging::SetLogFormatForTest(logging::LogFormat::kDefault);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  const mem::BudgetStats stats = mem::GetBudgetStats();
  EXPECT_EQ(stats.replans, 0u);
  EXPECT_EQ(stats.rejections, 1u);
  EXPECT_EQ(captured.find("budget.replan"), std::string::npos) << captured;
  EXPECT_NE(captured.find("budget.reject"), std::string::npos) << captured;
}

// budget.wave forces the spill-wave path with no budget pressure at all:
// results must still be bit-identical (wave decomposition is exact, not an
// approximation).
TEST_F(BudgetDifferentialTest, ForcedWaveModeIsBitIdentical) {
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    if (join::InfoOf(algorithm).join_class !=
        join::JoinClass::kPartitionBased) {
      continue;
    }
    join::JoinConfig config;
    config.num_threads = 4;
    const auto baseline =
        join::RunJoin(algorithm, System(), config, build_, probe_);
    ASSERT_TRUE(baseline.ok()) << join::NameOf(algorithm);

    mem::ResetBudgetStats();
    ASSERT_TRUE(failpoint::Configure("budget.wave=always").ok());
    const auto waved =
        join::RunJoin(algorithm, System(), config, build_, probe_);
    failpoint::DeactivateAll();
    ASSERT_TRUE(waved.ok())
        << join::NameOf(algorithm) << ": " << waved.status().ToString();
    EXPECT_EQ(waved.value().matches, baseline.value().matches)
        << join::NameOf(algorithm);
    EXPECT_EQ(waved.value().checksum, baseline.value().checksum)
        << join::NameOf(algorithm);
    EXPECT_GE(mem::GetBudgetStats().wave_rounds, 2u)
        << join::NameOf(algorithm);
  }
}

// ---------------------------------------------------------------------------
// Planned bytes against allocated bytes
// ---------------------------------------------------------------------------

// What a join reserves is its plan's planned_bytes; what it allocates is the
// rise of mem.peak_bytes over the run. NOP, NOPA, CHTJ and MWAY allocate
// exactly their plan, and so do PRA, CPRA and PRAiS, whose worker arrays
// hold ceil(domain / 2^bits) slots. The other radix joins stay within
// theirs: the plan sizes each worker's hash table for twice the average
// partition.
TEST(PlanBytes, EveryJoinReservesWhatItAllocates) {
  static auto* system = new numa::NumaSystem(4);
  for (const uint64_t build_size : {65536u, 100000u, 600000u}) {
    workload::Relation build =
        workload::MakeDenseBuild(system, build_size, 21).value();
    workload::Relation probe =
        workload::MakeUniformProbe(system, 4 * build_size, build_size, 22)
            .value();
    for (const join::Algorithm algorithm : join::AllAlgorithms()) {
      const std::string what = std::string(join::NameOf(algorithm)) +
                               " |R|=" + std::to_string(build_size);
      mem::BudgetTracker tracker(uint64_t{1} << 40);
      join::JoinConfig config;
      config.num_threads = 4;
      config.budget = &tracker;
      mem::ResetPeakResident();
      const uint64_t before = mem::GetAllocStats().current_bytes;
      const auto result =
          join::RunJoin(algorithm, system, config, build, probe);
      ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
      const uint64_t allocated = mem::GetAllocStats().peak_bytes - before;
      const uint64_t planned = tracker.peak_reserved_bytes();
      const join::AlgorithmInfo& info = join::InfoOf(algorithm);
      if (info.join_class == join::JoinClass::kPartitionBased &&
          !info.requires_dense_keys) {
        EXPECT_GE(planned, allocated) << what;
      } else {
        EXPECT_EQ(planned, allocated) << what;
      }
    }
  }
}

}  // namespace
}  // namespace mmjoin
