#include <optional>
#include <string>

#include "join/internal.h"
#include "join/join_algorithm.h"
#include "join/join_defs.h"
#include "join/join_plan.h"
#include "mem/budget.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/macros.h"
#include "util/status.h"

namespace mmjoin::join {
namespace {

constexpr AlgorithmInfo kInfos[] = {
    {Algorithm::kPRB, "PRB", JoinClass::kPartitionBased,
     "two-pass parallel radix join, no SWWCB/non-temporal streaming", false},
    {Algorithm::kNOP, "NOP", JoinClass::kNoPartitioning,
     "no-partitioning join, lock-free linear probing (CAS)", false},
    {Algorithm::kCHTJ, "CHTJ", JoinClass::kNoPartitioning,
     "concise hash table join", false},
    {Algorithm::kMWAY, "MWAY", JoinClass::kSortMerge,
     "multi-way sort-merge join, SIMD merge kernels", false},
    {Algorithm::kNOPA, "NOPA", JoinClass::kNoPartitioning,
     "NOP with a plain array as the hash table", true},
    {Algorithm::kPRO, "PRO", JoinClass::kPartitionBased,
     "one-pass parallel radix join + SWWCB + NT streaming, chained table",
     false},
    {Algorithm::kPRL, "PRL", JoinClass::kPartitionBased,
     "PRO with a linear probing table", false},
    {Algorithm::kPRA, "PRA", JoinClass::kPartitionBased,
     "PRO with array tables", true},
    {Algorithm::kCPRL, "CPRL", JoinClass::kPartitionBased,
     "chunked parallel radix join, linear probing", false},
    {Algorithm::kCPRA, "CPRA", JoinClass::kPartitionBased,
     "chunked parallel radix join, array tables", true},
    {Algorithm::kPROiS, "PROiS", JoinClass::kPartitionBased,
     "PRO with NUMA round-robin join-task scheduling", false},
    {Algorithm::kPRLiS, "PRLiS", JoinClass::kPartitionBased,
     "PRL with improved scheduling", false},
    {Algorithm::kPRAiS, "PRAiS", JoinClass::kPartitionBased,
     "PRA with improved scheduling", true},
};

}  // namespace

const AlgorithmInfo& InfoOf(Algorithm algorithm) {
  for (const AlgorithmInfo& info : kInfos) {
    if (info.algorithm == algorithm) return info;
  }
  MMJOIN_CHECK(false && "unknown algorithm");
  return kInfos[0];
}

const char* NameOf(Algorithm algorithm) { return InfoOf(algorithm).name; }

std::optional<Algorithm> AlgorithmFromName(std::string_view name) {
  for (const AlgorithmInfo& info : kInfos) {
    if (name == info.name) return info.algorithm;
  }
  return std::nullopt;
}

const std::vector<Algorithm>& AllAlgorithms() {
  static const std::vector<Algorithm>* const kAll = [] {
    auto* all = new std::vector<Algorithm>;
    for (const AlgorithmInfo& info : kInfos) all->push_back(info.algorithm);
    return all;
  }();
  return *kAll;
}

Status JoinConfig::Validate(uint64_t build_size, uint64_t probe_size) const {
  if (num_threads < 1 || num_threads > kMaxThreads) {
    return InvalidArgumentError("num_threads=" + std::to_string(num_threads) +
                                " outside [1, " +
                                std::to_string(kMaxThreads) + "]");
  }
  if (radix_bits > kMaxRadixBits) {
    return InvalidArgumentError(
        "radix_bits=" + std::to_string(radix_bits) + " exceeds " +
        std::to_string(kMaxRadixBits));
  }
  if (num_passes > 2) {
    return InvalidArgumentError("num_passes=" + std::to_string(num_passes) +
                                " (the radix joins support at most 2)");
  }
  // Partition buffers are sized as tuples * fan-out with size_t arithmetic;
  // bound the inputs so that cannot overflow (and keys stay addressable).
  if (build_size > kMaxRelationSize || probe_size > kMaxRelationSize) {
    return InvalidArgumentError(
        "relation sizes (" + std::to_string(build_size) + ", " +
        std::to_string(probe_size) + ") exceed the supported maximum 2^40");
  }
  if (!mem_budget_bytes.has_value()) return OkStatus();
  if (*mem_budget_bytes == 0) {
    return InvalidArgumentError(
        "mem_budget_bytes=0: a zero memory budget cannot admit any "
        "allocation (omit the budget for unbounded)");
  }
  if (*mem_budget_bytes < kMinMemBudgetBytes) {
    return InvalidArgumentError(
        "mem_budget_bytes=" + std::to_string(*mem_budget_bytes) +
        " is below the minimum " + std::to_string(kMinMemBudgetBytes) +
        " (one mmap-class partition buffer)");
  }
  return OkStatus();
}

namespace {

// Reports the plan's budget decisions (docs/ROBUSTNESS.md "Memory budgets")
// and reserves its planned bytes for the whole run, so joins on a shared
// tracker are admitted against each other. An infeasible plan needs more
// than the whole budget: its reservation fails like any other rejection.
StatusOr<mem::BudgetReservation> Admit(const char* name,
                                       const internal::JoinPlan& plan,
                                       mem::BudgetTracker* tracker) {
  if (plan.budget_dropped_pass2) {
    mem::CountBudgetReplan();
    MMJOIN_LOG(kWarn, "budget.replan")
        .Field("algo", name)
        .Field("action", "drop_pass2")
        .Field("budget_bytes", plan.budget_bytes);
  }
  if (plan.bits_replanned) {
    mem::CountBudgetReplan();
    MMJOIN_LOG(kWarn, "budget.replan")
        .Field("algo", name)
        .Field("action", "radix_bits")
        .Field("bits", plan.radix_bits)
        .Field("planned_bytes", plan.planned_bytes)
        .Field("budget_bytes", plan.budget_bytes);
  }
  const std::string what = std::string(name) + " join working set";
  MMJOIN_ASSIGN_OR_RETURN(
      mem::BudgetReservation reservation,
      mem::BudgetReservation::Acquire(tracker, plan.planned_bytes,
                                      what.c_str()));
  if (plan.wave_dropped_pass2) mem::CountBudgetReplan();
  if (plan.wave_count > 1) {
    mem::CountBudgetWave();
    MMJOIN_LOG(kWarn, "budget.wave")
        .Field("algo", name)
        .Field("waves", plan.wave_count)
        .Field("bits", plan.radix_bits);
  }
  return reservation;
}

}  // namespace

StatusOr<JoinResult> RunJoin(Algorithm algorithm, numa::NumaSystem* system,
                             const JoinConfig& config, ConstTupleSpan build,
                             ConstTupleSpan probe, uint64_t key_domain) {
  MMJOIN_RETURN_IF_ERROR(config.Validate(build.size(), probe.size()));
  if (config.sink != nullptr && MMJOIN_FAILPOINT("alloc.materialize")) {
    return ResourceExhaustedError(
        "injected allocation failure in materialize phase "
        "(failpoint alloc.materialize)");
  }
  // Run-local budget: lives exactly as long as this join's buffers.
  std::optional<mem::BudgetTracker> tracker;
  JoinConfig run_config = config;
  if (config.budget == nullptr && config.mem_budget_bytes.has_value()) {
    tracker.emplace(*config.mem_budget_bytes);
    run_config.budget = &*tracker;
  }
  // Array sizes and MWAY's range partitioning need the key domain.
  const uint64_t domain =
      InfoOf(algorithm).requires_dense_keys || algorithm == Algorithm::kMWAY
          ? internal::InferKeyDomain(build, key_domain)
          : key_domain;
  const internal::JoinPlan plan =
      internal::PlanJoin(algorithm, run_config, build.size(), probe.size(),
                         domain, internal::HostCacheSpec());
  MMJOIN_ASSIGN_OR_RETURN(const mem::BudgetReservation reservation,
                          Admit(NameOf(algorithm), plan, run_config.budget));

  StatusOr<JoinResult> result = [&]() -> StatusOr<JoinResult> {
    switch (algorithm) {
      case Algorithm::kNOP:
        return internal::RunNopJoin<internal::NopLinearTable>(
            system, run_config, build, probe, domain);
      case Algorithm::kNOPA:
        return internal::RunNopJoin<hash::ArrayTable>(
            system, run_config, build, probe, domain);
      case Algorithm::kCHTJ:
        return internal::RunChtJoin(system, run_config, build, probe);
      case Algorithm::kMWAY:
        return internal::RunMwayJoin(system, run_config, build, probe,
                                     domain);
      case Algorithm::kPRB:
      case Algorithm::kPRO:
      case Algorithm::kPRL:
      case Algorithm::kPRA:
      case Algorithm::kPROiS:
      case Algorithm::kPRLiS:
      case Algorithm::kPRAiS:
      case Algorithm::kCPRL:
      case Algorithm::kCPRA:
        return internal::RunRadixJoin(plan, system, run_config, build,
                                      probe);
    }
    MMJOIN_CHECK(false && "unknown algorithm");
    return JoinResult{};
  }();
  if (result.ok()) {
    // One count and one end-to-end latency sample per successful run.
    obs::MetricsRegistry::Get().AddCounter("join.runs", 1);
    static obs::Histogram* const latency =
        obs::MetricsRegistry::Get().GetHistogram("join.latency_ns");
    latency->Record(static_cast<uint64_t>(result->times.total_ns));
  }
  return result;
}

}  // namespace mmjoin::join
