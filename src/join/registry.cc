#include <optional>
#include <string>

#include "join/internal.h"
#include "join/join_algorithm.h"
#include "join/join_defs.h"
#include "mem/budget.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
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
  StatusOr<JoinResult> result = [&]() -> StatusOr<JoinResult> {
    switch (algorithm) {
      case Algorithm::kNOP:
        return internal::RunNopJoin<internal::NopLinearOps>(
            system, run_config, build, probe, key_domain);
      case Algorithm::kNOPA:
        return internal::RunNopJoin<internal::NopArrayOps>(
            system, run_config, build, probe, key_domain);
      case Algorithm::kCHTJ:
        return internal::RunChtJoin(system, run_config, build, probe);
      case Algorithm::kMWAY:
        return internal::RunMwayJoin(system, run_config, build, probe,
                                     key_domain);
      case Algorithm::kPRB:
      case Algorithm::kPRO:
      case Algorithm::kPRL:
      case Algorithm::kPRA:
      case Algorithm::kPROiS:
      case Algorithm::kPRLiS:
      case Algorithm::kPRAiS:
      case Algorithm::kCPRL:
      case Algorithm::kCPRA:
        return internal::RunRadixJoin(algorithm, system, run_config, build,
                                      probe, key_domain);
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
