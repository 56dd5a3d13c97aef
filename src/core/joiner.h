// Joiner: the one-object entry point for applications.
//
// Owns a NumaSystem and a persistent thread::Executor and runs joins on
// them, optionally materializing the result -- everything a downstream user
// needs without touching the individual subsystems. Pick the algorithm by
// name with join::AlgorithmFromName or by workload with core::AdviseJoin.
// Worker threads are created once, in the constructor, with a stable
// thread->NUMA-node placement; every join the Joiner runs reuses that pool
// (no per-query thread churn).

#ifndef MMJOIN_CORE_JOINER_H_
#define MMJOIN_CORE_JOINER_H_

#include <memory>
#include <vector>

#include "join/join_algorithm.h"
#include "join/materialize.h"
#include "numa/system.h"
#include "thread/executor.h"
#include "util/status.h"
#include "workload/relation.h"

namespace mmjoin::core {

struct JoinerOptions {
  int num_nodes = 4;
  mem::PagePolicy page_policy = mem::PagePolicy::kHuge;
  int num_threads = 4;

  // Rejects option sets the constructor would otherwise abort on.
  Status Validate() const;
};

class Joiner {
 public:
  explicit Joiner(const JoinerOptions& options = JoinerOptions{});

  // Recoverable construction: InvalidArgument instead of abort for bad
  // options.
  static StatusOr<std::unique_ptr<Joiner>> Create(const JoinerOptions& options);

  Joiner(const Joiner&) = delete;
  Joiner& operator=(const Joiner&) = delete;

  // The NumaSystem relations for this joiner must be allocated from.
  numa::NumaSystem* system() { return &system_; }

  // The persistent worker pool every join (and any caller-side parallel
  // work, e.g. tpch::TryRunQ19) runs on. Its stats expose pool reuse:
  // stats().threads_spawned stays == num_threads() across any number of
  // joins.
  thread::Executor* executor() { return executor_.get(); }

  // Runs the given algorithm on this joiner's executor and NumaSystem.
  // Failures (allocation pressure, fault injection, invalid config) come
  // back as a non-OK Status instead of aborting the process.
  StatusOr<join::JoinResult> Run(join::Algorithm algorithm,
                                 const workload::Relation& build,
                                 const workload::Relation& probe);
  // Like Run, but with caller-supplied config fields (sink, build_unique,
  // radix_bits, mem_budget_bytes, ...). num_threads and executor are always
  // overridden to this joiner's pool; every other field is the caller's.
  StatusOr<join::JoinResult> Run(join::Algorithm algorithm,
                                 const join::JoinConfig& base_config,
                                 const workload::Relation& build,
                                 const workload::Relation& probe);
  // Materializing variant: returns the joined <key, build_payload,
  // probe_payload> triples. Unbudgeted; callers that need a bound run the
  // join through Run with their own JoinIndexSink and mem_budget_bytes.
  StatusOr<std::vector<join::MatchedPair>> RunMaterialized(
      join::Algorithm algorithm, const workload::Relation& build,
      const workload::Relation& probe);

  int num_threads() const { return num_threads_; }

 private:
  numa::NumaSystem system_;
  int num_threads_;
  std::unique_ptr<thread::Executor> executor_;
};

}  // namespace mmjoin::core

#endif  // MMJOIN_CORE_JOINER_H_
