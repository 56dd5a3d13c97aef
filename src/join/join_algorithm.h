// RunJoin: the one entry point into any of the thirteen joins.
//
// Every algorithm consumes a build relation R (the smaller side, unique or
// near-unique keys) and a probe relation S, and returns an aggregate
// JoinResult -- the micro-benchmark methodology shared by all papers this
// study reproduces (no result materialization unless a MatchSink is set).

#ifndef MMJOIN_JOIN_JOIN_ALGORITHM_H_
#define MMJOIN_JOIN_JOIN_ALGORITHM_H_

#include <cstdint>

#include "join/join_defs.h"
#include "numa/system.h"
#include "util/status.h"
#include "util/types.h"
#include "workload/relation.h"

namespace mmjoin::join {

// Executes `algorithm` on R = `build`, S = `probe`. `key_domain` is the
// exclusive upper bound of the build key domain (required by the array
// joins; pass 0 when unknown -- algorithms that need it scan for the
// maximum).
//
// The run protocol lives here and nowhere else: `config` is validated
// against the input sizes, the alloc.materialize failpoint gates runs with
// a MatchSink, a run-local mem::BudgetTracker enforces
// `config.mem_budget_bytes` when no shared tracker is set, and a successful
// run counts `join.runs` and records `join.latency_ns`.
//
// Recoverable failures -- allocation failure (real or via the alloc.*
// failpoints), invalid configuration, a poisoned executor -- come back as a
// non-OK Status with all phase buffers released; invariant violations
// still abort. A non-OK return leaves `system` without leaked regions.
StatusOr<JoinResult> RunJoin(Algorithm algorithm, numa::NumaSystem* system,
                             const JoinConfig& config, ConstTupleSpan build,
                             ConstTupleSpan probe, uint64_t key_domain);

// RunJoin over whole relations; the key domain is the build relation's.
inline StatusOr<JoinResult> RunJoin(Algorithm algorithm,
                                    numa::NumaSystem* system,
                                    const JoinConfig& config,
                                    const workload::Relation& build,
                                    const workload::Relation& probe) {
  return RunJoin(algorithm, system, config, build.cspan(), probe.cspan(),
                 build.key_domain());
}

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_JOIN_ALGORITHM_H_
