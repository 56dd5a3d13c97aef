// JoinAlgorithm interface and factory.
//
// Every algorithm consumes a build relation R (the smaller side, unique or
// near-unique keys) and a probe relation S, and returns an aggregate
// JoinResult -- the micro-benchmark methodology shared by all papers this
// study reproduces (no result materialization unless a MatchSink is set).

#ifndef MMJOIN_JOIN_JOIN_ALGORITHM_H_
#define MMJOIN_JOIN_JOIN_ALGORITHM_H_

#include <memory>

#include "join/join_defs.h"
#include "numa/system.h"
#include "util/status.h"
#include "util/types.h"
#include "workload/relation.h"

namespace mmjoin::join {

class JoinAlgorithm {
 public:
  virtual ~JoinAlgorithm() = default;

  virtual Algorithm id() const = 0;

  // Executes the join. `key_domain` is the exclusive upper bound of the
  // build key domain (required by the array joins; pass 0 when unknown --
  // algorithms that need it will scan for the maximum).
  //
  // Recoverable failures -- allocation failure (real or via the alloc.*
  // failpoints), invalid configuration, a poisoned executor -- come back as
  // a non-OK Status with all phase buffers released; invariant violations
  // still abort. A non-OK return leaves `system` without leaked regions.
  virtual StatusOr<JoinResult> Run(numa::NumaSystem* system,
                                   const JoinConfig& config,
                                   ConstTupleSpan build, ConstTupleSpan probe,
                                   uint64_t key_domain) = 0;
};

std::unique_ptr<JoinAlgorithm> CreateJoin(Algorithm algorithm);

// Convenience wrapper over CreateJoin + Run for Relation inputs. Validates
// `config` against the relation sizes first.
StatusOr<JoinResult> RunJoin(Algorithm algorithm, numa::NumaSystem* system,
                             const JoinConfig& config,
                             const workload::Relation& build,
                             const workload::Relation& probe);

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_JOIN_ALGORITHM_H_
