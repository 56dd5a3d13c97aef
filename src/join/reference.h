// Reference join used by the test suite as ground truth.

#ifndef MMJOIN_JOIN_REFERENCE_H_
#define MMJOIN_JOIN_REFERENCE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "join/join_defs.h"
#include "util/types.h"

namespace mmjoin::thread {
class Executor;
}  // namespace mmjoin::thread

namespace mmjoin::join {

// Computes (matches, checksum) of the equi-join with bag semantics: every
// build tuple matches every probe tuple with its key, duplicates on both
// sides included. The build side becomes one sorted array of packed
// (key, payload) words that each probe tuple binary-searches, so the oracle
// holds about 9 bytes per build tuple (the array and a bucket directory over
// it). Single-threaded by default; with an executor the probe phase runs as
// one ParallelFor over the persistent pool (the build stays serial), which
// keeps the oracle exact while making large differential tests affordable.
JoinResult ReferenceJoin(ConstTupleSpan build, ConstTupleSpan probe,
                         thread::Executor* executor = nullptr);

// Materializes every matched <build.payload, probe.payload> pair, sorted,
// for exact multiset comparison on small inputs.
std::vector<std::pair<uint32_t, uint32_t>> ReferenceJoinPairs(
    ConstTupleSpan build, ConstTupleSpan probe);

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_REFERENCE_H_
