// Single-layer replays, run only in the traced run: each times one
// module's public functions in isolation over the workload's join inputs,
// so a change inside partition/, hash/ or sort/ shows up as its own number.

#ifndef PERFBENCH_REPLAYS_H_
#define PERFBENCH_REPLAYS_H_

#include <cstdint>

#include "core/joiner.h"
#include "report.h"
#include "workload/relation.h"

namespace perfbench {

// The radix bits partition::PredictRadixBits picks for `build` on this host
// (linear-probing table footprint, the joiner's thread count).
uint32_t PredictedBits(const mmjoin::workload::Relation& build, int threads);

// GlobalRadixPartitioner with and without SWWCB and ChunkedRadixPartitioner
// over `probe`, on the joiner's executor.
void RunPartitionReplay(mmjoin::core::Joiner& joiner,
                        const mmjoin::workload::Relation& probe, uint32_t bits,
                        Report* report, SpanLog* spans);

// Single-threaded build and probe of each table kind, at the global size
// |R| and at the size of one radix partition.
void RunHashReplay(mmjoin::numa::NumaSystem* system,
                   const mmjoin::workload::Relation& build,
                   const mmjoin::workload::Relation& probe, uint32_t bits,
                   Report* report, SpanLog* spans);

// Single-threaded run generation (MergeSortPacked) and multiway merge
// (MultiwayMerge) over a prefix of `probe`.
void RunSortReplay(const mmjoin::workload::Relation& probe, Report* report,
                   SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAYS_H_
