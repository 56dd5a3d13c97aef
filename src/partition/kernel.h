// The radix partitioning kernel that every pass runs: the global pass
// (radix.h), the chunked pass (chunked.h) and PRB's pass 2
// (SubPartitionSerial). A pass supplies each thread's input range and its
// per-partition start cursors; the kernel counts and scatters.

#ifndef MMJOIN_PARTITION_KERNEL_H_
#define MMJOIN_PARTITION_KERNEL_H_

#include <cstdint>

#include "numa/system.h"
#include "partition/radix.h"
#include "util/types.h"

namespace mmjoin::partition {

// Counts the tuples of `input` per partition of `fn` into a thread-private
// array and copies the num_partitions() counts to `counts` once. Counting in
// place would false-share: per-thread rows of a shared histogram pack into a
// few cache lines when P is small.
void CountPartitions(ConstTupleSpan input, RadixFn fn, uint64_t* counts);

// Sends each tuple of `input` to output[cursor[p]++], p = fn(key), with the
// cursors starting at starts[p] (num_partitions() indices into `output`).
// With `use_swwcb` tuples are staged per partition in one cache line and
// flushed with non-temporal stores (swwcb.h); otherwise each is stored
// directly. When `system` is not null, the read of `input` and exactly the
// bytes written are accounted to `thread_node`.
void ScatterPartitions(ConstTupleSpan input, RadixFn fn,
                       const uint64_t* starts, bool use_swwcb, Tuple* output,
                       numa::NumaSystem* system, int thread_node);

}  // namespace mmjoin::partition

#endif  // MMJOIN_PARTITION_KERNEL_H_
