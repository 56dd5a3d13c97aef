// Parallel radix partitioning (global histogram variant, paper Section 6.1,
// Figure 4(a)).
//
// Phases:
//   (1) each thread builds a histogram over its input chunk,
//   (2) histograms are merged into global output offsets,
//   (3) each thread scatters its chunk to the shared output, optionally via
//       software write-combine buffers with non-temporal flushes.
// RunGlobalPass drives them on a thread team. A serial sub-partitioning
// routine supports the second pass of two-pass radix joins (PRB), where
// whole first-pass partitions are work-queue tasks.
//
// Every pass -- global, chunked (chunked.h) and pass 2 -- runs the same
// kernel (kernel.h); the passes differ only in where a thread's
// per-partition start cursors come from.

#ifndef MMJOIN_PARTITION_RADIX_H_
#define MMJOIN_PARTITION_RADIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "numa/system.h"
#include "thread/thread_team.h"
#include "util/macros.h"
#include "util/types.h"

namespace mmjoin::partition {

// Radix function: partition(key) = (key >> shift) & (2^bits - 1).
struct RadixFn {
  uint32_t shift = 0;
  uint32_t bits = 0;

  uint32_t num_partitions() const { return uint32_t{1} << bits; }
  MMJOIN_ALWAYS_INLINE uint32_t operator()(uint32_t key) const {
    return (key >> shift) & ((uint32_t{1} << bits) - 1);
  }
};

struct RadixOptions {
  RadixFn fn;
  bool use_swwcb = true;  // SWWCB + non-temporal streaming (PRO); false = PRB
  int num_threads = 1;
};

// Result layout: partition p occupies output[offsets[p], offsets[p+1]).
struct PartitionLayout {
  std::vector<uint64_t> offsets;  // size P+1
  uint32_t num_partitions() const {
    return static_cast<uint32_t>(offsets.size() - 1);
  }
  uint64_t PartitionBegin(uint32_t p) const { return offsets[p]; }
  uint64_t PartitionSize(uint32_t p) const {
    return offsets[p + 1] - offsets[p];
  }
};

// Orchestrates one global radix pass. RunGlobalPass runs its phases on a
// thread team; a caller may also run them itself, with barriers in between:
//
//   GlobalRadixPartitioner part(sys, opts, input, output);
//   // per thread:            part.BuildHistogram(tid);
//   // barrier; single thread part.ComputeOffsets();
//   // barrier; per thread:   part.Scatter(tid, thread_node);
//
// After Scatter on all threads, layout() describes the output.
class GlobalRadixPartitioner {
 public:
  GlobalRadixPartitioner(numa::NumaSystem* system, const RadixOptions& options,
                         ConstTupleSpan input, TupleSpan output);

  void BuildHistogram(int tid);
  void ComputeOffsets();
  void Scatter(int tid, int thread_node);

  const PartitionLayout& layout() const { return layout_; }

 private:
  numa::NumaSystem* system_;
  RadixOptions options_;
  ConstTupleSpan input_;
  TupleSpan output_;
  uint32_t num_partitions_;
  // hist_[tid * P + p]; dst_[tid * P + p] = first output index of thread
  // tid's tuples for partition p.
  std::vector<uint64_t> hist_;
  std::vector<uint64_t> dst_;
  PartitionLayout layout_;
};

// Pass 1 of every partitioner in `partitioners`, run by worker `tid` (on
// `thread_node`) of the team that `barrier` synchronizes: histograms,
// barrier, offsets (thread 0), barrier, scatter, barrier. Partitioning
// several relations in one call shares the barriers; each output is the
// same as partitioning that relation alone.
void RunGlobalPass(std::span<GlobalRadixPartitioner* const> partitioners,
                   int tid, int thread_node, thread::Barrier& barrier);

// Serially radix-partitions `input` (one first-pass partition) into the
// same-sized `output` range; returns local offsets (size P+1, relative to
// the start of `output`). Used by the second pass of PRB and by tests.
PartitionLayout SubPartitionSerial(ConstTupleSpan input, TupleSpan output,
                                   RadixFn fn);

}  // namespace mmjoin::partition

#endif  // MMJOIN_PARTITION_RADIX_H_
