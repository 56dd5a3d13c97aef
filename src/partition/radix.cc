#include "partition/radix.h"

#include "partition/kernel.h"
#include "thread/thread_team.h"

namespace mmjoin::partition {

GlobalRadixPartitioner::GlobalRadixPartitioner(numa::NumaSystem* system,
                                               const RadixOptions& options,
                                               ConstTupleSpan input,
                                               TupleSpan output)
    : system_(system),
      options_(options),
      input_(input),
      output_(output),
      num_partitions_(options.fn.num_partitions()),
      hist_(static_cast<std::size_t>(options.num_threads) * num_partitions_),
      dst_(hist_.size()) {
  MMJOIN_CHECK(input.size() == output.size());
  MMJOIN_CHECK(options.num_threads >= 1);
}

void GlobalRadixPartitioner::BuildHistogram(int tid) {
  const thread::Range range =
      thread::ChunkRange(input_.size(), options_.num_threads, tid);
  CountPartitions(input_.subspan(range.begin, range.size()), options_.fn,
                  &hist_[static_cast<std::size_t>(tid) * num_partitions_]);
}

void GlobalRadixPartitioner::ComputeOffsets() {
  // Global layout: partition-major; within a partition, thread-major.
  layout_.offsets.assign(num_partitions_ + 1, 0);
  uint64_t running = 0;
  for (uint32_t p = 0; p < num_partitions_; ++p) {
    layout_.offsets[p] = running;
    for (int t = 0; t < options_.num_threads; ++t) {
      dst_[static_cast<std::size_t>(t) * num_partitions_ + p] = running;
      running += hist_[static_cast<std::size_t>(t) * num_partitions_ + p];
    }
  }
  layout_.offsets[num_partitions_] = running;
  MMJOIN_CHECK(running == input_.size());
}

void GlobalRadixPartitioner::Scatter(int tid, int thread_node) {
  const thread::Range range =
      thread::ChunkRange(input_.size(), options_.num_threads, tid);
  ScatterPartitions(input_.subspan(range.begin, range.size()), options_.fn,
                    &dst_[static_cast<std::size_t>(tid) * num_partitions_],
                    options_.use_swwcb, output_.data(), system_, thread_node);
}

void RunGlobalPass(std::span<GlobalRadixPartitioner* const> partitioners,
                   int tid, int thread_node, thread::Barrier& barrier) {
  for (GlobalRadixPartitioner* p : partitioners) p->BuildHistogram(tid);
  barrier.ArriveAndWait();
  if (tid == 0) {
    for (GlobalRadixPartitioner* p : partitioners) p->ComputeOffsets();
  }
  barrier.ArriveAndWait();
  for (GlobalRadixPartitioner* p : partitioners) p->Scatter(tid, thread_node);
  barrier.ArriveAndWait();
}

PartitionLayout SubPartitionSerial(ConstTupleSpan input, TupleSpan output,
                                   RadixFn fn) {
  MMJOIN_CHECK(input.size() == output.size());
  const uint32_t num_partitions = fn.num_partitions();
  // Count into offsets[0, P), then turn the counts into their exclusive
  // prefix sum in place.
  PartitionLayout layout;
  layout.offsets.assign(num_partitions + 1, 0);
  CountPartitions(input, fn, layout.offsets.data());
  uint64_t running = 0;
  for (uint32_t p = 0; p <= num_partitions; ++p) {
    const uint64_t count = layout.offsets[p];
    layout.offsets[p] = running;
    running += count;
  }
  ScatterPartitions(input, fn, layout.offsets.data(), /*use_swwcb=*/false,
                    output.data(), /*system=*/nullptr, /*thread_node=*/0);
  return layout;
}

}  // namespace mmjoin::partition
