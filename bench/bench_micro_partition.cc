// google-benchmark micro-benchmarks for the partitioning kernels: direct
// scatter vs SWWCB + non-temporal streaming, global vs chunked, and the
// cost of the histogram pass.

#include <benchmark/benchmark.h>

#include <vector>

#include "numa/system.h"
#include "partition/chunked.h"
#include "partition/radix.h"
#include "thread/executor.h"
#include "util/status.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace {

using namespace mmjoin;

numa::NumaSystem* System() {
  static auto* system = new numa::NumaSystem(4);
  return system;
}

void BM_Histogram(benchmark::State& state) {
  numa::NumaSystem* system = System();
  workload::Relation input =
      workload::MakeDenseBuild(system, state.range(0), 1).value();
  const partition::RadixFn fn{0, 10};
  std::vector<uint64_t> hist(fn.num_partitions());
  for (auto _ : state) {
    std::fill(hist.begin(), hist.end(), 0);
    for (uint64_t i = 0; i < input.size(); ++i) {
      ++hist[fn(input.data()[i].key)];
    }
    benchmark::DoNotOptimize(hist.data());
  }
  state.SetItemsProcessed(state.iterations() * input.size());
}
BENCHMARK(BM_Histogram)->Arg(1 << 18)->Arg(1 << 21);

template <bool kSwwcb>
void BM_GlobalScatter(benchmark::State& state) {
  numa::NumaSystem* system = System();
  const uint64_t n = state.range(0);
  const auto bits = static_cast<uint32_t>(state.range(1));
  workload::Relation input = workload::MakeDenseBuild(system, n, 1).value();
  numa::NumaBuffer<Tuple> output(system, n,
                                 numa::Placement::kChunkedRoundRobin);
  for (auto _ : state) {
    partition::RadixOptions options;
    options.fn = partition::RadixFn{0, bits};
    options.use_swwcb = kSwwcb;
    options.num_threads = 1;
    partition::GlobalRadixPartitioner partitioner(
        system, options, input.cspan(),
        TupleSpan(output.data(), output.size()));
    partitioner.BuildHistogram(0);
    partitioner.ComputeOffsets();
    partitioner.Scatter(0, 0);
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_GlobalScatter<false>)
    ->Args({1 << 20, 6})
    ->Args({1 << 20, 10})
    ->Args({1 << 20, 14});
BENCHMARK(BM_GlobalScatter<true>)
    ->Args({1 << 20, 6})
    ->Args({1 << 20, 10})
    ->Args({1 << 20, 14});

void BM_ChunkedPartition(benchmark::State& state) {
  numa::NumaSystem* system = System();
  const uint64_t n = state.range(0);
  const auto bits = static_cast<uint32_t>(state.range(1));
  const int threads = 4;
  workload::Relation input = workload::MakeDenseBuild(system, n, 1).value();
  numa::NumaBuffer<Tuple> output(system, n,
                                 numa::Placement::kChunkedRoundRobin);
  for (auto _ : state) {
    partition::RadixOptions options;
    options.fn = partition::RadixFn{0, bits};
    options.use_swwcb = true;
    options.num_threads = threads;
    partition::ChunkedRadixPartitioner partitioner(
        system, options, input.cspan(),
        TupleSpan(output.data(), output.size()));
    MMJOIN_CHECK_OK(thread::GlobalExecutor().Dispatch(
        threads, [&](const thread::WorkerContext& ctx) {
          partitioner.PartitionChunk(
              ctx.thread_id,
              system->topology().NodeOfThread(ctx.thread_id, threads));
        }));
    benchmark::DoNotOptimize(output.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChunkedPartition)->Args({1 << 20, 10});

void BM_SubPartitionSerial(benchmark::State& state) {
  numa::NumaSystem* system = System();
  const uint64_t n = state.range(0);
  workload::Relation input = workload::MakeDenseBuild(system, n, 1).value();
  std::vector<Tuple> output(n);
  for (auto _ : state) {
    const partition::PartitionLayout layout = partition::SubPartitionSerial(
        input.cspan(), TupleSpan(output.data(), output.size()),
        partition::RadixFn{7, 7});
    benchmark::DoNotOptimize(layout.offsets.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SubPartitionSerial)->Arg(1 << 18);

}  // namespace
