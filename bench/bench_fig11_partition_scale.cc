// Figure 11: scalability of the partition phase alone, chunked vs global
// (non-chunked) partitioning, with the partition count growing with |R| so
// that a chained table per partition would fit L2.
//
// Paper result: the per-tuple partition cost stays flat up to 2^15
// partitions and deteriorates beyond -- once the per-thread SWWCBs no
// longer fit the shared LLC. Chunked partitioning tracks the same curve
// (slightly cheaper: no global histogram merge, no remote writes).

#include "bench_common.h"
#include "partition/chunked.h"
#include "partition/radix.h"
#include "thread/executor.h"
#include "util/bits.h"
#include "util/timer.h"

namespace {

using namespace mmjoin;

double GlobalPartitionNsPerTuple(numa::NumaSystem* system,
                                 const workload::Relation& input,
                                 uint32_t bits, int threads) {
  numa::NumaBuffer<Tuple> output(system, input.size(),
                                 numa::Placement::kChunkedRoundRobin);
  partition::RadixOptions options;
  options.fn = partition::RadixFn{0, bits};
  options.use_swwcb = true;
  options.num_threads = threads;
  partition::GlobalRadixPartitioner partitioner(
      system, options, input.cspan(),
      TupleSpan(output.data(), output.size()));
  Stopwatch watch;
  partition::GlobalRadixPartitioner* const pass[] = {&partitioner};
  MMJOIN_CHECK_OK(thread::GlobalExecutor().Dispatch(
      threads, [&](const thread::WorkerContext& ctx) {
        partition::RunGlobalPass(
            pass, ctx.thread_id,
            system->topology().NodeOfThread(ctx.thread_id, threads),
            *ctx.barrier);
      }));
  return static_cast<double>(watch.ElapsedNanos()) / input.size();
}

double ChunkedPartitionNsPerTuple(numa::NumaSystem* system,
                                  const workload::Relation& input,
                                  uint32_t bits, int threads) {
  numa::NumaBuffer<Tuple> output(system, input.size(),
                                 numa::Placement::kChunkedRoundRobin);
  partition::RadixOptions options;
  options.fn = partition::RadixFn{0, bits};
  options.use_swwcb = true;
  options.num_threads = threads;
  partition::ChunkedRadixPartitioner partitioner(
      system, options, input.cspan(),
      TupleSpan(output.data(), output.size()));
  Stopwatch watch;
  MMJOIN_CHECK_OK(thread::GlobalExecutor().Dispatch(
      threads, [&](const thread::WorkerContext& ctx) {
        partitioner.PartitionChunk(
            ctx.thread_id,
            system->topology().NodeOfThread(ctx.thread_id, threads));
      }));
  return static_cast<double>(watch.ElapsedNanos()) / input.size();
}

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv, bench::BenchFlags({"min_tuples"}));
  const bench::BenchEnv env = bench::BenchEnv::FromCli(cli, 1u << 22, 0);
  const uint64_t min_tuples =
      static_cast<uint64_t>(cli.GetInt("min_tuples", 1 << 16));

  bench::PrintBanner(
      "Figure 11 (partition-phase scalability)",
      "Average partition time per tuple; the partition count grows with |R| "
      "(one L2-sized chained table per partition), so larger inputs stress "
      "the SWWCB footprint.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  TablePrinter table({"tuples", "partitions", "global_ns/tuple",
                      "chunked_ns/tuple"});
  for (uint64_t n = min_tuples; n <= env.build_size; n *= 2) {
    // Partition count: chained table (16 B/tuple) per partition fits 256 KB
    // L2, like the paper's x-axis (|R| doubles -> one more bit).
    const uint32_t bits = std::max<uint32_t>(
        1, CeilLog2(std::max<uint64_t>(n * 16 / (256 * 1024), 2)));
    workload::Relation input =
        workload::MakeDenseBuild(&system, n, env.seed).value();

    double global_best = 1e100, chunked_best = 1e100;
    for (int i = 0; i < env.repeat; ++i) {
      global_best = std::min(
          global_best,
          GlobalPartitionNsPerTuple(&system, input, bits, env.threads));
      chunked_best = std::min(
          chunked_best,
          ChunkedPartitionNsPerTuple(&system, input, bits, env.threads));
    }
    table.Row(static_cast<unsigned long long>(n), 1u << bits, global_best,
              chunked_best);
  }
  table.Print();
  bench::PrintExecutorStats();
  return 0;
}
