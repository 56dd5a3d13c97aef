// Figure 1: black-box comparison of the four fundamental join
// representatives (MWAY, CHTJ, PRB, NOP) -- throughput in M input tuples/s.
//
// Paper result: NOP is fastest, then PRB, then CHTJ, with MWAY last; this
// black-box ordering is what Sections 5-6 later overturn by enabling the
// partitioning optimizations.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);

  bench::PrintBanner(
      "Figure 1 (black box comparison)",
      "Throughput of the fundamental join representatives, unoptimized: "
      "PRB runs two passes without SWWCB; NOP/CHTJ/MWAY as published.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  workload::Relation build =
      workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
  workload::Relation probe = workload::MakeUniformProbe(
      &system, env.probe_size, env.build_size, env.seed + 1).value();

  join::JoinConfig config;
  config.num_threads = env.threads;

  TablePrinter table({"join", "throughput_Mtps", "total_ms", "matches"});
  for (const join::Algorithm algorithm :
       {join::Algorithm::kMWAY, join::Algorithm::kCHTJ, join::Algorithm::kPRB,
        join::Algorithm::kNOP}) {
    const join::JoinResult result = bench::RunMedian(
        algorithm, &system, config, build, probe, env.repeat);
    table.Row(join::NameOf(algorithm),
              result.ThroughputMtps(env.build_size, env.probe_size),
              result.times.total_ns / 1e6, result.matches);
  }
  table.Print();
  bench::PrintExecutorStats();
  return 0;
}
