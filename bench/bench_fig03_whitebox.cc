// Figure 3: white-box comparison -- black-box representatives plus the
// optimized variants NOPA, PRO, PRL, PRA.
//
// Paper result: enabling SWWCB + non-temporal streaming + single-pass
// partitioning roughly doubles radix-join throughput (PRO vs PRB) and the
// PR* variants overtake NOP; PRA/PRO/PRL look almost identical here (the
// scheduling bottleneck hides the table differences until Figure 7).

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);

  bench::PrintBanner(
      "Figure 3 (white box comparison)",
      "Join throughput including the improved variants; expect ~2x over the "
      "black-box PRB and the PR* family overtaking NOP*.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  workload::Relation build =
      workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
  workload::Relation probe = workload::MakeUniformProbe(
      &system, env.probe_size, env.build_size, env.seed + 1).value();

  join::JoinConfig config;
  config.num_threads = env.threads;

  TablePrinter table({"join", "throughput_Mtps", "partition_ms", "join_ms",
                      "total_ms"});
  for (const join::Algorithm algorithm :
       {join::Algorithm::kMWAY, join::Algorithm::kCHTJ, join::Algorithm::kPRB,
        join::Algorithm::kNOP, join::Algorithm::kNOPA, join::Algorithm::kPRO,
        join::Algorithm::kPRL, join::Algorithm::kPRA}) {
    const join::JoinResult result = bench::RunMedian(
        algorithm, &system, config, build, probe, env.repeat);
    table.Row(join::NameOf(algorithm),
              result.ThroughputMtps(env.build_size, env.probe_size),
              result.times.partition_ns / 1e6,
              (result.times.build_ns + result.times.probe_ns) / 1e6,
              result.times.total_ns / 1e6);
  }
  table.Print();
  bench::PrintExecutorStats();
  return 0;
}
