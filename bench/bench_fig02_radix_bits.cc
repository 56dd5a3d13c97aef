// Figure 2: throughput of PRO for a varying number of radix bits, single-
// vs two-pass partitioning (the two-pass variant splits the bits evenly).
//
// Paper result: single-pass partitioning with ~14 bits peaks; two-pass is
// uniformly slower once SWWCBs make single-pass TLB-safe.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv,
                         bench::BenchFlags({"min_bits", "max_bits"}));
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);
  const uint32_t min_bits =
      static_cast<uint32_t>(cli.GetInt("min_bits", 6));
  const uint32_t max_bits =
      static_cast<uint32_t>(cli.GetInt("max_bits", 14));

  bench::PrintBanner(
      "Figure 2 (PRO: radix bits x passes)",
      "Total-join throughput of PRO when sweeping the number of radix bits, "
      "for single-pass and two-pass partitioning.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  workload::Relation build =
      workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
  workload::Relation probe = workload::MakeUniformProbe(
      &system, env.probe_size, env.build_size, env.seed + 1).value();

  TablePrinter table(
      {"bits", "passes=1_Mtps", "passes=2_Mtps", "best"});
  double best_throughput = 0;
  uint32_t best_bits = 0;
  for (uint32_t bits = min_bits; bits <= max_bits; ++bits) {
    double mtps[2] = {0, 0};
    for (const uint32_t passes : {1u, 2u}) {
      join::JoinConfig config;
      config.num_threads = env.threads;
      config.radix_bits = bits;
      config.num_passes = passes;
      const join::JoinResult result = bench::RunMedian(
          join::Algorithm::kPRO, &system, config, build, probe, env.repeat);
      mtps[passes - 1] =
          result.ThroughputMtps(env.build_size, env.probe_size);
    }
    if (mtps[0] > best_throughput) {
      best_throughput = mtps[0];
      best_bits = bits;
    }
    table.Row(static_cast<int>(bits), mtps[0], mtps[1],
              mtps[0] >= mtps[1] ? "1-pass" : "2-pass");
  }
  table.Print();
  std::printf(
      "\nsingle-pass peak at %u bits (paper: 14 bits at |R|=128M; the "
      "optimum shifts with |R| per Equation (1))\n",
      best_bits);
  bench::PrintExecutorStats();
  return 0;
}
