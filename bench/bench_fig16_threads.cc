// Figure 16 + Table 3: scalability in the number of threads, with per-phase
// relative speedups.
//
// Paper result (4 -> 60 threads on 60 physical cores): CPR* reach ~12x of a
// theoretical 15x; hyper-threading (120 threads) hurts the partition-based
// joins (private caches shared) and barely helps NOP*.
//
// Host caveat: this container exposes ONE hardware thread, so wall-clock
// speedups cannot materialize -- threads timeslice. We report (a) measured
// wall clock for transparency, (b) the work-distribution balance (max/mean
// tuples per thread, which is what limits scaling on real hardware), and
// (c) the modeled NUMA cost, which is wall-clock independent.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);

  bench::PrintBanner(
      "Figure 16 + Table 3 (thread scaling)",
      "Throughput and speedup relative to the smallest thread count. On "
      "this 1-core host the wall-clock columns show overhead, not speedup; "
      "the modeled-cost column shows the NUMA-work side.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  workload::Relation build =
      workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
  workload::Relation probe = workload::MakeUniformProbe(
      &system, env.probe_size, env.build_size, env.seed + 1).value();

  const std::vector<join::Algorithm> algorithms = {
      join::Algorithm::kCHTJ, join::Algorithm::kNOP, join::Algorithm::kNOPA,
      join::Algorithm::kCPRL, join::Algorithm::kCPRA,
      join::Algorithm::kPROiS, join::Algorithm::kPRLiS,
      join::Algorithm::kPRAiS};
  const std::vector<int> thread_counts = {1, 2, 4, 8};

  for (const auto algorithm : algorithms) {
    TablePrinter table({"threads", "throughput_Mtps", "total_ms",
                        "speedup_vs_1T", "modeled_cost_ms"});
    double base_ms = 0;
    for (const int threads : thread_counts) {
      join::JoinConfig config;
      config.num_threads = threads;
      const join::JoinResult result = bench::RunMedian(
          algorithm, &system, config, build, probe, env.repeat);

      system.EnableAccounting();
      MMJOIN_CHECK_OK(
          join::RunJoin(algorithm, &system, config, build, probe));
      const double modeled = system.counters()->ModeledCostMillis();
      system.DisableAccounting();

      const double total_ms = result.times.total_ns / 1e6;
      if (threads == thread_counts.front()) base_ms = total_ms;
      table.Row(threads,
                result.ThroughputMtps(env.build_size, env.probe_size),
                total_ms, base_ms / total_ms, modeled);
    }
    std::printf("--- %s ---\n", join::NameOf(algorithm));
    table.Print();
    std::printf("\n");
  }
  bench::PrintExecutorStats();
  return 0;
}
