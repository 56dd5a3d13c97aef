// Figure 5: runtime of the PR*-algorithms vs the chunked CPR*-algorithms,
// broken into partition phase and join phase, plus the NUMA write profile
// behind the difference (Figure 4).
//
// Paper result: CPR* beats PR* by ~20%; the partitioning time drops because
// chunked partitioning writes only node-locally, and (surprisingly, until
// Section 6.2 explains it) even the join phase is faster because CPR* reads
// every partition from all nodes and so never serializes on one memory
// controller.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv);
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);

  bench::PrintBanner(
      "Figure 5 (PR* vs CPR*)",
      "End-to-end runtime split into partition and join phases, plus "
      "local/remote partition-write traffic from the NUMA model.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  workload::Relation build =
      workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
  workload::Relation probe = workload::MakeUniformProbe(
      &system, env.probe_size, env.build_size, env.seed + 1).value();

  join::JoinConfig config;
  config.num_threads = env.threads;

  TablePrinter table({"join", "partition_ms", "join_ms", "total_ms",
                      "remote_write_MB", "local_write_MB",
                      "modeled_cost_ms"});
  for (const join::Algorithm algorithm :
       {join::Algorithm::kPRO, join::Algorithm::kPRL, join::Algorithm::kPRA,
        join::Algorithm::kCPRL, join::Algorithm::kCPRA}) {
    const join::JoinResult timed = bench::RunMedian(
        algorithm, &system, config, build, probe, env.repeat);

    // Separate instrumented run for the traffic profile.
    system.EnableAccounting();
    MMJOIN_CHECK_OK(join::RunJoin(algorithm, &system, config, build, probe));
    const double remote_mb =
        system.counters()->TotalRemoteWriteBytes() / 1e6;
    const double local_mb =
        system.counters()->TotalLocalWriteBytes() / 1e6;
    const double modeled = system.counters()->ModeledCostMillis();
    system.DisableAccounting();

    table.Row(join::NameOf(algorithm), timed.times.partition_ns / 1e6,
              timed.times.probe_ns / 1e6, timed.times.total_ns / 1e6,
              remote_mb, local_mb, modeled);
  }
  table.Print();
  std::printf(
      "\nCPR* writes partitions 100%% node-locally (remote_write ~ 0); PR* "
      "scatters ~%d/%d of its partition writes to remote nodes.\n",
      env.nodes - 1, env.nodes);
  bench::PrintExecutorStats();
  return 0;
}
