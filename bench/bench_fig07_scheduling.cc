// Figure 7: PR* and CPR* vs the improved-scheduling variants (PR*iS).
//
// Paper result: round-robin-over-nodes task scheduling speeds the join
// phase of PRL/PRA by over 2x (all memory controllers active); CPR* does
// not profit (it already reads every partition from all nodes), and the two
// optimizations are not cumulative. With scheduling fixed, the hash-table
// choice finally shows: arrays < linear < chained in join-phase time.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);

  bench::PrintBanner(
      "Figure 7 (improved scheduling)",
      "Runtime of PR*/CPR* vs PR*iS, partition and join phases, plus the "
      "modeled NUMA cost (which exposes the controller-serialization effect "
      "wall-clock cannot show on a 1-socket host).",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  workload::Relation build =
      workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
  workload::Relation probe = workload::MakeUniformProbe(
      &system, env.probe_size, env.build_size, env.seed + 1).value();

  join::JoinConfig config;
  config.num_threads = env.threads;

  TablePrinter table({"join", "partition_ms", "join_ms", "total_ms",
                      "remote_read_MB", "remote_write_MB"});
  for (const join::Algorithm algorithm :
       {join::Algorithm::kPRO, join::Algorithm::kPROiS, join::Algorithm::kPRL,
        join::Algorithm::kPRLiS, join::Algorithm::kPRA,
        join::Algorithm::kPRAiS, join::Algorithm::kCPRL,
        join::Algorithm::kCPRA}) {
    const join::JoinResult timed = bench::RunMedian(
        algorithm, &system, config, build, probe, env.repeat);
    system.EnableAccounting();
    MMJOIN_CHECK_OK(join::RunJoin(algorithm, &system, config, build, probe));
    const double remote_read =
        system.counters()->TotalRemoteReadBytes() / 1e6;
    const double remote_write =
        system.counters()->TotalRemoteWriteBytes() / 1e6;
    system.DisableAccounting();
    table.Row(join::NameOf(algorithm), timed.times.partition_ns / 1e6,
              timed.times.probe_ns / 1e6, timed.times.total_ns / 1e6,
              remote_read, remote_write);
  }
  table.Print();
  bench::PrintExecutorStats();
  return 0;
}
