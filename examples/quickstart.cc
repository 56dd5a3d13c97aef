// Quickstart: generate a primary-key / foreign-key workload and run the
// paper's best general-purpose join (CPRL), comparing it with the simple
// no-partitioning baseline.
//
//   ./quickstart [--build=1000000] [--probe=10000000] [--threads=4]

#include <cstdio>

#include "core/mmjoin.h"
#include "util/cli.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, {"build", "probe", "threads"});
  const uint64_t build_size = cli.GetInt("build", 1'000'000);
  const uint64_t probe_size = cli.GetInt("probe", 10'000'000);
  const int threads = static_cast<int>(cli.GetInt("threads", 4));

  // A NumaSystem models the paper's 4-socket machine: allocations carry
  // placement policies and threads are assigned to nodes.
  numa::NumaSystem system(/*num_nodes=*/4);

  std::printf("Generating |R| = %llu, |S| = %llu (dense PK / uniform FK)\n",
              static_cast<unsigned long long>(build_size),
              static_cast<unsigned long long>(probe_size));
  workload::Relation build =
      workload::MakeDenseBuild(&system, build_size, /*seed=*/1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(&system, probe_size, build_size, /*seed=*/2).value();

  join::JoinConfig config;
  config.num_threads = threads;

  TablePrinter table({"join", "matches", "partition_ms", "join_ms",
                      "total_ms", "throughput_Mtps"});
  for (const join::Algorithm algorithm :
       {join::Algorithm::kNOP, join::Algorithm::kCPRL,
        join::Algorithm::kCPRA}) {
    const join::JoinResult result =
        join::RunJoin(algorithm, &system, config, build, probe).value();
    table.Row(join::NameOf(algorithm), result.matches,
              result.times.partition_ns / 1e6,
              (result.times.build_ns + result.times.probe_ns) / 1e6,
              result.times.total_ns / 1e6,
              result.ThroughputMtps(build_size, probe_size));
  }
  table.Print();

  // What would the paper recommend for this workload?
  const core::Advice advice = core::AdviseJoin(
      core::WorkloadProfile{build_size, probe_size, build.key_domain(), 0.0},
      threads);
  std::printf("\nAdvisor picks %s: %s\n", join::NameOf(advice.algorithm),
              advice.reason.c_str());
  return 0;
}
