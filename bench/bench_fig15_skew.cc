// Figure 15 / Appendix A: throughput under skewed probe-key distributions,
// Zipf factor 0 .. 1.25, for |S| = 10x|R| and |S| = |R|.
//
// Paper result: low skew changes little; high skew (theta > 0.9) shifts the
// picture toward the no-partitioning joins -- partition-based tasks become
// unbalanced (only partly rescued by probe-slice task splitting), while the
// unpartitioned table enjoys cache hits on the hot keys. The theta = 1.25
// point stresses the sharded scheduler's work stealing and shared skew
// build slots: nearly all probe mass lands in a handful of partitions.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 22, 0);
  if (!cli.Has("repeat")) env.repeat = 1;

  bench::PrintBanner(
      "Figure 15 (skewed probe keys)",
      "Throughput vs Zipf factor; the 10 hottest ranks are remapped across "
      "the key domain as in the paper.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  const std::vector<join::Algorithm> algorithms = {
      join::Algorithm::kMWAY, join::Algorithm::kCHTJ, join::Algorithm::kNOP,
      join::Algorithm::kNOPA, join::Algorithm::kCPRL, join::Algorithm::kCPRA,
      join::Algorithm::kPROiS, join::Algorithm::kPRLiS,
      join::Algorithm::kPRAiS};
  const double thetas[] = {0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.25};

  for (const int ratio : {10, 1}) {
    std::printf("--- |S| = %d x |R| ---\n", ratio);
    workload::Relation build =
        workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
    TablePrinter table([&] {
      std::vector<std::string> headers{"zipf"};
      for (const auto algorithm : algorithms) {
        headers.push_back(join::NameOf(algorithm));
      }
      return headers;
    }());
    for (const double theta : thetas) {
      workload::Relation probe = workload::MakeZipfProbe(
          &system, env.build_size * ratio, env.build_size, theta,
          env.seed + 1).value();
      join::JoinConfig config;
      config.num_threads = env.threads;
      std::vector<std::string> row{TablePrinter::FormatDouble(theta)};
      for (const auto algorithm : algorithms) {
        const join::JoinResult result = bench::RunMedian(
            algorithm, &system, config, build, probe, env.repeat);
        row.push_back(TablePrinter::FormatDouble(
            result.ThroughputMtps(env.build_size, env.build_size * ratio),
            1));
      }
      table.AddRow(row);
    }
    table.Print();
    std::printf("\n");
  }
  bench::PrintExecutorStats();
  return 0;
}
