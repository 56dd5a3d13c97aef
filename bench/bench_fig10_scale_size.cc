// Figure 10: throughput of the (non-dominated) join algorithms when scaling
// the input dataset size, for |S| = 10 x |R| and |S| = |R|.
//
// Paper result: up to ~4M build tuples all methods are comparable and NOP*
// looks great (the build side fits the LLC); beyond that, throughput of the
// NOP* family collapses to the random-DRAM-access floor while the PR*/CPR*
// family keeps its level -- partitioning pays once the data exceeds the
// caches. CHTJ is hit hardest (two dependent accesses); MWAY is stable but
// lower.

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags({"min_build"}));
  bench::BenchEnv env = bench::BenchEnv::FromCli(cli, 1u << 22, 0);
  if (!cli.Has("repeat")) env.repeat = 1;  // the large sizes dominate
  const uint64_t min_build =
      static_cast<uint64_t>(cli.GetInt("min_build", 1 << 14));

  bench::PrintBanner(
      "Figure 10 (scalability in dataset size)",
      "Throughput (M input tuples/s) while doubling |R|; left block "
      "|S|=10x|R|, right block |S|=|R|. Radix bits follow Equation (1), "
      "floored at 8 partitions per thread.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  const std::vector<join::Algorithm> algorithms = {
      join::Algorithm::kMWAY, join::Algorithm::kCHTJ, join::Algorithm::kNOP,
      join::Algorithm::kNOPA, join::Algorithm::kCPRL, join::Algorithm::kCPRA,
      join::Algorithm::kPROiS, join::Algorithm::kPRLiS,
      join::Algorithm::kPRAiS};

  for (const int ratio : {10, 1}) {
    std::printf("--- |S| = %d x |R| ---\n", ratio);
    TablePrinter table([&] {
      std::vector<std::string> headers{"R_tuples"};
      for (const auto algorithm : algorithms) {
        headers.push_back(join::NameOf(algorithm));
      }
      return headers;
    }());
    for (uint64_t r = min_build; r <= env.build_size; r *= 4) {
      workload::Relation build =
          workload::MakeDenseBuild(&system, r, env.seed).value();
      workload::Relation probe = workload::MakeUniformProbe(
          &system, r * ratio, r, env.seed + 1).value();
      join::JoinConfig config;
      config.num_threads = env.threads;

      std::vector<std::string> row{std::to_string(r)};
      for (const auto algorithm : algorithms) {
        const join::JoinResult result = bench::RunMedian(
            algorithm, &system, config, build, probe, env.repeat);
        row.push_back(TablePrinter::FormatDouble(
            result.ThroughputMtps(r, r * ratio), 1));
      }
      table.AddRow(row);
    }
    table.Print();
    std::printf("\n");
  }
  bench::PrintExecutorStats();
  return 0;
}
