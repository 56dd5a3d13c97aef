// Figure 9: average total time per tuple (partition + join split) when
// varying the radix bits, across build sizes, for the partition-based
// joins; comparing the "hash table fits L2" choice with the measured
// optimum.
//
// Paper result: the L2-fit choice tracks the optimum while the SWWCBs still
// fit the LLC; beyond that, partitioning cost explodes and fewer bits
// (LLC-fit partitions) win -- the basis of Equation (1).

#include <cmath>
#include <string>

#include "bench_common.h"
#include "partition/model.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv,
                         bench::BenchFlags({"min_bits", "max_bits", "ratio"}));
  const bench::BenchEnv env = bench::BenchEnv::FromCli(cli, 1u << 20, 0);
  const uint32_t min_bits = static_cast<uint32_t>(cli.GetInt("min_bits", 4));
  const uint32_t max_bits =
      static_cast<uint32_t>(cli.GetInt("max_bits", 14));
  const int ratio = static_cast<int>(cli.GetInt("ratio", 10));

  bench::PrintBanner(
      "Figure 9 (radix-bit sweep across |R|)",
      "Average total time per processed tuple vs radix bits; * marks the "
      "measured optimum, L2 marks the naive hash-table-fits-L2 choice.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  const partition::CacheSpec cache = partition::DetectHostCacheSpec();

  for (const join::Algorithm algorithm :
       {join::Algorithm::kPROiS, join::Algorithm::kPRAiS,
        join::Algorithm::kCPRL}) {
    std::printf("--- %s (|S| = %d x |R|) ---\n", join::NameOf(algorithm),
                ratio);
    for (uint64_t r = env.build_size / 4; r <= env.build_size; r *= 2) {
      workload::Relation build =
          workload::MakeDenseBuild(&system, r, env.seed).value();
      workload::Relation probe = workload::MakeUniformProbe(
          &system, r * ratio, r, env.seed + 1).value();

      // Naive L2-fit choice (first branch of Equation (1) unconditionally).
      const double table_bytes = static_cast<double>(r) * 16.0;
      const uint32_t l2_bits = std::max<uint32_t>(
          1,
          static_cast<uint32_t>(std::lround(std::log2(
              std::max(table_bytes / cache.l2_bytes, 2.0)))));

      TablePrinter table({"bits", "partition_ns/tuple", "join_ns/tuple",
                          "total_ns/tuple", "mark"});
      double best_total = 1e100;
      uint32_t best_bits = 0;
      std::vector<std::vector<std::string>> rows;
      for (uint32_t bits = min_bits; bits <= max_bits; ++bits) {
        join::JoinConfig config;
        config.num_threads = env.threads;
        config.radix_bits = bits;
        const join::JoinResult result = bench::RunMedian(
            algorithm, &system, config, build, probe, env.repeat);
        const double tuples = static_cast<double>(r + r * ratio);
        const double part = result.times.partition_ns / tuples;
        const double join_time = result.times.probe_ns / tuples;
        if (part + join_time < best_total) {
          best_total = part + join_time;
          best_bits = bits;
        }
        rows.push_back({std::to_string(bits),
                        TablePrinter::FormatDouble(part),
                        TablePrinter::FormatDouble(join_time),
                        TablePrinter::FormatDouble(part + join_time), ""});
      }
      for (auto& row : rows) {
        const uint32_t bits =
            static_cast<uint32_t>(std::stoul(row[0]));
        std::string mark;
        if (bits == best_bits) mark += "*opt ";
        if (bits == l2_bits) mark += "L2-fit";
        row[4] = mark;
        table.AddRow(row);
      }
      std::printf("|R| = %llu tuples (L2-fit says %u bits, optimum %u):\n",
                  static_cast<unsigned long long>(r), l2_bits, best_bits);
      table.Print();
      std::printf("\n");
    }
  }
  bench::PrintExecutorStats();
  return 0;
}
