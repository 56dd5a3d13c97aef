// Figure 14: runtime of TPC-H Q19, with the time spent in the actual join
// highlighted, for NOP, NOPA, CPRL, and CPRA.
//
// Paper result (SF 100): the join is only ~10-15% of the query; scanning/
// filtering 600M lineitem rows and reconstructing attributes dominates.
// NOPA profits doubly: the dense sorted p_partkey makes the array build a
// sequential write, and no partitioning means probe-side attributes stay
// aligned for the post-join predicate.

#include <cmath>
#include <cstdint>

#include "bench_common.h"
#include "thread/executor.h"
#include "tpch/generator.h"
#include "tpch/q19.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags({"sf"}));
  const bench::BenchEnv env = bench::BenchEnv::FromCli(cli, 0, 0);
  const double sf = cli.GetDouble("sf", 0.25);

  bench::PrintBanner(
      "Figure 14 (TPC-H Q19)",
      "Query runtime split into join vs rest-of-query (scan, filter, "
      "materialization, post-join predicate, aggregation).",
      env);
  std::printf("scale factor %.2f: |lineitem| = %llu, |part| = %llu\n\n", sf,
              static_cast<unsigned long long>(
                  sf * tpch::kLineitemPerScaleFactor),
              static_cast<unsigned long long>(sf * tpch::kPartPerScaleFactor));

  numa::NumaSystem system(env.nodes, env.pages);
  tpch::GeneratorOptions options;
  options.scale_factor = sf;
  options.seed = env.seed;
  tpch::LineitemTable lineitem = tpch::GenerateLineitem(&system, options);
  tpch::PartTable part = tpch::GeneratePart(&system, options);

  const double reference = tpch::Q19Reference(lineitem, part);

  TablePrinter table({"join", "total_ms", "join_ms", "rest_ms",
                      "join_share_%", "revenue_ok"});
  for (const join::Algorithm algorithm :
       {join::Algorithm::kNOP, join::Algorithm::kNOPA,
        join::Algorithm::kCPRL, join::Algorithm::kCPRA}) {
    tpch::Q19Result best;
    best.total_ns = INT64_MAX;
    for (int i = 0; i < env.repeat; ++i) {
      const tpch::Q19Result result =
          tpch::TryRunQ19(&system, lineitem, part, algorithm, env.threads,
                          tpch::Q19Strategy::kPipelined,
                          &thread::GlobalExecutor())
              .value();
      if (result.total_ns < best.total_ns) best = result;
    }
    const double join_ms = best.join_ns / 1e6;
    const double total_ms = best.total_ns / 1e6;
    const bool revenue_ok =
        std::abs(best.revenue - reference) <
        std::abs(reference) * 1e-9 + 1e-6;
    table.Row(join::NameOf(algorithm), total_ms, join_ms,
              total_ms - join_ms, 100.0 * join_ms / total_ms,
              revenue_ok ? "yes" : "NO");
  }
  table.Print();
  std::printf("\nreference revenue: %.2f\n", reference);
  bench::PrintExecutorStats();
  return 0;
}
