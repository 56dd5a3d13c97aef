// Figure 18 / Appendix E: TPC-H Q19 with a varying selectivity of the
// pushed-down selection on lineitem.
//
// Paper result: at Q19's native 3.57% the join barely matters and NOP*
// looks best end-to-end; as the selection passes more rows the actual join
// input grows and the partition-based joins overtake on the join phase and
// eventually on the whole query.

#include "bench_common.h"
#include "tpch/generator.h"
#include "tpch/q19.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags({"sf"}));
  const bench::BenchEnv env = bench::BenchEnv::FromCli(cli, 0, 0);
  const double sf = cli.GetDouble("sf", 0.1);

  bench::PrintBanner(
      "Figure 18 (Q19 selectivity sweep)",
      "Q19 runtime split (filter+materialize probe | join | total) as the "
      "pushed-down selectivity grows from the native 3.57% to 100%.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  const std::vector<join::Algorithm> algorithms = {
      join::Algorithm::kNOP, join::Algorithm::kNOPA, join::Algorithm::kCPRL,
      join::Algorithm::kCPRA};

  for (const double selectivity : {0.0357, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    tpch::GeneratorOptions options;
    options.scale_factor = sf;
    options.prefilter_selectivity = selectivity;
    options.seed = env.seed;
    tpch::LineitemTable lineitem = tpch::GenerateLineitem(&system, options);
    tpch::PartTable part = tpch::GeneratePart(&system, options);

    TablePrinter table(
        {"join", "filter_ms", "join_ms", "total_ms", "probe_rows"});
    for (const auto algorithm : algorithms) {
      tpch::Q19Result best;
      best.total_ns = INT64_MAX;
      for (int i = 0; i < env.repeat; ++i) {
        const tpch::Q19Result result =
            tpch::TryRunQ19(&system, lineitem, part, algorithm, env.threads)
                .value();
        if (result.total_ns < best.total_ns) best = result;
      }
      table.Row(join::NameOf(algorithm), best.filter_ns / 1e6,
                best.join_ns / 1e6, best.total_ns / 1e6,
                best.filtered_rows);
    }
    std::printf("--- selectivity %.2f%% ---\n", selectivity * 100);
    table.Print();
    std::printf("\n");
  }
  bench::PrintExecutorStats();
  return 0;
}
