// Figure 19 / Appendix G: morphing the naked-join micro-benchmark stepwise
// into full TPC-H Q19 (with the NOP join), to attribute the query's
// overheads.
//
// Paper result: dynamic filtering of the input rows -- not tuple
// reconstruction -- eats most of the extra time; materializing a join index
// first (steps 3+4) beats the pipelined plan at 32 threads but loses at 60.

#include <cstdint>

#include "bench_common.h"
#include "tpch/generator.h"
#include "tpch/q19.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv);
  const bench::BenchEnv env = bench::BenchEnv::FromCli(cli, 0, 0);
  const double sf = cli.GetDouble("sf", 0.1);

  bench::PrintBanner(
      "Figure 19 (Q19 cost morphing, NOP join)",
      "Runtime of each morph step: (1) naked join on pre-filtered input, "
      "(2) + dynamic filtering, (3) + join index, (4) + post-filter & "
      "aggregate from the index, (5) full pipelined query without index.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  tpch::GeneratorOptions options;
  options.scale_factor = sf;
  options.seed = env.seed;
  tpch::LineitemTable lineitem = tpch::GenerateLineitem(&system, options);
  tpch::PartTable part = tpch::GeneratePart(&system, options);

  static const char* kStepNames[5] = {
      "(1) microbenchmark, pre-filtered input",
      "(2) like (1), filtering dynamically",
      "(3) like (2), plus join index",
      "(4) like (3), plus post-filter + aggregate",
      "(5) like (2)+(4), pipelined, no index",
  };

  for (const int threads : {env.threads, env.threads * 2}) {
    tpch::Q19MorphResult best;
    for (int s = 0; s < 5; ++s) best.step_ns[s] = INT64_MAX;
    for (int i = 0; i < env.repeat; ++i) {
      const tpch::Q19MorphResult morph =
          tpch::RunQ19Morph(&system, lineitem, part, threads).value();
      for (int s = 0; s < 5; ++s) {
        best.step_ns[s] = std::min(best.step_ns[s], morph.step_ns[s]);
      }
    }
    std::printf("--- %d threads ---\n", threads);
    TablePrinter table({"step", "runtime_ms"});
    for (int s = 0; s < 5; ++s) {
      table.Row(kStepNames[s], best.step_ns[s] / 1e6);
    }
    table.Print();
    std::printf("\n");
  }
  bench::PrintExecutorStats();
  return 0;
}
