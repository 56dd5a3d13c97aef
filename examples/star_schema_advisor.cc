// star_schema_advisor: the paper's "lessons learned" in action on a
// star-schema scenario (the OLAP motivation from Section 7.3: small
// dimension tables with dense auto-increment keys joined against a large
// fact table).
//
// For each of several dimension-table shapes the advisor picks an
// algorithm and we race its pick against one representative of each
// family. The advisor encodes the PAPER MACHINE's lessons (4-socket NUMA,
// 60 cores); on small or single-socket hosts the race may crown a
// different winner -- which is itself lesson 2: know your hardware.
//
//   ./star_schema_advisor [--fact=8000000] [--threads=4]

#include <algorithm>
#include <cstdio>

#include "core/mmjoin.h"
#include "util/cli.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, {"fact", "seed", "threads"});
  const uint64_t fact_rows = cli.GetInt("fact", 8'000'000);
  const int threads = static_cast<int>(cli.GetInt("threads", 4));
  const uint64_t seed = cli.GetInt("seed", 42);

  numa::NumaSystem system(4);

  struct Scenario {
    const char* name;
    uint64_t dimension_rows;
    uint64_t domain_factor;  // key domain = factor * rows (holes)
    double zipf;
  };
  const Scenario scenarios[] = {
      {"small dimension (date dim), dense keys", 4096, 1, 0.0},
      {"large dimension (customer), dense keys", 2'000'000, 1, 0.0},
      {"large dimension, sparse keys (after deletes)", 2'000'000, 16, 0.0},
      {"large dimension, heavily skewed fact FK", 2'000'000, 1, 0.95},
  };

  for (const Scenario& scenario : scenarios) {
    std::printf("=== %s ===\n", scenario.name);
    workload::Relation dimension =
        scenario.domain_factor > 1
            ? workload::MakeSparseBuild(&system, scenario.dimension_rows,
                                        scenario.domain_factor, seed).value()
            : workload::MakeDenseBuild(&system, scenario.dimension_rows,
                                       seed).value();
    workload::Relation fact =
        scenario.zipf > 0.0
            ? workload::MakeZipfProbe(&system, fact_rows,
                                      scenario.dimension_rows, scenario.zipf,
                                      seed + 1).value()
            : workload::MakeProbeFromBuild(&system, fact_rows, dimension,
                                           seed + 1).value();

    const core::Advice advice = core::AdviseJoin(
        core::WorkloadProfile{scenario.dimension_rows, fact_rows,
                              dimension.key_domain(), scenario.zipf},
        threads);
    std::printf("advisor picks %s: %s\n", join::NameOf(advice.algorithm),
                advice.reason.c_str());

    join::JoinConfig config;
    config.num_threads = threads;
    TablePrinter table({"join", "total_ms", "throughput_Mtps", "pick"});
    // Race the pick against one representative of each family.
    std::vector<join::Algorithm> contenders = {
        join::Algorithm::kNOP, join::Algorithm::kCPRL,
        join::Algorithm::kPROiS};
    if (std::find(contenders.begin(), contenders.end(), advice.algorithm) ==
        contenders.end()) {
      contenders.insert(contenders.begin(), advice.algorithm);
    }
    for (const join::Algorithm algorithm : contenders) {
      const join::JoinResult result =
          join::RunJoin(algorithm, &system, config, dimension, fact).value();
      table.Row(join::NameOf(algorithm), result.times.total_ns / 1e6,
                result.ThroughputMtps(scenario.dimension_rows, fact_rows),
                algorithm == advice.algorithm ? "<== advisor" : "");
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
