// tpch_q19: end-to-end TPC-H Q19 on the bundled column-store emulation --
// generate lineitem/part, pick a join, run the query, verify the revenue.
//
//   ./tpch_q19 [--sf=0.25] [--join=NOPA] [--threads=4] [--selectivity=0.0357]

#include <cmath>
#include <cstdio>

#include "core/mmjoin.h"
#include "tpch/generator.h"
#include "tpch/q19.h"
#include "util/cli.h"
#include "util/table_printer.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, {"join", "selectivity", "sf", "threads"});
  const double sf = cli.GetDouble("sf", 0.25);
  const int threads = static_cast<int>(cli.GetInt("threads", 4));
  const std::string name = cli.GetString("join", "NOPA");

  const auto algorithm = join::AlgorithmFromName(name);
  if (!algorithm.has_value()) {
    std::fprintf(stderr, "unknown join '%s'\n", name.c_str());
    return 1;
  }

  numa::NumaSystem system(4);
  tpch::GeneratorOptions options;
  options.scale_factor = sf;
  options.prefilter_selectivity = cli.GetDouble("selectivity", 0.0357);

  std::printf("generating TPC-H data, scale factor %.2f ...\n", sf);
  tpch::LineitemTable lineitem = tpch::GenerateLineitem(&system, options);
  tpch::PartTable part = tpch::GeneratePart(&system, options);
  std::printf("  lineitem: %llu rows, part: %llu rows\n",
              static_cast<unsigned long long>(lineitem.num_tuples()),
              static_cast<unsigned long long>(part.num_tuples()));

  const StatusOr<tpch::Q19Result> run =
      tpch::TryRunQ19(&system, lineitem, part, *algorithm, threads);
  if (!run.ok()) {
    std::fprintf(stderr, "Q19 failed: %s\n", run.status().ToString().c_str());
    return 2;
  }
  const tpch::Q19Result& result = *run;

  std::printf("\nQ19 with %s on %d threads:\n", join::NameOf(*algorithm),
              threads);
  TablePrinter table({"metric", "value"});
  table.Row("revenue", TablePrinter::FormatDouble(result.revenue, 2));
  table.Row("filtered probe rows", result.filtered_rows);
  table.Row("join matches", result.join_matches);
  table.Row("rows passing post-join predicate", result.result_rows);
  table.Row("filter+materialize [ms]",
            TablePrinter::FormatDouble(result.filter_ns / 1e6));
  table.Row("join (incl. post+agg) [ms]",
            TablePrinter::FormatDouble(result.join_ns / 1e6));
  table.Row("total [ms]", TablePrinter::FormatDouble(result.total_ns / 1e6));
  table.Row("join share [%]",
            TablePrinter::FormatDouble(100.0 * result.join_ns /
                                       result.total_ns, 1));
  table.Print();

  const double reference = tpch::Q19Reference(lineitem, part);
  const bool ok = std::abs(result.revenue - reference) <
                  std::abs(reference) * 1e-9 + 1e-6;
  std::printf("\nscan-based reference revenue: %.2f -> %s\n", reference,
              ok ? "MATCH" : "MISMATCH");
  return ok ? 0 : 1;
}
