// Figure 12: runtime of CPRL when setting the radix bits via Equation (1)
// vs the full sweep over bit counts -- the model should sit on (or within a
// few percent of) the sweep minimum for every input size. The default
// columns are what a run without --bits does: the planner's bits (Equation
// (1) floored at 8 partitions per thread) and that run's time.

#include "bench_common.h"
#include "join/join_plan.h"
#include "partition/model.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv);
  const bench::BenchEnv env = bench::BenchEnv::FromCli(cli, 1u << 21, 0);
  const uint64_t min_build =
      static_cast<uint64_t>(cli.GetInt("min_build", 1 << 16));
  const uint32_t min_bits = static_cast<uint32_t>(cli.GetInt("min_bits", 4));
  const uint32_t max_bits =
      static_cast<uint32_t>(cli.GetInt("max_bits", 14));
  const int ratio = static_cast<int>(cli.GetInt("ratio", 10));

  bench::PrintBanner(
      "Figure 12 (Equation (1) vs sweep, CPRL)",
      "Average total time per processed tuple with the predicted bit count "
      "(Equation (1) alone) and with the default plan's bits vs the minimum "
      "over a sweep; overhead = time / best - 1.",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  const partition::CacheSpec cache = partition::DetectHostCacheSpec();

  TablePrinter table({"R_tuples", "predicted_bits", "predicted_ns/t",
                      "best_bits", "best_ns/t", "overhead_%", "default_bits",
                      "default_ns/t", "default_overhead_%"});
  for (uint64_t r = min_build; r <= env.build_size; r *= 2) {
    workload::Relation build = workload::MakeDenseBuild(&system, r, env.seed).value();
    workload::Relation probe = workload::MakeUniformProbe(
        &system, r * ratio, r, env.seed + 1).value();
    const double tuples = static_cast<double>(r + r * ratio);

    const uint32_t predicted = partition::PredictRadixBits(
        r, partition::kLinearSpace, env.threads, cache);

    // bits = 0 is the default plan.
    auto config_for = [&](uint32_t bits) {
      join::JoinConfig config;
      config.num_threads = env.threads;
      config.radix_bits = bits;
      return config;
    };
    auto run_bits = [&](uint32_t bits) {
      const join::JoinResult result =
          bench::RunMedian(join::Algorithm::kCPRL, &system, config_for(bits),
                           build, probe, env.repeat);
      return result.times.total_ns / tuples;
    };
    const uint32_t planned =
        join::internal::PlanJoin(join::Algorithm::kCPRL, config_for(0), r,
                                 r * ratio, r, cache)
            .radix_bits;

    const double predicted_ns = run_bits(predicted);
    const double default_ns = run_bits(0);
    double best_ns = 1e100;
    uint32_t best_bits = 0;
    for (uint32_t bits = min_bits; bits <= max_bits; ++bits) {
      const double ns = bits == predicted ? predicted_ns
                        : bits == planned ? default_ns
                                          : run_bits(bits);
      if (ns < best_ns) {
        best_ns = ns;
        best_bits = bits;
      }
    }
    table.Row(static_cast<unsigned long long>(r),
              static_cast<int>(predicted), predicted_ns,
              static_cast<int>(best_bits), best_ns,
              (predicted_ns / best_ns - 1.0) * 100.0,
              static_cast<int>(planned), default_ns,
              (default_ns / best_ns - 1.0) * 100.0);
  }
  table.Print();
  bench::PrintExecutorStats();
  return 0;
}
