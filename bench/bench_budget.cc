// Memory-budget degradation sweep: budget fraction x algorithm x scale.
//
// For each algorithm the harness first measures the plan-level working set
// (peak reservation against an effectively-unbounded tracker), then re-runs
// the join at shrinking fractions of that measured peak. Partition-based
// joins (PRO, CPRL here) are expected to degrade through the re-plan /
// spill-wave ladder with bit-identical results; NOP's indivisible global
// table either fits or rejects with a clean ResourceExhausted. Each row
// reports which degradation stage fired (mem.budget_* deltas) and the
// actual resident high-water mark (mem.peak_bytes).
//
//   ./bench_budget [--build=1000000] [--probe=4000000] [--threads=N]
//       [--repeat=3] [--json=PATH]
//
// The secondary scale is --build/4 x --probe/4, exercising the ladder at a
// different probe:budget ratio.

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "mem/aligned_alloc.h"
#include "mem/budget.h"

namespace {

using namespace mmjoin;

constexpr double kFractions[] = {1.0, 0.5, 0.15};
constexpr join::Algorithm kAlgorithms[] = {
    join::Algorithm::kPRO, join::Algorithm::kCPRL, join::Algorithm::kNOP};

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env = bench::BenchEnv::FromCli(
      cli, /*default_build=*/1'000'000, /*default_probe=*/4'000'000);
  bench::PrintBanner(
      "budget",
      "Per-join memory budgets: graceful degradation (re-plan -> spill "
      "waves -> reject) at fractions of each algorithm's measured peak",
      env);

  numa::NumaSystem system(env.nodes, env.pages);

  TablePrinter table({"algorithm", "scale", "fraction", "budget_mb",
                      "status", "replans", "waves", "wave_rounds",
                      "peak_resident_mb", "total_ms"});

  const uint64_t scales[][2] = {
      {env.build_size, env.probe_size},
      {std::max<uint64_t>(env.build_size / 4, 1024),
       std::max<uint64_t>(env.probe_size / 4, 4096)}};

  for (const auto& scale : scales) {
    const uint64_t build_size = scale[0];
    const uint64_t probe_size = scale[1];
    workload::Relation build =
        workload::MakeDenseBuild(&system, build_size, env.seed).value();
    workload::Relation probe =
        workload::MakeUniformProbe(&system, probe_size, build_size,
                                   env.seed + 1)
            .value();

    for (const join::Algorithm algorithm : kAlgorithms) {
      // Measure the plan-level working set: a budget far above any plan
      // admits without degradation, and the tracker's peak reservation is
      // the deterministic estimate every later fraction is based on.
      uint64_t measured_peak = 0;
      {
        mem::BudgetTracker tracker(uint64_t{1} << 40);
        join::JoinConfig config;
        config.num_threads = env.threads;
        config.budget = &tracker;
        const auto baseline =
            join::RunJoin(algorithm, &system, config, build, probe);
        if (!baseline.ok()) {
          std::fprintf(stderr, "[mmjoin] bench: %s baseline failed: %s\n",
                       join::NameOf(algorithm),
                       baseline.status().ToString().c_str());
          return 1;
        }
        measured_peak = tracker.peak_reserved_bytes();
      }

      for (const double fraction : kFractions) {
        const uint64_t budget = std::max<uint64_t>(
            static_cast<uint64_t>(static_cast<double>(measured_peak) *
                                  fraction),
            join::JoinConfig::kMinMemBudgetBytes);

        for (int repeat = 0; repeat < env.repeat; ++repeat) {
          mem::ResetBudgetStats();
          mem::ResetPeakResident();
          mem::BudgetTracker tracker(budget);
          join::JoinConfig config;
          config.num_threads = env.threads;
          config.budget = &tracker;
          const auto result =
              join::RunJoin(algorithm, &system, config, build, probe);
          const mem::BudgetStats stats = mem::GetBudgetStats();
          const uint64_t peak_resident = mem::GetAllocStats().peak_bytes;

          join::JoinResult record;
          const char* status = "ok";
          if (result.ok()) {
            record = result.value();
          } else if (result.status().code() ==
                     StatusCode::kResourceExhausted) {
            status = "rejected";  // clean check-and-reject, not a failure
          } else {
            std::fprintf(stderr, "[mmjoin] bench: %s at %.2f failed: %s\n",
                         join::NameOf(algorithm), fraction,
                         result.status().ToString().c_str());
            return 1;
          }

          if (repeat == env.repeat - 1) {
            table.Row(join::NameOf(algorithm),
                      build_size == env.build_size ? "full" : "quarter",
                      fraction, budget / 1e6, status, stats.replans,
                      stats.waves, stats.wave_rounds, peak_resident / 1e6,
                      record.times.total_ns / 1e6);
          }

          char extra[320];
          std::snprintf(
              extra, sizeof(extra),
              "\"budget_fraction\":%.2f,\"budget_bytes\":%llu,"
              "\"planned_peak_bytes\":%llu,\"peak_resident_bytes\":%llu,"
              "\"budget_status\":\"%s\",\"budget_replans\":%llu,"
              "\"budget_waves\":%llu,\"budget_wave_rounds\":%llu",
              fraction, static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(measured_peak),
              static_cast<unsigned long long>(peak_resident), status,
              static_cast<unsigned long long>(stats.replans),
              static_cast<unsigned long long>(stats.waves),
              static_cast<unsigned long long>(stats.wave_rounds));
          bench::AppendBenchRecord(join::NameOf(algorithm), repeat,
                                   build_size, probe_size, env.threads,
                                   record, extra);
        }
      }
    }
  }

  table.Print();
  std::printf(
      "\nReading the table: fraction 1.0 admits the measured plan as-is. "
      "Shrinking budgets push PRO/CPRL through the degradation ladder -- "
      "replans (radix bits / pass count re-planned), then waves (probe side "
      "joined in sequential slices) -- with identical results throughout. "
      "NOP's one global table cannot degrade: it runs when the budget fits "
      "and reports a clean rejection when it does not.\n");
  bench::PrintExecutorStats();
  return 0;
}
