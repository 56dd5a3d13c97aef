// Figure 8: all thirteen joins with small (4 KB) vs huge (2 MB) pages.
//
// Two reproductions:
//  (1) wall clock with real madvise page policies (effects depend on the
//      host's THP configuration and may be small in a VM);
//  (2) the TLB mechanism, via the cache/TLB simulator with the paper
//      machine's TLB (256 entries @ 4 KB vs 32 @ 2 MB), replaying each
//      algorithm's partition-phase write pattern.
// Paper result: huge pages help every algorithm EXCEPT PRB, whose direct
// scatter to 128 partitions fits 256 small-page TLB entries but thrashes
// the 32 huge-page entries; SWWCB (PRO and later) removes that hazard.

#include "bench_common.h"
#include "memsim/replay.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);

  bench::PrintBanner(
      "Figure 8 (page sizes)",
      "Throughput with 4 KB vs 2 MB pages (wall clock + simulated TLB "
      "behaviour of the partition/build phase).",
      env);

  // --- (1) Wall clock with real page policies. ---
  TablePrinter wall({"join", "4KB_Mtps", "2MB_Mtps", "speedup_2MB"});
  std::vector<std::pair<double, double>> mtps(13);
  for (const auto policy :
       {mem::PagePolicy::kSmall, mem::PagePolicy::kHuge}) {
    numa::NumaSystem system(env.nodes, policy);
    workload::Relation build =
        workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
    workload::Relation probe = workload::MakeUniformProbe(
        &system, env.probe_size, env.build_size, env.seed + 1).value();
    join::JoinConfig config;
    config.num_threads = env.threads;
    int index = 0;
    for (const join::Algorithm algorithm : join::AllAlgorithms()) {
      const join::JoinResult result = bench::RunMedian(
          algorithm, &system, config, build, probe, env.repeat);
      const double value =
          result.ThroughputMtps(env.build_size, env.probe_size);
      if (policy == mem::PagePolicy::kSmall) {
        mtps[index].first = value;
      } else {
        mtps[index].second = value;
      }
      ++index;
    }
  }
  {
    int index = 0;
    for (const join::Algorithm algorithm : join::AllAlgorithms()) {
      wall.Row(join::NameOf(algorithm), mtps[index].first,
               mtps[index].second,
               mtps[index].second / std::max(mtps[index].first, 1e-9));
      ++index;
    }
  }
  std::printf("(1) wall clock on this host:\n");
  wall.Print();

  // --- (2) Simulated TLB profile of the partition (or build) phase. ---
  using memsim::HierarchyConfig;
  using memsim::PhaseReport;
  using memsim::ReplayGlobalBuild;
  using memsim::ReplayScatter;
  using memsim::TableLayout;

  // Page sizes are scaled 32x down (4 KB/256 entries vs 64 KB/32 entries)
  // so the paper's ratios of TLB reach to working-set size hold at
  // unit-scale replay sizes; the entry-count mechanism is unchanged.
  HierarchyConfig small_cfg = HierarchyConfig::SmallPages();  // 4 KB x 256
  HierarchyConfig huge_cfg = HierarchyConfig::SmallPages();
  huge_cfg.page_bytes = 64 * 1024;
  huge_cfg.tlb_entries = 32;

  const uint64_t tuples = std::min<uint64_t>(env.build_size * 4, 4u << 20);
  TablePrinter sim({"pattern", "4KB_tlb_miss%", "2MB_tlb_miss%", "verdict"});
  auto run_pattern = [&](const char* name, auto&& fn) {
    const PhaseReport small = fn(small_cfg);
    const PhaseReport huge = fn(huge_cfg);
    sim.Row(name, small.tlb.miss_rate() * 100, huge.tlb.miss_rate() * 100,
            huge.tlb.miss_rate() < small.tlb.miss_rate() ? "huge pages win"
                                                         : "small pages win");
  };
  run_pattern("PRB: direct scatter, 128 parts", [&](const auto& c) {
    return ReplayScatter(c, tuples, 128, /*swwcb=*/false, env.seed);
  });
  run_pattern("PRO+: SWWCB scatter, 2^12 parts", [&](const auto& c) {
    return ReplayScatter(c, tuples, 1 << 12, /*swwcb=*/true, env.seed);
  });
  run_pattern("NOP: global table build", [&](const auto& c) {
    return ReplayGlobalBuild(c, tuples, TableLayout::kLinear, env.seed);
  });
  run_pattern("NOPA: global array build", [&](const auto& c) {
    return ReplayGlobalBuild(c, tuples, TableLayout::kArray, env.seed);
  });
  std::printf(
      "\n(2) simulated TLB, 32x-scaled pages (4KB x 256 entries vs 64KB x "
      "32 entries -- same reach/entry-count ratios as the paper machine's "
      "4KB/256 vs 2MB/32):\n");
  sim.Print();
  std::printf(
      "\nexpected shape: PRB is the one pattern where the 2MB-page TLB "
      "loses (128 direct-scatter cursors exceed 32 entries but fit 256); "
      "SWWCB and the global builds want huge pages.\n");
  bench::PrintExecutorStats();
  return 0;
}
