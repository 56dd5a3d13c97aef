// Table 4 / Appendix D: micro-architectural profile of every join --
// L1/L2/LLC hit rates and TLB behaviour per phase -- reproduced with the
// cache/TLB simulator replaying each algorithm's access streams on the
// paper machine's cache configuration.
//
// Paper result: partition-based joins trade more memory operations for
// ~99% join-phase hit rates; NOP* miss on nearly every table access once
// the table exceeds the LLC; CHTJ pays ~2x NOP's misses (bitmap + array);
// NOPA roughly halves NOP's misses (4-byte cells instead of 16-byte
// slots).
//
// Identical access patterns are replayed once and shared across algorithm
// rows (all SWWCB-based radix joins share one partition-phase stream).

#include "bench_common.h"
#include "memsim/replay.h"
#include "partition/model.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  using namespace mmjoin::memsim;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 22, 1u << 23);

  bench::PrintBanner(
      "Table 4 (simulated cache/TLB profile per join phase)",
      "Replayed access streams through the paper machine's hierarchy "
      "(32K/256K/30M caches, 32-entry TLB @ 2MB pages). The build table "
      "must exceed the 30MB LLC for the paper's contrast; default |R| "
      "gives a 64MB linear table.",
      env);

  const HierarchyConfig config = HierarchyConfig::HugePages();
  const uint64_t r = env.build_size;
  const uint64_t s = env.probe_size;
  const partition::CacheSpec paper_cache;  // paper machine for Equation (1)
  const uint32_t bits = partition::PredictRadixBits(
      r, partition::kLinearSpace, 32, paper_cache);
  const uint32_t partitions = 1u << bits;
  const uint64_t seed = env.seed;

  std::printf("replaying... (|R|=%llu, |S|=%llu, %u partitions)\n",
              static_cast<unsigned long long>(r),
              static_cast<unsigned long long>(s), partitions);

  // --- Shared replays (each distinct stream computed once). ---
  auto scatter_both = [&](uint32_t p, bool swwcb, int passes) {
    PhaseReport report;
    for (int pass = 0; pass < passes; ++pass) {
      report += ReplayScatter(config, r, p, swwcb, seed);
      report += ReplayScatter(config, s, p, swwcb, seed + 1);
    }
    return report;
  };
  const PhaseReport swwcb_partition = scatter_both(partitions, true, 1);
  const PhaseReport prb_partition = scatter_both(128, false, 2);
  const PhaseReport join_chained = ReplayPartitionedJoin(
      config, r, s, partitions, TableLayout::kChained, seed);
  const PhaseReport join_linear = ReplayPartitionedJoin(
      config, r, s, partitions, TableLayout::kLinear, seed);
  const PhaseReport join_array = ReplayPartitionedJoin(
      config, r, s, partitions, TableLayout::kArray, seed);

  struct RowSpec {
    const char* name;
    PhaseReport build;  // "Sort or Build or Partition Phase"
    PhaseReport probe;  // "Probe or Join Phase"
  };
  std::vector<RowSpec> rows;

  {  // MWAY: single-pass range partition + SIMD sort; merge-join probe.
    PhaseReport build = scatter_both(32, /*swwcb=*/true, 1);
    build += ReplaySortPhase(config, r, 1 << 15);
    build += ReplaySortPhase(config, s, 1 << 15);
    PhaseReport probe = ReplaySequentialScan(config, r);
    probe += ReplaySequentialScan(config, s);
    rows.push_back({"MWAY", build, probe});
  }
  {  // CHTJ: hash-prefix partition + CHT bulk load; NOP-style probe.
    PhaseReport build = ReplayScatter(config, r, 64, true, seed);
    build += ReplayGlobalBuild(config, r, TableLayout::kCht, seed);
    rows.push_back(
        {"CHTJ", build,
         ReplayGlobalProbe(config, s, r, TableLayout::kCht, seed)});
  }
  rows.push_back({"PRB", prb_partition, join_chained});
  rows.push_back({"NOP",
                  ReplayGlobalBuild(config, r, TableLayout::kLinear, seed),
                  ReplayGlobalProbe(config, s, r, TableLayout::kLinear,
                                    seed)});
  rows.push_back({"NOPA",
                  ReplayGlobalBuild(config, r, TableLayout::kArray, seed),
                  ReplayGlobalProbe(config, s, r, TableLayout::kArray,
                                    seed)});
  rows.push_back({"PRO", swwcb_partition, join_chained});
  rows.push_back({"PRL", swwcb_partition, join_linear});
  rows.push_back({"PRA", swwcb_partition, join_array});
  rows.push_back({"CPRL", swwcb_partition, join_linear});
  rows.push_back({"CPRA", swwcb_partition, join_array});
  rows.push_back({"PROiS", swwcb_partition, join_chained});
  rows.push_back({"PRLiS", swwcb_partition, join_linear});
  rows.push_back({"PRAiS", swwcb_partition, join_array});

  auto fmt = [](const AccessStats& stats) {
    return TablePrinter::FormatDouble(stats.hit_rate(), 2);
  };
  TablePrinter table({"join", "bld_ops_M", "bld_L2miss_M", "bld_L3miss_M",
                      "bld_L2hit", "bld_L3hit", "bld_TLBmiss_M",
                      "join_ops_M", "join_L2miss_M", "join_L3miss_M",
                      "join_L2hit", "join_L3hit", "join_TLBmiss_M"});
  for (const RowSpec& row : rows) {
    table.Row(row.name, row.build.ops / 1e6, row.build.l2.misses / 1e6,
              row.build.llc.misses / 1e6, fmt(row.build.l2),
              fmt(row.build.llc), row.build.tlb.misses / 1e6,
              row.probe.ops / 1e6, row.probe.l2.misses / 1e6,
              row.probe.llc.misses / 1e6, fmt(row.probe.l2),
              fmt(row.probe.llc), row.probe.tlb.misses / 1e6);
  }
  table.Print();
  std::printf(
      "\nradix bits from Equation (1) on the paper machine: %u\n"
      "(NUMA scheduling variants share their base algorithm's access "
      "pattern; Table 4's differences between PRO and PROiS stem from\n"
      "memory-controller parallelism, which a single-stream cache model "
      "does not see -- that effect is bench_fig06's subject.)\n",
      bits);
  bench::PrintExecutorStats();
  return 0;
}
