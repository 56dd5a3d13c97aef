// Ablation study of the library's design choices (beyond the paper's own
// figures): each section toggles exactly one mechanism and reports the
// effect.
//
//  (a) skew task splitting: CPRL on a Zipf-0.99 probe with the probe-slice
//      factor swept from off to aggressive (the paper's skew handling,
//      Section 3.1 / Appendix A);
//  (b) SWWCB on/off for the one-pass radix join at a fixed bit count
//      (isolates Algorithm 1 from the pass-count effect of Figure 2);
//  (c) unique-probe shortcut: probes that stop at the first match vs
//      multiset scan-to-empty semantics, on the linear probing table
//      (the identity-hash/dense-key hazard discussed in
//      hash/linear_probing_table.h);
//  (d) scheduling order under the NUMA cost model: sequential vs
//      round-robin consume order, modeled remote traffic per window.

#include "bench_common.h"
#include "thread/task_queue.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags());
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);

  bench::PrintBanner("Ablation (design choices)",
                     "One mechanism toggled per section.", env);

  numa::NumaSystem system(env.nodes, env.pages);

  // --- (a) Skew task splitting. ---
  {
    workload::Relation build =
        workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
    workload::Relation probe = workload::MakeZipfProbe(
        &system, env.probe_size, env.build_size, 0.99, env.seed + 1).value();
    TablePrinter table({"skew_task_factor", "CPRL_total_ms", "PROiS_total_ms"});
    for (const uint32_t factor : {0u, 32u, 8u, 2u}) {
      join::JoinConfig config;
      config.num_threads = env.threads;
      config.skew_task_factor = factor;
      const auto cprl = bench::RunMedian(join::Algorithm::kCPRL, &system,
                                         config, build, probe, env.repeat);
      const auto prois = bench::RunMedian(join::Algorithm::kPROiS, &system,
                                          config, build, probe, env.repeat);
      table.Row(factor == 0 ? "off" : std::to_string(factor),
                cprl.times.total_ns / 1e6, prois.times.total_ns / 1e6);
    }
    std::printf("(a) probe-slice splitting on Zipf 0.99 (lower factor = "
                "more slices):\n");
    table.Print();
    std::printf("\n");
  }

  // --- (b) SWWCB on/off at fixed bits. ---
  {
    workload::Relation build =
        workload::MakeDenseBuild(&system, env.build_size, env.seed).value();
    workload::Relation probe = workload::MakeUniformProbe(
        &system, env.probe_size, env.build_size, env.seed + 1).value();
    TablePrinter table({"config", "partition_ms", "total_ms"});
    for (const bool swwcb : {false, true}) {
      // PRB forced to one pass == PRO without SWWCB; PRO == with.
      join::JoinConfig config;
      config.num_threads = env.threads;
      config.radix_bits = 10;
      config.num_passes = 1;
      const auto algorithm =
          swwcb ? join::Algorithm::kPRO : join::Algorithm::kPRB;
      const auto result = bench::RunMedian(algorithm, &system, config, build,
                                           probe, env.repeat);
      table.Row(swwcb ? "SWWCB + NT streaming" : "direct scatter",
                result.times.partition_ns / 1e6, result.times.total_ns / 1e6);
    }
    std::printf("(b) one-pass scatter at 2^10 partitions:\n");
    table.Print();
    std::printf("\n");
  }

  // --- (c) Unique-probe shortcut. ---
  {
    // Deliberately small input: the scan-to-empty semantics degenerate to
    // O(|R|) per probe on this workload, so full-size runs take minutes.
    const uint64_t r = std::min<uint64_t>(env.build_size, 50000);
    const uint64_t s = std::min<uint64_t>(env.probe_size, 200000);
    workload::Relation build = workload::MakeDenseBuild(&system, r, env.seed).value();
    workload::Relation probe =
        workload::MakeUniformProbe(&system, s, r, env.seed + 1).value();
    TablePrinter table({"probe_semantics", "NOP_total_ms", "PRL_total_ms"});
    for (const bool unique : {true, false}) {
      join::JoinConfig config;
      config.num_threads = env.threads;
      config.build_unique = unique;
      const auto nop = bench::RunMedian(join::Algorithm::kNOP, &system,
                                        config, build, probe, env.repeat);
      const auto prl = bench::RunMedian(join::Algorithm::kPRL, &system,
                                        config, build, probe, env.repeat);
      table.Row(unique ? "stop at first match (PK)" : "scan to empty slot",
                nop.times.total_ns / 1e6, prl.times.total_ns / 1e6);
    }
    std::printf(
        "(c) probe semantics on a dense PK build (identity hash makes the "
        "table one occupied cluster -- multiset scans degenerate):\n");
    table.Print();
    std::printf("\n");
  }

  // --- (d) Scheduling order, modeled. ---
  {
    const uint32_t partitions = 1u << 10;
    const uint32_t block = (partitions + env.nodes - 1) / env.nodes;
    TablePrinter table({"order", "avg_distinct_nodes_per_window"});
    for (const bool round_robin : {false, true}) {
      const std::vector<uint32_t> order =
          round_robin ? thread::RoundRobinNodeOrder(partitions, env.nodes)
                      : thread::SequentialOrder(partitions);
      double distinct_sum = 0;
      int windows = 0;
      for (std::size_t begin = 0;
           begin + static_cast<std::size_t>(env.threads) <= order.size();
           begin += env.threads) {
        std::vector<bool> seen(env.nodes, false);
        int distinct = 0;
        for (int i = 0; i < env.threads; ++i) {
          const int node = static_cast<int>(order[begin + i] / block);
          if (!seen[node]) {
            seen[node] = true;
            ++distinct;
          }
        }
        distinct_sum += distinct;
        ++windows;
      }
      table.Row(round_robin ? "round-robin (iS)" : "sequential",
                distinct_sum / windows);
    }
    std::printf("(d) memory controllers active per %d-task window (max %d):\n",
                env.threads, env.nodes);
    table.Print();
  }
  bench::PrintExecutorStats();
  return 0;
}
