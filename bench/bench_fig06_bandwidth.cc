// Figure 6: per-NUMA-node bandwidth profiles of PRO, PROiS, and CPRL
// during the join phase.
//
// The paper visualizes this with VTune on real 4-socket hardware. A
// wall-clock timeline is meaningless on this 1-core host (threads
// timeslice), so we reproduce the profile deterministically: the join phase
// consumes co-partition tasks in a known order, and each task's build+probe
// bytes live on known nodes (partitioned output is chunked round-robin over
// nodes). We bucket the task sequence into time slices and report the bytes
// each node serves per slice -- exactly the quantity VTune's bandwidth
// profile shows.
//
// Paper result: PRO drains partitions in address order, so only ONE node's
// memory controller is active per slice; PROiS round-robins and keeps all
// nodes busy; CPRL reads every partition from ALL nodes, so it is balanced
// regardless of task order.

#include "bench_common.h"
#include "partition/model.h"
#include "thread/task_queue.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv, bench::BenchFlags({"bits", "slices"}));
  const bench::BenchEnv env =
      bench::BenchEnv::FromCli(cli, 1u << 20, 10u << 20);
  const int slices = static_cast<int>(cli.GetInt("slices", 10));

  bench::PrintBanner(
      "Figure 6 (per-node bandwidth profile of the join phase)",
      "Bytes served by each node per slice of the join-task sequence; the "
      "imbalance metric is max-node share x nodes (1.0 = all controllers "
      "busy, 4.0 = one at a time).",
      env);

  // Partition count as on the paper machine (Section 6.2 discusses
  // p = 16384 tasks on 60 threads); overridable via --bits.
  const partition::CacheSpec paper_cache;
  const uint32_t bits = static_cast<uint32_t>(cli.GetInt(
      "bits", partition::PredictRadixBits(env.build_size,
                                          partition::kLinearSpace,
                                          env.threads, paper_cache)));
  const uint32_t num_partitions = 1u << bits;
  // Per-partition bytes (uniform keys -> uniform partitions).
  const double r_bytes =
      static_cast<double>(env.build_size) * sizeof(Tuple) / num_partitions;
  const double s_bytes =
      static_cast<double>(env.probe_size) * sizeof(Tuple) / num_partitions;
  const double task_bytes = r_bytes + s_bytes;
  const uint32_t block = (num_partitions + env.nodes - 1) / env.nodes;

  struct Profile {
    const char* name;
    std::vector<uint32_t> order;
    bool reads_all_nodes;  // CPRL: every task touches every node
  };
  const Profile profiles[] = {
      {"PRO (sequential task order)",
       thread::SequentialOrder(num_partitions), false},
      {"PROiS (round-robin over nodes)",
       thread::RoundRobinNodeOrder(num_partitions, env.nodes), false},
      {"CPRL (any order; fragments on all nodes)",
       thread::SequentialOrder(num_partitions), true},
  };

  std::printf("radix bits = %u -> %u co-partition tasks (%.1f KB each)\n\n",
              bits, num_partitions, task_bytes / 1024);

  for (const Profile& profile : profiles) {
    std::printf("--- %s ---\n", profile.name);
    TablePrinter table([&] {
      std::vector<std::string> headers{"node"};
      for (int s = 0; s < slices; ++s) {
        headers.push_back("t" + std::to_string(s) + "_MB");
      }
      return headers;
    }());

    // traffic[slice][node]
    std::vector<std::vector<double>> traffic(
        slices, std::vector<double>(env.nodes, 0.0));
    for (std::size_t i = 0; i < profile.order.size(); ++i) {
      const int slice = static_cast<int>(i * slices / profile.order.size());
      if (profile.reads_all_nodes) {
        for (int node = 0; node < env.nodes; ++node) {
          traffic[slice][node] += task_bytes / env.nodes;
        }
      } else {
        const int node = static_cast<int>(profile.order[i] / block);
        traffic[slice][node] += task_bytes;
      }
    }

    for (int node = 0; node < env.nodes; ++node) {
      std::vector<std::string> row{"node" + std::to_string(node)};
      for (int s = 0; s < slices; ++s) {
        row.push_back(TablePrinter::FormatDouble(traffic[s][node] / 1e6, 1));
      }
      table.AddRow(row);
    }
    table.Print();
    // Imbalance over windows of `threads` consecutive tasks -- the set
    // actually in flight at one instant on the paper machine.
    double imbalance_sum = 0;
    int windows = 0;
    const std::size_t window = std::max(env.threads, env.nodes);
    for (std::size_t begin = 0; begin + window <= profile.order.size();
         begin += window) {
      std::vector<double> per_node(env.nodes, 0.0);
      for (std::size_t i = begin; i < begin + window; ++i) {
        if (profile.reads_all_nodes) {
          for (int node = 0; node < env.nodes; ++node) {
            per_node[node] += task_bytes / env.nodes;
          }
        } else {
          per_node[profile.order[i] / block] += task_bytes;
        }
      }
      double total = 0, max_node = 0;
      for (int node = 0; node < env.nodes; ++node) {
        total += per_node[node];
        max_node = std::max(max_node, per_node[node]);
      }
      imbalance_sum += max_node * env.nodes / total;
      ++windows;
    }
    std::printf("imbalance over %zu-task windows: %.2f  (1.0 = balanced, "
                "%d = one node at a time)\n\n",
                window, windows ? imbalance_sum / windows : 0.0, env.nodes);
  }
  bench::PrintExecutorStats();
  return 0;
}
