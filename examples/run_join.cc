// run_join: run any of the thirteen join algorithms by name on a
// configurable workload -- the library's command-line playground.
//
//   ./run_join --join=CPRL --build=1000000 --probe=10000000 --threads=4
//   ./run_join --join=NOPA --zipf=0.9
//   ./run_join --join=PRAiS --holes=8 --bits=10 --numa_profile
//   ./run_join --join=PRO --profile                # per-phase breakdown
//   ./run_join --join=PRO --trace=trace.json       # Perfetto-loadable trace
//   ./run_join --join=PRO --metrics=metrics.json   # counters snapshot
//   ./run_join --join=PRO --explain                # EXPLAIN ANALYZE report
//   ./run_join --join=PRO --explain-json=report.json   # + mmjoin.report.v1
//   ./run_join --join=PRO --listen=9178            # serve /metrics scrapes
//   ./run_join --join=PRO --dump-metrics=m.prom    # exposition on SIGUSR1
//   ./run_join --list
//
// The memory budget can also come from the MMJOIN_MEM_BUDGET environment
// variable (bytes); the --mem-budget flag wins when both are set.
// --listen keeps the process alive after the join so a scraper (curl,
// Prometheus) can poll http://host:PORT/metrics; terminate with SIGINT/kill.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "core/explain.h"
#include "core/mmjoin.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/table_printer.h"

namespace {

// --profile: per-phase per-thread breakdown to stderr, with hardware-counter
// derived rates when perf events were available.
void PrintProfile(const mmjoin::obs::PhaseProfile& profile,
                  uint64_t matches) {
  using mmjoin::obs::JoinPhase;
  using mmjoin::obs::JoinPhaseName;
  using mmjoin::obs::kNumJoinPhases;
  using mmjoin::obs::PhaseStat;

  std::fprintf(stderr, "\n[profile] phase            threads   mean ms"
                       "    min ms    max ms");
  const bool counters = profile.CountersValid();
  if (counters) {
    std::fprintf(stderr, "       cycles  instr/cycle  cyc/match");
  }
  std::fprintf(stderr, "\n");
  for (int p = 0; p < kNumJoinPhases; ++p) {
    const auto phase = static_cast<JoinPhase>(p);
    const PhaseStat& stat = profile.Of(phase);
    if (stat.threads == 0) continue;
    std::fprintf(stderr, "[profile] %-16s %7d %9.2f %9.2f %9.2f",
                 JoinPhaseName(phase), stat.threads, stat.MeanNs() / 1e6,
                 stat.min_ns / 1e6, stat.max_ns / 1e6);
    if (counters && stat.counters.valid) {
      const double cycles = static_cast<double>(stat.counters.cycles);
      const double instructions =
          static_cast<double>(stat.counters.instructions);
      std::fprintf(stderr, " %12.3e %12.2f %10.2f", cycles,
                   cycles > 0 ? instructions / cycles : 0.0,
                   matches > 0 ? cycles / static_cast<double>(matches) : 0.0);
    }
    std::fprintf(stderr, "\n");
  }
  std::fprintf(stderr, "[profile] critical path (sum of slowest threads): "
                       "%.2f ms\n",
               profile.CriticalPathNs() / 1e6);
  if (!counters) {
    std::fprintf(stderr,
                 "[profile] hardware counters unavailable (perf_event_open "
                 "denied or unsupported); wall-clock only\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv);

  if (cli.Has("list")) {
    TablePrinter table({"name", "class", "description"});
    for (const join::Algorithm algorithm : join::AllAlgorithms()) {
      const join::AlgorithmInfo& info = join::InfoOf(algorithm);
      const char* join_class =
          info.join_class == join::JoinClass::kPartitionBased
              ? "partition-based"
          : info.join_class == join::JoinClass::kNoPartitioning
              ? "no-partitioning"
              : "sort-merge";
      table.Row(info.name, join_class, info.description);
    }
    table.Print();
    return 0;
  }

  const std::string name = cli.GetString("join", "CPRL");
  const auto algorithm = join::AlgorithmFromName(name);
  if (!algorithm.has_value()) {
    std::fprintf(stderr, "unknown join '%s'; try --list\n", name.c_str());
    return 1;
  }

  const uint64_t build_size = cli.GetInt("build", 1'000'000);
  const uint64_t probe_size = cli.GetInt("probe", 10'000'000);
  const int threads = static_cast<int>(cli.GetInt("threads", 4));
  const double zipf = cli.GetDouble("zipf", 0.0);
  const uint64_t holes = cli.GetInt("holes", 1);
  const uint64_t seed = cli.GetInt("seed", 42);
  const int repeat = static_cast<int>(cli.GetInt("repeat", 1));
  const std::string trace_path = cli.GetString("trace", "");
  const std::string metrics_path = cli.GetString("metrics", "");
  const bool profile = cli.Has("profile");
  const bool explain = cli.Has("explain");
  const std::string explain_json = cli.GetString("explain-json", "");
  const int listen_port = static_cast<int>(cli.GetInt("listen", -1));
  const bool listen = listen_port >= 0;
  const std::string dump_metrics = cli.GetString("dump-metrics", "");

  // Any observability output requested -> record spans and hardware
  // counters (the phase profile itself is always recorded).
  if (profile || explain || listen || !trace_path.empty() ||
      !metrics_path.empty() || !explain_json.empty()) {
    obs::Enable();
  }

  obs::StatsServer stats_server;
  if (listen) {
    const Status status = stats_server.Start(listen_port);
    if (!status.ok()) {
      std::fprintf(stderr, "stats server failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[mmjoin] serving metrics on http://0.0.0.0:%d"
                         "/metrics\n",
                 stats_server.port());
  }
  if (cli.Has("dump-metrics")) {
    const Status status = obs::InstallSigusr1ExpositionDump(dump_metrics);
    if (!status.ok()) {
      std::fprintf(stderr, "SIGUSR1 dump install failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
  }

  numa::NumaSystem system(static_cast<int>(cli.GetInt("nodes", 4)));

  StatusOr<workload::Relation> build_or =
      holes > 1 ? workload::MakeSparseBuild(&system, build_size, holes, seed)
                : workload::MakeDenseBuild(&system, build_size, seed);
  if (!build_or.ok()) {
    std::fprintf(stderr, "invalid build workload: %s\n",
                 build_or.status().ToString().c_str());
    return 1;
  }
  workload::Relation build = std::move(build_or).value();
  StatusOr<workload::Relation> probe_or =
      zipf > 0.0
          ? workload::MakeZipfProbe(&system, probe_size, build_size, zipf,
                                    seed + 1)
          : workload::MakeProbeFromBuild(&system, probe_size, build, seed + 1);
  if (!probe_or.ok()) {
    std::fprintf(stderr, "invalid probe workload: %s\n",
                 probe_or.status().ToString().c_str());
    return 1;
  }
  workload::Relation probe = std::move(probe_or).value();

  join::JoinConfig config;
  config.num_threads = threads;
  config.radix_bits = static_cast<uint32_t>(cli.GetInt("bits", 0));

  // Per-join memory budget: --mem-budget=<bytes> wins over the
  // MMJOIN_MEM_BUDGET environment variable; 0/absent means unbounded.
  uint64_t mem_budget = static_cast<uint64_t>(cli.GetInt("mem-budget", 0));
  if (mem_budget == 0) {
    if (const char* env = std::getenv("MMJOIN_MEM_BUDGET");
        env != nullptr && env[0] != '\0') {
      mem_budget = std::strtoull(env, nullptr, 10);
    }
  }
  if (mem_budget != 0) config.mem_budget_bytes = mem_budget;

  if (cli.Has("numa_profile")) system.EnableAccounting();

  // --repeat=N: keep the fastest run (same rule for every repeat, so the
  // printed numbers stay comparable across invocations); profiles come from
  // that run too.
  // --explain: counter deltas bracket the measurement loop, so the report
  // narrates exactly what this invocation's runs did.
  std::map<std::string, uint64_t> counters_before;
  if (explain || !explain_json.empty()) {
    counters_before = obs::MetricsRegistry::Get().SnapshotMap();
  }

  join::JoinResult result;
  for (int i = 0; i < (repeat > 0 ? repeat : 1); ++i) {
    StatusOr<join::JoinResult> result_or =
        join::RunJoin(*algorithm, &system, config, build, probe);
    if (!result_or.ok()) {
      // Exit code 2 distinguishes a cleanly-reported join failure (e.g. an
      // injected allocation fault via MMJOIN_FAILPOINTS) from usage errors
      // (1) and crashes; CI's fault-injection smoke test asserts on it.
      std::fprintf(stderr, "%s join failed: %s\n", join::NameOf(*algorithm),
                   result_or.status().ToString().c_str());
      return 2;
    }
    join::JoinResult this_run = std::move(result_or).value();
    if (i == 0 || this_run.times.total_ns < result.times.total_ns) {
      result = std::move(this_run);
    }
  }

  std::printf("%s: |R|=%llu |S|=%llu threads=%d zipf=%.2f holes=%llu\n",
              join::NameOf(*algorithm),
              static_cast<unsigned long long>(build_size),
              static_cast<unsigned long long>(probe_size), threads, zipf,
              static_cast<unsigned long long>(holes));
  std::printf("  matches    : %llu\n",
              static_cast<unsigned long long>(result.matches));
  std::printf("  checksum   : %llu\n",
              static_cast<unsigned long long>(result.checksum));
  std::printf("  partition  : %.2f ms\n", result.times.partition_ns / 1e6);
  std::printf("  build      : %.2f ms\n", result.times.build_ns / 1e6);
  std::printf("  probe/join : %.2f ms\n", result.times.probe_ns / 1e6);
  std::printf("  total      : %.2f ms\n", result.times.total_ns / 1e6);
  std::printf("  throughput : %.1f M input tuples/s\n",
              result.ThroughputMtps(build_size, probe_size));

  if (cli.Has("numa_profile")) {
    const numa::AccessCounters* counters = system.counters();
    std::printf("  NUMA reads : %.1f MB local, %.1f MB remote\n",
                counters->TotalLocalReadBytes() / 1e6,
                counters->TotalRemoteReadBytes() / 1e6);
    std::printf("  NUMA writes: %.1f MB local, %.1f MB remote\n",
                counters->TotalLocalWriteBytes() / 1e6,
                counters->TotalRemoteWriteBytes() / 1e6);
  }

  if (profile) PrintProfile(result.profile, result.matches);
  if (explain || !explain_json.empty()) {
    const core::ExplainReport report = core::BuildExplainReport(
        join::NameOf(*algorithm), result, build_size, probe_size, threads,
        &system, counters_before, obs::MetricsRegistry::Get().SnapshotMap());
    if (explain) {
      std::printf("\n%s", core::FormatExplainText(report).c_str());
    }
    if (!explain_json.empty()) {
      const Status status = core::WriteExplainJson(report, explain_json);
      if (!status.ok()) {
        std::fprintf(stderr, "report write failed: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      std::printf("  report     : %s\n", explain_json.c_str());
    }
  }
  if (!metrics_path.empty()) {
    const Status status =
        obs::MetricsRegistry::Get().WriteJson(metrics_path);
    if (!status.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("  metrics    : %s\n", metrics_path.c_str());
  }
  if (!trace_path.empty()) {
    const Status status =
        obs::TraceRecorder::Get().WriteChromeTrace(trace_path);
    if (!status.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::printf("  trace      : %s (load in Perfetto)\n", trace_path.c_str());
  }
  if (listen || cli.Has("dump-metrics")) {
    // Stay alive for scrapes / SIGUSR1 dumps until killed.
    std::fflush(stdout);
    std::fprintf(stderr, "[mmjoin] join done; process stays up for metrics"
                         " (kill to exit)\n");
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  return 0;
}
