#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "obs/trace.h"
#include "thread/executor.h"

namespace mmjoin::bench {
namespace {

// State shared between PrintBanner (opens the sinks), RunMedian (appends one
// record per repeat), and PrintExecutorStats (finalizes). Harnesses are
// single-threaded drivers, so plain statics suffice.
struct ObsSinks {
  std::FILE* json = nullptr;
  std::string json_path;
  std::string trace_path;
  std::string artifact;
};

ObsSinks& Sinks() {
  static ObsSinks sinks;
  return sinks;
}

void AppendPhaseJson(std::string* out, const obs::PhaseProfile& profile) {
  *out += ",\"phases\":{";
  char buf[256];
  bool first = true;
  for (int p = 0; p < obs::kNumJoinPhases; ++p) {
    const auto phase = static_cast<obs::JoinPhase>(p);
    const obs::PhaseStat& stat = profile.Of(phase);
    if (stat.threads == 0) continue;
    if (!first) *out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "\"%s\":{\"threads\":%d,\"total_ns\":%lld,\"min_ns\":%lld,"
                  "\"max_ns\":%lld",
                  obs::JoinPhaseName(phase), stat.threads,
                  static_cast<long long>(stat.total_ns),
                  static_cast<long long>(stat.min_ns),
                  static_cast<long long>(stat.max_ns));
    *out += buf;
    if (stat.counters.valid) {
      std::snprintf(buf, sizeof(buf),
                    ",\"cycles\":%llu,\"instructions\":%llu,"
                    "\"llc_misses\":%llu,\"dtlb_misses\":%llu",
                    static_cast<unsigned long long>(stat.counters.cycles),
                    static_cast<unsigned long long>(stat.counters.instructions),
                    static_cast<unsigned long long>(stat.counters.llc_misses),
                    static_cast<unsigned long long>(stat.counters.dtlb_misses));
      *out += buf;
    }
    *out += '}';
  }
  *out += '}';
}

}  // namespace

// Names come from code-owned tables (no escaping needed).
void AppendBenchRecord(const char* algorithm, int repeat_index,
                       uint64_t build_size, uint64_t probe_size, int threads,
                       const join::JoinResult& result,
                       const std::string& extra_json) {
  ObsSinks& sinks = Sinks();
  if (sinks.json == nullptr) return;
  std::string line = "{\"schema\":\"mmjoin.bench.v1\"";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      ",\"artifact\":\"%s\",\"algorithm\":\"%s\",\"repeat\":%d,"
      "\"build\":%llu,\"probe\":%llu,\"threads\":%d,"
      "\"matches\":%llu,\"checksum\":%llu,"
      "\"partition_ns\":%lld,\"build_ns\":%lld,\"probe_ns\":%lld,"
      "\"total_ns\":%lld,\"mtps\":%.3f",
      sinks.artifact.c_str(), algorithm, repeat_index,
      static_cast<unsigned long long>(build_size),
      static_cast<unsigned long long>(probe_size), threads,
      static_cast<unsigned long long>(result.matches),
      static_cast<unsigned long long>(result.checksum),
      static_cast<long long>(result.times.partition_ns),
      static_cast<long long>(result.times.build_ns),
      static_cast<long long>(result.times.probe_ns),
      static_cast<long long>(result.times.total_ns),
      result.ThroughputMtps(build_size, probe_size));
  line += buf;
  if (!extra_json.empty()) {
    line += ',';
    line += extra_json;
  }
  AppendPhaseJson(&line, result.profile);
  line += "}\n";
  std::fwrite(line.data(), 1, line.size(), sinks.json);
}

BenchEnv BenchEnv::FromCli(const CommandLine& cli, uint64_t default_build,
                           uint64_t default_probe, int default_threads) {
  BenchEnv env;
  env.build_size = static_cast<uint64_t>(
      cli.GetInt("build", static_cast<int64_t>(default_build)));
  env.probe_size = static_cast<uint64_t>(
      cli.GetInt("probe", static_cast<int64_t>(default_probe)));
  env.threads = static_cast<int>(cli.GetInt("threads", default_threads));
  env.nodes = static_cast<int>(cli.GetInt("nodes", 4));
  env.repeat = static_cast<int>(cli.GetInt("repeat", 3));
  env.seed = static_cast<uint64_t>(cli.GetInt("seed", 42));
  const std::string pages = cli.GetString("pages", "huge");
  env.pages = pages == "small" ? mem::PagePolicy::kSmall
                               : mem::PagePolicy::kHuge;
  env.json_path = cli.GetString("json", "");
  if (env.json_path.empty()) {
    if (const char* path = std::getenv("MMJOIN_BENCH_JSON")) {
      env.json_path = path;
    }
  }
  env.trace_path = cli.GetString("trace", "");
  if (env.trace_path.empty()) {
    if (const char* path = std::getenv("MMJOIN_TRACE")) {
      env.trace_path = path;
    }
  }
  return env;
}

void PrintBanner(const char* artifact, const char* description,
                 const BenchEnv& env) {
  std::printf("=== %s ===\n%s\n", artifact, description);
  std::printf(
      "params: |R|=%llu |S|=%llu threads=%d nodes=%d repeat=%d seed=%llu\n"
      "(paper sizes |R|=128M |S|=1280M on 4x15 cores; scaled for this "
      "host -- shapes, not absolute numbers, are the reproduction target)\n\n",
      static_cast<unsigned long long>(env.build_size),
      static_cast<unsigned long long>(env.probe_size), env.threads,
      env.nodes, env.repeat, static_cast<unsigned long long>(env.seed));

  ObsSinks& sinks = Sinks();
  sinks.artifact = artifact;
  if (!env.json_path.empty() && sinks.json == nullptr) {
    sinks.json = std::fopen(env.json_path.c_str(), "w");
    if (sinks.json == nullptr) {
      std::fprintf(stderr, "[mmjoin] bench: cannot open --json file '%s'\n",
                   env.json_path.c_str());
    } else {
      sinks.json_path = env.json_path;
    }
  }
  if (!env.trace_path.empty()) {
    sinks.trace_path = env.trace_path;
    obs::Enable();
  }
}

join::JoinResult RunMedian(join::Algorithm algorithm,
                           numa::NumaSystem* system,
                           const join::JoinConfig& config,
                           const workload::Relation& build,
                           const workload::Relation& probe, int repeat) {
  join::JoinConfig pooled = config;
  if (pooled.executor == nullptr) {
    pooled.executor = &thread::GlobalExecutor();
  }
  std::vector<join::JoinResult> results;
  results.reserve(repeat);
  for (int i = 0; i < repeat; ++i) {
    StatusOr<join::JoinResult> result =
        join::RunJoin(algorithm, system, pooled, build, probe);
    if (!result.ok()) {
      // Fail fast: a harness that silently drops a failed repeat would
      // report a median over fewer runs than requested.
      std::fprintf(stderr, "[mmjoin] bench: %s join failed: %s\n",
                   join::NameOf(algorithm),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    AppendBenchRecord(join::NameOf(algorithm), i, build.size(), probe.size(),
                      pooled.num_threads, *result);
    results.push_back(std::move(result).value());
  }
  std::sort(results.begin(), results.end(),
            [](const join::JoinResult& a, const join::JoinResult& b) {
              return a.times.total_ns < b.times.total_ns;
            });
  return results[results.size() / 2];
}

void PrintExecutorStats() {
  const thread::ExecutorStats stats = thread::GlobalExecutor().stats();
  std::printf(
      "\n[pool] threads_spawned=%llu dispatches=%llu max_team=%llu "
      "(persistent executor: 0 threads created per join)\n",
      static_cast<unsigned long long>(stats.threads_spawned),
      static_cast<unsigned long long>(stats.dispatches),
      static_cast<unsigned long long>(stats.max_team_size));
  const mem::AllocStats alloc = mem::GetAllocStats();
  std::printf(
      "[alloc] allocations=%llu mmap=%llu huge_requests=%llu "
      "huge_fallbacks=%llu mmap_failures=%llu injected_failures=%llu "
      "numa_degradations=%llu\n",
      static_cast<unsigned long long>(alloc.total_allocations),
      static_cast<unsigned long long>(alloc.mmap_allocations),
      static_cast<unsigned long long>(alloc.huge_page_requests),
      static_cast<unsigned long long>(alloc.huge_page_fallbacks),
      static_cast<unsigned long long>(alloc.mmap_failures),
      static_cast<unsigned long long>(alloc.injected_failures),
      static_cast<unsigned long long>(alloc.numa_degradations));
  if (alloc.huge_page_fallbacks > 0) {
    std::printf(
        "[alloc] note: %llu huge-page request(s) degraded to default pages\n",
        static_cast<unsigned long long>(alloc.huge_page_fallbacks));
  }

  ObsSinks& sinks = Sinks();
  if (obs::Enabled()) {
    const obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
    std::printf(
        "[obs] spans_recorded=%llu spans_dropped=%llu barrier_wait_ns=%llu "
        "idle_ns=%llu\n",
        static_cast<unsigned long long>(recorder.recorded_spans()),
        static_cast<unsigned long long>(recorder.dropped_spans()),
        static_cast<unsigned long long>(stats.barrier_wait_ns),
        static_cast<unsigned long long>(stats.idle_ns));
  }
  if (sinks.json != nullptr) {
    // Final record: the process-wide metrics snapshot.
    const std::string metrics = obs::MetricsRegistry::Get().Json();
    std::fwrite(metrics.data(), 1, metrics.size(), sinks.json);
    std::fputc('\n', sinks.json);
    std::fclose(sinks.json);
    sinks.json = nullptr;
    std::printf("[obs] bench records written to %s\n",
                sinks.json_path.c_str());
  }
  if (!sinks.trace_path.empty()) {
    const Status status =
        obs::TraceRecorder::Get().WriteChromeTrace(sinks.trace_path);
    if (status.ok()) {
      std::printf("[obs] chrome trace written to %s (load in Perfetto)\n",
                  sinks.trace_path.c_str());
    } else {
      std::fprintf(stderr, "[mmjoin] bench: trace write failed: %s\n",
                   status.ToString().c_str());
    }
    sinks.trace_path.clear();
  }
}

}  // namespace mmjoin::bench
