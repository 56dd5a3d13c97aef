// mmjoin_perf: the measuring half of the benchmark. perfbench/run.py builds
// it, runs it once per benchmark run, and reduces its raw output to the
// metrics named in BENCHMARK.json.
//
//   mmjoin_perf --workload=NAME --seed=N --seconds=S --trace=0|1
//               [--spans-out=PATH] [--corrupt-expected]
//
// Every workload runs all three kinds of traffic (joins, Q19, service jobs)
// so that every end-to-end metric exists on every workload; the workload
// decides which kind runs at its full size and gets most of the time.
//
// --trace=0 sets up kSetupRepeats times (set-up time is reported as a
// median), then measures. --trace=1 sets up once, measures the workload's
// headline traffic untraced, then turns on obs::Enable() and measures
// everything again, with spans, plus one join round with NumaSystem
// accounting and the partition/hash/sort replays.
//
// The last stdout line is the raw JSON of report.h. Exit code 2 for a
// malformed command line, 1 when set-up fails or any operation failed.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "exec/data_chunk.h"
#include "mem/aligned_alloc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replays.h"
#include "report.h"
#include "segments.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace mmjoin;

enum class Traffic { kJoin, kQ19, kService };

struct Workload {
  const char* name;
  Geometry geometry;
  Traffic headline;  // runs at full size and gets most of the time
};

// Joins at |R|=1M, |S|=10M (the paper's Sec 4 shape) and Q19 at SF 2 are the
// full sizes; the other workloads run them at a quarter of that.
constexpr Workload kWorkloads[] = {
    {"paper_uniform", {1'000'000, 10'000'000, 0.5}, Traffic::kJoin},
    {"q19_pipeline", {250'000, 2'500'000, 2.0}, Traffic::kQ19},
    {"service_mixed", {250'000, 2'500'000, 0.5}, Traffic::kService},
};

constexpr Traffic kAllTraffic[] = {Traffic::kJoin, Traffic::kQ19,
                                   Traffic::kService};
constexpr int kSetupRepeats = 3;
// The untraced run interleaves the three kinds of traffic in kPasses passes,
// so each metric samples the whole run rather than one stretch of it: noise
// on a shared host comes and goes over seconds.
constexpr int kPasses = 5;
// p95 needs 10 samples beyond it: 200 small jobs. The large-job median
// gets at least 21.
constexpr int kMinSmallJobs = 200;
constexpr int kMinLargeJobs = 21;

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string spans_out;
  bool corrupt_expected = false;
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr,
               "mmjoin_perf: %s\nusage: mmjoin_perf --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 [--spans-out=PATH] "
               "[--corrupt-expected]\n",
               error.c_str());
  std::exit(2);
}

uint64_t ParseUnsigned(const std::string& flag, const std::string& text) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0') {
    Usage("malformed value for --" + flag + ": '" + text + "'");
  }
  return value;
}

// Every flag is --name=value except --corrupt-expected; anything else,
// including a repeated flag, is an error.
Options ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) Usage("unexpected argument '" + arg + "'");
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    const std::string value =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    const bool is_switch = name == "corrupt-expected";
    const bool known = is_switch || name == "workload" || name == "seed" ||
                       name == "seconds" || name == "trace" ||
                       name == "spans-out";
    if (!known) Usage("unknown flag '" + arg + "'");
    if (is_switch != (eq == std::string::npos)) {
      Usage("malformed flag '" + arg + "'");
    }
    if (!flags.emplace(name, value).second) {
      Usage("repeated flag '" + arg + "'");
    }
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"}) {
    if (flags.count(required) == 0) {
      Usage(std::string("missing --") + required);
    }
  }
  Options options;
  for (const Workload& workload : kWorkloads) {
    if (flags["workload"] == workload.name) options.workload = &workload;
  }
  if (options.workload == nullptr) {
    Usage("unknown workload '" + flags["workload"] + "'");
  }
  options.seed = ParseUnsigned("seed", flags["seed"]);
  const uint64_t seconds = ParseUnsigned("seconds", flags["seconds"]);
  if (seconds < 1 || seconds > 60) Usage("--seconds must be in [1, 60]");
  options.seconds = static_cast<double>(seconds);
  if (flags["trace"] != "0" && flags["trace"] != "1") {
    Usage("--trace must be 0 or 1");
  }
  options.trace = flags["trace"] == "1";
  options.spans_out = flags["spans-out"];
  options.corrupt_expected = flags.count("corrupt-expected") > 0;
  return options;
}

// `passes`: how many calls the caller splits this traffic's share into;
// the service's sample minimums are split the same way.
void RunTraffic(Traffic traffic, State& state, const Expected& expected,
                uint64_t seed, const Budget& budget, int passes,
                const std::string& prefix, Report* report, SpanLog* spans) {
  switch (traffic) {
    case Traffic::kJoin:
      RunJoinSegment(state, expected, budget, prefix, report, spans);
      break;
    case Traffic::kQ19:
      RunQ19Segment(state, expected, budget, prefix, report, spans);
      break;
    case Traffic::kService:
      RunServiceSegment(state, expected, seed, budget,
                        (kMinSmallJobs + passes - 1) / passes,
                        (kMinLargeJobs + passes - 1) / passes, prefix, report,
                        spans);
      break;
  }
}

// Share of the run's seconds each kind of traffic gets.
double Share(const Workload& workload, Traffic traffic, bool traced) {
  if (traced) return traffic == workload.headline ? 0.3 : 0.1;
  return traffic == workload.headline ? 0.5 : 0.25;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0 ? numerator / denominator : 0.0;
}

using CounterMap = std::map<std::string, uint64_t>;

double Delta(const CounterMap& before, const CounterMap& after,
             const std::string& name) {
  const auto value = [&](const CounterMap& map) -> double {
    const auto it = map.find(name);
    return it == map.end() ? 0.0 : static_cast<double>(it->second);
  };
  return value(after) - value(before);
}

// The traced run: per-layer metrics only. Counters that the API exposes
// process-wide are read as deltas around the traced segments.
void TracedRun(const Options& options, State& state, const Expected& expected,
               Report* report, SpanLog* spans) {
  const Workload& workload = *options.workload;
  RunTraffic(workload.headline, state, expected, options.seed,
             Budget{0.2 * options.seconds, 3}, 1, "untraced/", report,
             nullptr);

  core::Joiner& joiner = *state.joiner;
  obs::Enable();
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  const CounterMap counters_before = registry.SnapshotMap();
  const mem::AllocStats alloc_before = mem::GetAllocStats();
  const uint64_t ops_before = report->attempted();
  const thread::ExecutorStats executor_before = joiner.executor()->stats();
  const int64_t start_ns = NowNanos();

  auto traced = [&](Traffic traffic) {
    RunTraffic(traffic, state, expected, options.seed,
               Budget{Share(workload, traffic, true) * options.seconds, 2}, 1,
               "", report, spans);
  };
  traced(Traffic::kJoin);
  // NUMA accounting slows the partitioning kernels several-fold, so it gets
  // a round of its own, whose timings are not reported, instead of
  // inflating the traced ones.
  joiner.system()->EnableAccounting();
  RunJoinSegment(state, expected, Budget{0.0, 1}, "accounting/", report,
                 nullptr);
  joiner.system()->DisableAccounting();
  const numa::AccessCounters& numa = *joiner.system()->counters();
  const double local_read = static_cast<double>(numa.TotalLocalReadBytes());
  const double remote_read = static_cast<double>(numa.TotalRemoteReadBytes());
  const double local_write = static_cast<double>(numa.TotalLocalWriteBytes());
  const double remote_write =
      static_cast<double>(numa.TotalRemoteWriteBytes());
  report->Set("numa.remote_read_share",
              Ratio(remote_read, local_read + remote_read));
  report->Set("numa.remote_write_share",
              Ratio(remote_write, local_write + remote_write));

  const CounterMap counters_q19 = registry.SnapshotMap();
  const uint64_t ops_q19 = report->attempted();
  traced(Traffic::kQ19);
  const CounterMap counters_after_q19 = registry.SnapshotMap();
  const double queries = static_cast<double>(report->attempted() - ops_q19);
  report->Set("exec.chunks_per_query",
              Delta(counters_q19, counters_after_q19, "exec.chunks_emitted") /
                  queries);
  report->Set("exec.rows_compacted_per_query",
              Delta(counters_q19, counters_after_q19, "exec.rows_compacted") /
                  queries);
  report->Set(
      "exec.boundary_fill_pct",
      100.0 * Ratio(Delta(counters_q19, counters_after_q19,
                          "exec.boundary_rows_in"),
                    Delta(counters_q19, counters_after_q19,
                          "exec.boundary_chunks_in") *
                        exec::kChunkCapacity));

  // Executor accounting covers the joiner's pool: join and Q19 traffic.
  const thread::ExecutorStats executor_after = joiner.executor()->stats();
  const double pool_ns = static_cast<double>(NowNanos() - start_ns) *
                         joiner.num_threads();
  const double pool_ops =
      static_cast<double>(report->attempted() - ops_before);
  report->Set("thread.dispatches_per_op",
              static_cast<double>(executor_after.dispatches -
                                  executor_before.dispatches) /
                  pool_ops);
  report->Set("thread.barrier_wait_share",
              static_cast<double>(executor_after.barrier_wait_ns -
                                  executor_before.barrier_wait_ns) /
                  pool_ns);
  report->Set("thread.idle_share",
              static_cast<double>(executor_after.idle_ns -
                                  executor_before.idle_ns) /
                  pool_ns);
  report->Set("thread.threads_spawned",
              static_cast<double>(executor_after.threads_spawned));

  traced(Traffic::kService);
  RunServiceSolo(state, expected, report, spans);

  const uint32_t bits = PredictedBits(state.build, joiner.num_threads());
  report->Set("partition.predicted_bits", bits);
  RunPartitionReplay(joiner, state.probe, bits, report, spans);
  RunHashReplay(joiner.system(), state.build, state.probe, bits, report,
                spans);
  RunSortReplay(state.probe, report, spans);

  const CounterMap counters_after = registry.SnapshotMap();
  const double joins = Delta(counters_before, counters_after, "join.runs");
  for (const char* counter :
       {"join.tasks_seeded", "join.tasks_stolen", "join.skew_slices"}) {
    report->Set(counter,
                Delta(counters_before, counters_after, counter) / joins);
  }
  const mem::AllocStats alloc_after = mem::GetAllocStats();
  const double ops = static_cast<double>(report->attempted() - ops_before);
  report->Set("mem.allocs_per_op",
              static_cast<double>(alloc_after.total_allocations -
                                  alloc_before.total_allocations) /
                  ops);
  report->Set("mem.mmap_per_op",
              static_cast<double>(alloc_after.mmap_allocations -
                                  alloc_before.mmap_allocations) /
                  ops);
  report->Set("mem.peak_mb",
              static_cast<double>(alloc_after.peak_bytes) / (1 << 20));

  obs::Disable();
}

int Main(int argc, char** argv) {
  const Options options = ParseFlags(argc, argv);
  const Workload& workload = *options.workload;
  Report report;
  std::optional<SpanLog> span_log;
  if (options.trace) span_log.emplace();
  SpanLog* spans = span_log ? &*span_log : nullptr;

  std::unique_ptr<State> state;
  SetupTimes times;
  const int setup_repeats = options.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < setup_repeats; ++i) {
    state.reset();
    SpanLog::Scope span(spans, "setup");
    const int64_t start = NowNanos();
    StatusOr<std::unique_ptr<State>> created =
        Setup(workload.geometry, options.seed, &times);
    if (!created.ok()) {
      std::fprintf(stderr, "mmjoin_perf: set-up failed: %s\n",
                   created.status().ToString().c_str());
      return 1;
    }
    report.Sample("setup_s", static_cast<double>(NowNanos() - start) * 1e-9);
    state = std::move(*created);
  }
  Expected expected;
  {
    SpanLog::Scope span(spans, "expected");
    expected = ComputeExpected(*state, options.corrupt_expected);
  }

  if (options.trace) {
    report.Set("workload.gen_s", times.workload_gen_s);
    report.Set("tpch.gen_s", times.tpch_gen_s);
    report.Set("core.cold_run_ms", times.cold_run_ms);
    TracedRun(options, *state, expected, &report, spans);
  } else {
    for (int pass = 0; pass < kPasses; ++pass) {
      for (const Traffic traffic : kAllTraffic) {
        RunTraffic(traffic, *state, expected, options.seed,
                   Budget{Share(workload, traffic, false) * options.seconds /
                              kPasses,
                          1},
                   kPasses, "", &report, nullptr);
      }
    }
  }

  report.Set("paper.tuples",
             static_cast<double>(state->build.size() + state->probe.size()));
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report.Set("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0);
  const mem::AllocStats alloc = mem::GetAllocStats();
  const double fallback_share =
      Ratio(static_cast<double>(alloc.huge_page_fallbacks),
            static_cast<double>(alloc.huge_page_requests));
  if (options.trace) report.Set("mem.huge_fallback_share", fallback_share);
  report.SetEnv("workload", workload.name);
  report.SetEnv("seed", std::to_string(options.seed));
  report.SetEnv("nproc", std::to_string(std::thread::hardware_concurrency()));
  report.SetEnv("page_policy", kPagePolicyName);
  report.SetEnv("build_type", PERFBENCH_BUILD_TYPE);
  report.SetEnv("mem.huge_fallback_share", Report::Number(fallback_share));

  if (spans != nullptr && !options.spans_out.empty() &&
      !spans->WriteJson(options.spans_out)) {
    std::fprintf(stderr, "mmjoin_perf: cannot write %s\n",
                 options.spans_out.c_str());
    return 1;
  }
  std::printf("%s\n", report.Json().c_str());
  return report.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
