// Observability layer tests: span recording and thread attribution, JSON
// round-trips of the trace and metrics writers, perf-counter graceful
// degradation (forced via the obs.perf_open failpoint), and the acceptance
// check that PhaseProfile stays consistent with the orchestrator-level
// PhaseTimes on a real join run.
//
// The tests in this binary share one process-wide TraceRecorder, so every
// test that enables observability restores the disabled default before
// returning (ObsTest fixture).

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/joiner.h"
#include "join/join_algorithm.h"
#include "numa/system.h"
#include "obs/metrics.h"
#include "obs/perf_counters.h"
#include "obs/phase_profile.h"
#include "obs/trace.h"
#include "util/failpoint.h"
#include "util/status.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace mmjoin {
namespace {

// ---------------------------------------------------------------------------
// Minimal JSON syntax validator (recursive descent). Accepts exactly the
// grammar of RFC 8259; enough to prove the writers emit loadable JSON
// without pulling in a parser dependency.
// ---------------------------------------------------------------------------

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (esc != '"' && esc != '\\' && esc != '/' && esc != 'b' &&
                   esc != 'f' && esc != 'n' && esc != 'r' && esc != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control characters must be escaped
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!DigitRun()) return false;
    if (Peek() == '.') {
      ++pos_;
      if (!DigitRun()) return false;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!DigitRun()) return false;
    }
    return pos_ > start;
  }

  bool DigitRun() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p, ++pos_) {
      if (pos_ >= text_.size() || text_[pos_] != *p) return false;
    }
    return true;
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  const std::string& text_;
  std::size_t pos_ = 0;
};

TEST(JsonValidator, SelfTest) {
  EXPECT_TRUE(JsonValidator(R"({"a":[1,2.5,-3e6],"b":"x\n","c":null})").Valid());
  EXPECT_FALSE(JsonValidator(R"({"a":1,})").Valid());
  EXPECT_FALSE(JsonValidator(R"({"a" 1})").Valid());
  EXPECT_FALSE(JsonValidator("{\"a\":\"\x01\"}").Valid());
}

// ---------------------------------------------------------------------------
// Fixture: every test leaves observability disabled and the recorder empty.
// ---------------------------------------------------------------------------

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Disable();
    obs::TraceRecorder::Get().Clear();
  }
  void TearDown() override {
    obs::Disable();
    obs::TraceRecorder::Get().Clear();
    failpoint::DeactivateAll();
  }
};

// ---------------------------------------------------------------------------
// Span recording, nesting, and thread attribution
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledScopeRecordsNothing) {
  {
    obs::ObsScope scope("test.disabled", obs::SpanKind::kOther);
  }
  EXPECT_EQ(obs::TraceRecorder::Get().Snapshot().size(), 0u);
}

TEST_F(ObsTest, NestedScopesRecordContainedIntervals) {
  obs::Enable();
  obs::SetCurrentThreadId(7);
  {
    obs::ObsScope outer("test.outer", obs::SpanKind::kRun);
    obs::ObsScope inner("test.inner", obs::SpanKind::kBuild);
  }
  const std::vector<obs::Span> spans = obs::TraceRecorder::Get().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  // Snapshot orders by (tid, start): outer starts first.
  EXPECT_STREQ(spans[0].name, "test.outer");
  EXPECT_STREQ(spans[1].name, "test.inner");
  EXPECT_EQ(spans[0].tid, 7);
  EXPECT_EQ(spans[1].tid, 7);
  // The inner span nests inside the outer one.
  EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_LE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_LE(spans[0].start_ns, spans[0].end_ns);
}

TEST_F(ObsTest, SpansCarryTheRecordingThreadsId) {
  obs::Enable();
  obs::SetCurrentThreadId(0);
  obs::TraceRecorder::Get().Record("test.main", obs::SpanKind::kOther, 10, 20);
  std::thread other([] {
    obs::SetCurrentThreadId(3);
    obs::TraceRecorder::Get().Record("test.worker", obs::SpanKind::kOther, 30,
                                     40);
  });
  other.join();

  bool saw_main = false;
  bool saw_worker = false;
  for (const obs::Span& span : obs::TraceRecorder::Get().Snapshot()) {
    if (std::string(span.name) == "test.main") {
      saw_main = true;
      EXPECT_EQ(span.tid, 0);
    } else if (std::string(span.name) == "test.worker") {
      saw_worker = true;
      EXPECT_EQ(span.tid, 3);
    }
  }
  EXPECT_TRUE(saw_main);
  EXPECT_TRUE(saw_worker);
}

TEST_F(ObsTest, UnlabeledThreadsGetDistinctIds) {
  obs::Enable();
  int tid_a = -1;
  int tid_b = -1;
  std::thread a([&] { tid_a = obs::CurrentThreadId(); });
  a.join();
  std::thread b([&] { tid_b = obs::CurrentThreadId(); });
  b.join();
  EXPECT_GE(tid_a, obs::kUnlabeledThreadIdBase);
  EXPECT_GE(tid_b, obs::kUnlabeledThreadIdBase);
  EXPECT_NE(tid_a, tid_b);
}

// ---------------------------------------------------------------------------
// Trace and metrics writers emit valid JSON
// ---------------------------------------------------------------------------

TEST_F(ObsTest, ChromeTraceJsonIsValidAndCarriesSpans) {
  obs::Enable();
  obs::SetCurrentThreadId(1);
  obs::TraceRecorder::Get().Record("test.build", obs::SpanKind::kBuild, 1000,
                                   5000);
  obs::TraceRecorder::Get().Record("test.probe", obs::SpanKind::kProbe, 5000,
                                   9000);
  const std::string json = obs::TraceRecorder::Get().ChromeTraceJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"test.build\""), std::string::npos);
  EXPECT_NE(json.find("\"test.probe\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(ObsTest, WriteChromeTraceRoundTripsThroughAFile) {
  obs::Enable();
  obs::TraceRecorder::Get().Record("test.span", obs::SpanKind::kOther, 0, 100);
  const std::string path = ::testing::TempDir() + "/obs_trace_test.json";
  ASSERT_TRUE(obs::TraceRecorder::Get().WriteChromeTrace(path).ok());

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::string contents;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) contents.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());

  EXPECT_TRUE(JsonValidator(contents).Valid());
  EXPECT_NE(contents.find("\"test.span\""), std::string::npos);
}

TEST_F(ObsTest, MetricsJsonIsValidAndIncludesRegisteredCounters) {
  obs::MetricsRegistry::Get().AddCounter("test.obs_counter", 41);
  obs::MetricsRegistry::Get().AddCounter("test.obs_counter", 1);
  const std::string json = obs::MetricsRegistry::Get().Json();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"schema\":\"mmjoin.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"test.obs_counter\":42"), std::string::npos);
  // The static provider registrations from mem/thread/numa all contribute.
  EXPECT_NE(json.find("\"alloc.total_allocations\""), std::string::npos);
  EXPECT_NE(json.find("\"executor.dispatches\""), std::string::npos);
  EXPECT_NE(json.find("\"numa.local_read_bytes\""), std::string::npos);
}

uint64_t CounterValue(const std::string& name) {
  for (const obs::Metric& metric : obs::MetricsRegistry::Get().Snapshot()) {
    if (metric.name == name) return metric.value;
  }
  return 0;
}

// The skew counters obey their definitions: skew_slices counts tasks
// *beyond* one per partition, so tasks_seeded = partitions + skew_slices;
// skew_partitions counts partitions that were split, so it never exceeds
// skew_slices. Checked as deltas across one heavily skewed PRO run with a
// pinned radix_bits (64 partitions).
TEST_F(ObsTest, SkewCountersStayConsistentAcrossASkewedRun) {
  numa::NumaSystem system(4);
  const uint64_t build_size = 1 << 15;
  auto build = workload::MakeDenseBuild(&system, build_size, /*seed=*/11);
  ASSERT_TRUE(build.ok());
  auto probe = workload::MakeZipfProbe(&system, 1 << 17, build_size,
                                       /*theta=*/1.25, /*seed=*/12);
  ASSERT_TRUE(probe.ok());

  const uint64_t seeded_before = CounterValue("join.tasks_seeded");
  const uint64_t slices_before = CounterValue("join.skew_slices");
  const uint64_t skew_parts_before = CounterValue("join.skew_partitions");
  const uint64_t stolen_before = CounterValue("join.tasks_stolen");

  join::JoinConfig config;
  config.num_threads = 4;
  config.radix_bits = 6;  // 64 final partitions
  config.skew_task_factor = 4;
  auto result = join::RunJoin(join::Algorithm::kPRO, &system, config, *build,
                              *probe);
  ASSERT_TRUE(result.ok());

  const uint64_t seeded = CounterValue("join.tasks_seeded") - seeded_before;
  const uint64_t slices = CounterValue("join.skew_slices") - slices_before;
  const uint64_t skew_parts =
      CounterValue("join.skew_partitions") - skew_parts_before;
  EXPECT_EQ(seeded - slices, uint64_t{1} << config.radix_bits);
  EXPECT_LE(skew_parts, slices);
  // theta = 1.25 concentrates enough probe mass that at least one partition
  // must split under skew_task_factor = 4.
  EXPECT_GT(slices, 0u);
  EXPECT_GT(skew_parts, 0u);

  // The steal counters are exported on every run (possibly as zero deltas).
  bool saw_stolen = false;
  bool saw_steal_reads = false;
  for (const obs::Metric& metric : obs::MetricsRegistry::Get().Snapshot()) {
    if (metric.name == "join.tasks_stolen") saw_stolen = true;
    if (metric.name == "join.steal_remote_reads") saw_steal_reads = true;
  }
  EXPECT_TRUE(saw_stolen);
  EXPECT_TRUE(saw_steal_reads);
  EXPECT_GE(CounterValue("join.tasks_stolen"), stolen_before);
}

// A radix run owns its task queue for every spill wave, so the steals its
// result reports, its steal matrix and the registry's join.tasks_stolen
// delta all count the same thing: every wave of every run.
TEST_F(ObsTest, StealCountsCoverEverySpillWave) {
  core::JoinerOptions options;
  options.num_threads = 4;
  options.num_nodes = 4;
  core::Joiner joiner(options);
  const uint64_t build_size = 1 << 18;
  auto build = workload::MakeDenseBuild(joiner.system(), build_size,
                                        /*seed=*/31);
  ASSERT_TRUE(build.ok());
  auto probe = workload::MakeZipfProbe(joiner.system(), 1 << 21, build_size,
                                       /*theta=*/0.9, /*seed=*/32);
  ASSERT_TRUE(probe.ok());

  ASSERT_TRUE(failpoint::Configure("budget.wave=always").ok());
  const uint64_t rounds_before = CounterValue("mem.budget_wave_rounds");
  const uint64_t registry_before = CounterValue("join.tasks_stolen");
  uint64_t result_stolen = 0;
  uint64_t matrix_total = 0;
  for (int run = 0; run < 20; ++run) {
    auto result = joiner.Run(join::Algorithm::kPROiS, *build, *probe);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->tasks.steal_matrix.size(), 16u);
    result_stolen += result->tasks.tasks_stolen;
    for (const uint64_t cell : result->tasks.steal_matrix) {
      matrix_total += cell;
    }
  }
  EXPECT_GT(CounterValue("mem.budget_wave_rounds") - rounds_before, 20u);
  EXPECT_EQ(matrix_total, result_stolen);
  EXPECT_EQ(CounterValue("join.tasks_stolen") - registry_before,
            result_stolen);
}

TEST_F(ObsTest, MetricsSnapshotIsSortedByName) {
  const std::vector<obs::Metric> metrics =
      obs::MetricsRegistry::Get().Snapshot();
  ASSERT_FALSE(metrics.empty());
  for (std::size_t i = 1; i < metrics.size(); ++i) {
    EXPECT_LE(metrics[i - 1].name, metrics[i].name);
  }
}

// ---------------------------------------------------------------------------
// Perf counters: graceful degradation
// ---------------------------------------------------------------------------

TEST_F(ObsTest, PerfCountersDegradeWhenOpenIsDenied) {
  FailPoint::Get("obs.perf_open").Activate(FailPoint::Mode::kAlways);
  obs::PerfCounters counters;
  EXPECT_FALSE(counters.ok());
  EXPECT_EQ(counters.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(counters.status().ToString().find("obs.perf_open"),
            std::string::npos);
  obs::CounterSample sample;
  sample.cycles = 123;
  EXPECT_FALSE(counters.Read(&sample));
  EXPECT_EQ(sample.cycles, 123u);  // untouched on failure
  FailPoint::Get("obs.perf_open").Deactivate();
}

TEST_F(ObsTest, CounterDeltaAccumulationTracksValidity) {
  obs::CounterDelta sum;
  EXPECT_FALSE(sum.valid);
  obs::CounterDelta invalid;
  sum += invalid;
  EXPECT_FALSE(sum.valid);
  obs::CounterSample begin;
  obs::CounterSample end;
  end.cycles = 100;
  end.instructions = 50;
  sum += obs::Subtract(end, begin);
  EXPECT_TRUE(sum.valid);
  EXPECT_EQ(sum.cycles, 100u);
  EXPECT_EQ(sum.instructions, 50u);
}

// ---------------------------------------------------------------------------
// PhaseProfile acceptance against PhaseTimes
// ---------------------------------------------------------------------------

// Timing is always on: with observability disabled the run still carries
// its per-thread wall-clock profile, but no counters and no spans.
TEST_F(ObsTest, JoinWithoutObservabilityProfilesWallClockOnly) {
  numa::NumaSystem system(2);
  auto build = workload::MakeDenseBuild(&system, 1 << 12, /*seed=*/7);
  ASSERT_TRUE(build.ok());
  auto probe = workload::MakeProbeFromBuild(&system, 1 << 14, *build,
                                            /*seed=*/8);
  ASSERT_TRUE(probe.ok());
  join::JoinConfig config;
  config.num_threads = 2;
  auto result = join::RunJoin(join::Algorithm::kNOPA, &system, config, *build,
                              *probe);
  ASSERT_TRUE(result.ok());
  const obs::PhaseProfile& profile = result->profile;
  EXPECT_EQ(profile.Of(obs::JoinPhase::kBuild).threads, config.num_threads);
  EXPECT_EQ(profile.Of(obs::JoinPhase::kProbe).threads, config.num_threads);
  EXPECT_GT(profile.CriticalPathNs(), 0);
  EXPECT_FALSE(profile.CountersValid());
  EXPECT_EQ(obs::TraceRecorder::Get().Snapshot().size(), 0u);
}

TEST_F(ObsTest, PhaseProfileStaysWithinToleranceOfPhaseTimes) {
  obs::Enable();
  numa::NumaSystem system(2);
  const uint64_t build_size = 1 << 14;
  const uint64_t probe_size = 1 << 16;
  auto build = workload::MakeDenseBuild(&system, build_size, /*seed=*/7);
  ASSERT_TRUE(build.ok());
  auto probe = workload::MakeProbeFromBuild(&system, probe_size, *build,
                                            /*seed=*/8);
  ASSERT_TRUE(probe.ok());
  join::JoinConfig config;
  config.num_threads = 2;
  auto result = join::RunJoin(join::Algorithm::kNOPA, &system, config, *build,
                              *probe);
  ASSERT_TRUE(result.ok());
  const obs::PhaseProfile& profile = result->profile;

  const obs::PhaseStat& build_stat = profile.Of(obs::JoinPhase::kBuild);
  const obs::PhaseStat& probe_stat = profile.Of(obs::JoinPhase::kProbe);
  EXPECT_EQ(build_stat.threads, config.num_threads);
  EXPECT_EQ(probe_stat.threads, config.num_threads);
  EXPECT_GT(build_stat.total_ns, 0);
  EXPECT_GT(probe_stat.total_ns, 0);
  EXPECT_LE(build_stat.min_ns, build_stat.max_ns);
  EXPECT_LE(probe_stat.min_ns, probe_stat.max_ns);

  // Each phase scope is contained in the orchestrator's timed window for
  // that phase, so the slowest thread's scope cannot exceed the PhaseTimes
  // entry (small slack for the unsynchronized build_end stamp).
  constexpr int64_t kSlackNs = 10'000'000;  // 10 ms of scheduling noise
  EXPECT_LE(build_stat.max_ns, result->times.build_ns + kSlackNs);
  EXPECT_LE(probe_stat.max_ns, result->times.probe_ns + kSlackNs);

  // The critical path estimate matches the measured total to within a
  // generous factor (schedulers on oversubscribed CI hosts can distort
  // per-thread times, but not by an order of magnitude both ways).
  const int64_t critical = profile.CriticalPathNs();
  EXPECT_GT(critical, 0);
  EXPECT_LE(critical, result->times.total_ns + kSlackNs);
  EXPECT_GE(critical, result->times.total_ns / 16);

  // The run also recorded executor and phase trace spans.
  bool saw_build_span = false;
  for (const obs::Span& span : obs::TraceRecorder::Get().Snapshot()) {
    if (std::string(span.name) == "build") saw_build_span = true;
  }
  EXPECT_TRUE(saw_build_span);
}

TEST_F(ObsTest, PartitionedJoinProfilesPartitionPhases) {
  obs::Enable();
  numa::NumaSystem system(2);
  auto build = workload::MakeDenseBuild(&system, 1 << 14, /*seed=*/7);
  ASSERT_TRUE(build.ok());
  auto probe = workload::MakeProbeFromBuild(&system, 1 << 16, *build,
                                            /*seed=*/8);
  ASSERT_TRUE(probe.ok());
  join::JoinConfig config;
  config.num_threads = 2;
  auto result = join::RunJoin(join::Algorithm::kPRO, &system, config, *build,
                              *probe);
  ASSERT_TRUE(result.ok());
  const obs::PhaseProfile& profile = result->profile;
  EXPECT_GT(profile.Of(obs::JoinPhase::kPartitionPass1).threads, 0);
  EXPECT_GT(profile.Of(obs::JoinPhase::kBuild).threads, 0);
  EXPECT_GT(profile.Of(obs::JoinPhase::kProbe).threads, 0);
}

// ---------------------------------------------------------------------------
// Disabled-path overhead: a disarmed ObsScope must stay in the nanoseconds.
// ---------------------------------------------------------------------------

TEST_F(ObsTest, DisabledScopeCostIsNanoseconds) {
  ASSERT_FALSE(obs::Enabled());
  constexpr int kIters = 1'000'000;
  const int64_t start = NowNanos();
  for (int i = 0; i < kIters; ++i) {
    obs::ObsScope scope("test.overhead", obs::SpanKind::kOther);
  }
  const int64_t elapsed = NowNanos() - start;
  // A disabled scope is one relaxed load and two predicted branches --
  // single-digit nanoseconds. The bound is ~50x that so the test never
  // flakes on a loaded CI host, yet still fails instantly if the disabled
  // path ever starts allocating or recording.
  EXPECT_LT(elapsed / kIters, 250) << "avg ns per disabled ObsScope";
  EXPECT_EQ(obs::TraceRecorder::Get().Snapshot().size(), 0u);
}

TEST_F(ObsTest, AlwaysOnPhaseScopeCostIsAFewClockReads) {
  ASSERT_FALSE(obs::Enabled());
  constexpr int kIters = 200'000;
  obs::JoinPhaseProfiler profiler(1);
  const int64_t start = NowNanos();
  for (int i = 0; i < kIters; ++i) {
    obs::PhaseScope scope(profiler, 0, obs::JoinPhase::kProbe);
  }
  const int64_t elapsed = NowNanos() - start;
  // With observability off a phase scope is two clock reads and an add into
  // the thread's slot -- about 100 ns where a clock read costs 45 ns. A join
  // opens a few dozen scopes per run, so even the bound, ~10x that, stays
  // far below a millisecond per run.
  EXPECT_LT(elapsed / kIters, 1000) << "avg ns per always-on PhaseScope";
  const obs::PhaseProfile profile = profiler.Finish();
  const obs::PhaseStat& stat = profile.Of(obs::JoinPhase::kProbe);
  EXPECT_EQ(stat.threads, 1);
  EXPECT_GT(stat.total_ns, 0);
  EXPECT_LE(stat.total_ns, elapsed);
  EXPECT_FALSE(stat.counters.valid);
  EXPECT_EQ(obs::TraceRecorder::Get().Snapshot().size(), 0u);
}

}  // namespace
}  // namespace mmjoin
