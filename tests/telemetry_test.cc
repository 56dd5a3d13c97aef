// Telemetry tests: histogram bucket layout and quantile accuracy, concurrent
// recording (the TSan job runs this binary), OpenMetrics exposition
// round-trips, the structured event log (level filtering, JSON escaping),
// the EXPLAIN ANALYZE report identity against PhaseProfile, and a raw-socket
// round-trip through the stats server.
//
// The log and metrics registries are process-global; every test that touches
// them restores defaults before returning (TelemetryTest fixture).

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/explain.h"
#include "join/join_algorithm.h"
#include "numa/system.h"
#include "obs/exposition.h"
#include "obs/histogram.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/phase_profile.h"
#include "obs/stats_server.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/log_events.h"
#include "workload/generator.h"

#ifdef __linux__
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace mmjoin {
namespace {

// Minimal RFC 8259 validator (same approach as obs_test.cc): enough to prove
// a writer emits loadable JSON without a parser dependency.
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
    ++pos_;
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
    ++pos_;
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
        return false;
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

class TelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    obs::Disable();
    obs::TraceRecorder::Get().Clear();
    logging::SetLogCaptureForTest(nullptr);
    logging::SetLogFormatForTest(logging::LogFormat::kDefault);
    logging::SetLogLevel(logging::LogLevel::kInfo);
  }
};

// ---------------------------------------------------------------------------
// Histogram bucket layout
// ---------------------------------------------------------------------------

TEST(Histogram, ValuesBelow16AreExact) {
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::Histogram::BucketIndex(v), v);
    EXPECT_EQ(obs::Histogram::BucketUpperBound(static_cast<uint32_t>(v)), v);
  }
}

TEST(Histogram, BucketIndexRoundTripsThroughUpperBound) {
  // A value must be <= the upper bound of its own bucket and > the upper
  // bound of the previous one; sample across the full uint64 range.
  std::vector<uint64_t> values;
  for (uint64_t v = 1; v < 4096; ++v) values.push_back(v);
  for (int shift = 12; shift < 64; ++shift) {
    const uint64_t base = uint64_t{1} << shift;
    values.push_back(base - 1);
    values.push_back(base);
    values.push_back(base + base / 3);
    values.push_back(base + base / 2 + 1);
  }
  values.push_back(~uint64_t{0});
  for (const uint64_t v : values) {
    const uint32_t index = obs::Histogram::BucketIndex(v);
    ASSERT_LT(index, obs::Histogram::kNumBuckets) << "value " << v;
    EXPECT_LE(v, obs::Histogram::BucketUpperBound(index)) << "value " << v;
    if (index > 0) {
      EXPECT_GT(v, obs::Histogram::BucketUpperBound(index - 1))
          << "value " << v;
    }
  }
}

TEST(Histogram, BucketUpperBoundsAreStrictlyMonotone) {
  uint64_t prev = obs::Histogram::BucketUpperBound(0);
  for (uint32_t i = 1; i < obs::Histogram::kNumBuckets; ++i) {
    const uint64_t bound = obs::Histogram::BucketUpperBound(i);
    ASSERT_GT(bound, prev) << "bucket " << i;
    prev = bound;
  }
  // The last bucket covers the top of the range.
  EXPECT_EQ(obs::Histogram::BucketIndex(~uint64_t{0}),
            obs::Histogram::kNumBuckets - 1);
}

TEST(Histogram, QuantilesMatchSortedReferenceWithin1Over16) {
  obs::Histogram hist;
  std::vector<uint64_t> reference;
  // Deterministic skewed values spanning several decades (xorshift).
  uint64_t state = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const uint64_t value = (state % 1'000'000) + 16;  // >= 16: log range
    hist.Record(value);
    reference.push_back(value);
  }
  std::sort(reference.begin(), reference.end());
  const obs::HistogramSnapshot snap = hist.Snapshot();
  ASSERT_EQ(snap.count, reference.size());
  for (const double q : {0.01, 0.10, 0.50, 0.90, 0.95, 0.99, 1.0}) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * reference.size())));
    const uint64_t exact = reference[rank - 1];
    const uint64_t approx = snap.ValueAtQuantile(q);
    // ValueAtQuantile reports the bucket's inclusive upper bound: never
    // below the true value, and at most 1/16 above it.
    EXPECT_GE(approx, exact) << "q=" << q;
    EXPECT_LE(approx, exact + exact / 16) << "q=" << q;
  }
  EXPECT_EQ(snap.max, reference.back());
}

TEST(Histogram, EmptySnapshotIsZero) {
  obs::Histogram hist;
  const obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.sum, 0u);
  EXPECT_EQ(snap.max, 0u);
  EXPECT_EQ(snap.ValueAtQuantile(0.5), 0u);
}

TEST(Histogram, ConcurrentRecordAndSnapshotMerge) {
  obs::Histogram hist;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&hist, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        hist.Record(i % 1000 + static_cast<uint64_t>(t));
      }
    });
  }
  // Torn snapshots while recording must stay internally consistent
  // (count never exceeds the final total; TSan checks the memory orders).
  for (int i = 0; i < 50; ++i) {
    const obs::HistogramSnapshot snap = hist.Snapshot();
    EXPECT_LE(snap.count, kThreads * kPerThread);
  }
  for (std::thread& worker : workers) worker.join();

  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 0; i < kPerThread; ++i) {
      expected_sum += i % 1000 + static_cast<uint64_t>(t);
    }
  }
  const obs::HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, kThreads * kPerThread);
  EXPECT_EQ(snap.sum, expected_sum);
  EXPECT_EQ(snap.max, 999u + kThreads - 1);
}

// ---------------------------------------------------------------------------
// Metric-name and log-event registries
// ---------------------------------------------------------------------------

// Every counter the process actually exports must be a registered name (or
// live in the test.* namespace, reserved for ad-hoc metrics in tests). The
// registry itself is cross-checked against src/ literals and the docs tables
// by scripts/mmjoin_lint; this test closes the loop on the runtime side for
// every provider linked into this binary.
TEST(MetricNames, SnapshotExportsOnlyRegisteredCounters) {
  for (const obs::Metric& metric : obs::MetricsRegistry::Get().Snapshot()) {
    if (metric.name.rfind("test.", 0) == 0) continue;
    EXPECT_TRUE(obs::IsRegisteredCounterName(metric.name)) << metric.name;
  }
}

TEST(MetricNames, RegisteredHistogramsOnly) {
  for (const obs::NamedHistogram& hist :
       obs::MetricsRegistry::Get().SnapshotHistograms()) {
    if (hist.name.rfind("test.", 0) == 0) continue;
    EXPECT_TRUE(obs::IsRegisteredHistogramName(hist.name)) << hist.name;
  }
  EXPECT_TRUE(obs::IsRegisteredHistogramName("join.latency_ns"));
  EXPECT_FALSE(obs::IsRegisteredHistogramName("join.latency"));
}

TEST(LogEvents, RegistryLookupsAndNoDuplicates) {
  EXPECT_TRUE(logging::IsRegisteredEventName("budget.replan"));
  EXPECT_TRUE(logging::IsRegisteredEventName("failpoint.unknown_name"));
  EXPECT_FALSE(logging::IsRegisteredEventName("budget.replans"));
  std::vector<std::string_view> names(std::begin(logging::kRegisteredEventNames),
                                      std::end(logging::kRegisteredEventNames));
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "duplicate log event name in registry";
}

// ---------------------------------------------------------------------------
// OpenMetrics exposition
// ---------------------------------------------------------------------------

TEST(Exposition, SanitizeMetricName) {
  EXPECT_EQ(obs::SanitizeMetricName("join.latency_ns"),
            "mmjoin_join_latency_ns");
  EXPECT_EQ(obs::SanitizeMetricName("a-b c%d"), "mmjoin_a_b_c_d");
  EXPECT_EQ(obs::SanitizeMetricName("already_ok:name"),
            "mmjoin_already_ok:name");
}

// Pulls the `le` -> cumulative-count samples of one histogram family plus
// its _sum/_count out of an exposition text.
struct ParsedFamily {
  std::vector<std::pair<double, uint64_t>> buckets;  // le, cumulative
  uint64_t sum = 0;
  uint64_t count = 0;
  bool saw_type_line = false;
};

ParsedFamily ParseHistogramFamily(const std::string& text,
                                  const std::string& family) {
  ParsedFamily parsed;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line == "# TYPE " + family + " histogram") {
      parsed.saw_type_line = true;
    } else if (line.rfind(family + "_bucket{le=\"", 0) == 0) {
      const size_t le_start = line.find('"') + 1;
      const size_t le_end = line.find('"', le_start);
      const std::string le = line.substr(le_start, le_end - le_start);
      const uint64_t value =
          std::strtoull(line.c_str() + line.rfind(' ') + 1, nullptr, 10);
      parsed.buckets.emplace_back(
          le == "+Inf" ? std::numeric_limits<double>::infinity()
                       : std::strtod(le.c_str(), nullptr),
          value);
    } else if (line.rfind(family + "_sum ", 0) == 0) {
      parsed.sum = std::strtoull(line.c_str() + family.size() + 5, nullptr, 10);
    } else if (line.rfind(family + "_count ", 0) == 0) {
      parsed.count =
          std::strtoull(line.c_str() + family.size() + 7, nullptr, 10);
    }
  }
  return parsed;
}

TEST_F(TelemetryTest, ExpositionRoundTripsAHistogramFamily) {
  obs::Histogram* hist =
      obs::MetricsRegistry::Get().GetHistogram("test.expo_hist");
  const std::vector<uint64_t> values = {3, 17, 17, 250, 4096, 70000};
  uint64_t expected_sum = 0;
  for (const uint64_t v : values) {
    hist->Record(v);
    expected_sum += v;
  }

  const std::string text = obs::WriteExposition();
  // OpenMetrics terminator, as the final line.
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

  const ParsedFamily parsed =
      ParseHistogramFamily(text, "mmjoin_test_expo_hist");
  EXPECT_TRUE(parsed.saw_type_line);
  ASSERT_GE(parsed.buckets.size(), 2u);  // >= one boundary + +Inf
  // Cumulative counts must be monotone in `le`, ending at +Inf == _count.
  for (size_t i = 1; i < parsed.buckets.size(); ++i) {
    EXPECT_GT(parsed.buckets[i].first, parsed.buckets[i - 1].first);
    EXPECT_GE(parsed.buckets[i].second, parsed.buckets[i - 1].second);
  }
  EXPECT_TRUE(std::isinf(parsed.buckets.back().first));
  EXPECT_EQ(parsed.buckets.back().second, values.size());
  EXPECT_EQ(parsed.count, values.size());
  EXPECT_EQ(parsed.sum, expected_sum);

  // A p50 derived from the cumulative buckets must bracket the true median
  // (17) the same way ValueAtQuantile does: first le with cumulative count
  // >= count/2.
  const uint64_t rank = (values.size() + 1) / 2;
  double derived_p50 = 0;
  for (const auto& [le, cumulative] : parsed.buckets) {
    if (cumulative >= rank) {
      derived_p50 = le;
      break;
    }
  }
  EXPECT_GE(derived_p50, 17.0);
  EXPECT_LE(derived_p50, 17.0 * (1.0 + 1.0 / 16));
}

TEST_F(TelemetryTest, ExpositionCountersCarryTotalSuffix) {
  obs::MetricsRegistry::Get().AddCounter("test.expo_counter", 7);
  const std::string text = obs::WriteExposition();
  EXPECT_NE(text.find("# TYPE mmjoin_test_expo_counter counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("\nmmjoin_test_expo_counter_total "), std::string::npos);
}

TEST_F(TelemetryTest, MetricsJsonHistogramSectionIsValid) {
  obs::MetricsRegistry::Get().GetHistogram("test.json_hist")->Record(42);
  const std::string json = obs::MetricsRegistry::Get().Json();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"test.json_hist\":{"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured event log
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, LogLevelFiltersAndCountsSuppressed) {
  std::string capture;
  logging::SetLogCaptureForTest(&capture);
  logging::SetLogFormatForTest(logging::LogFormat::kText);
  logging::SetLogLevel(logging::LogLevel::kWarn);
  const logging::LogStats before = logging::GetLogStats();

  MMJOIN_LOG(kDebug, "test.filtered_debug").Field("x", 1);
  MMJOIN_LOG(kInfo, "test.filtered_info").Field("x", 2);
  MMJOIN_LOG(kWarn, "test.emitted_warn").Field("x", 3);
  MMJOIN_LOG(kError, "test.emitted_error").Field("x", 4);

  const logging::LogStats after = logging::GetLogStats();
  EXPECT_EQ(capture.find("test.filtered_debug"), std::string::npos);
  EXPECT_EQ(capture.find("test.filtered_info"), std::string::npos);
  EXPECT_NE(capture.find("test.emitted_warn"), std::string::npos);
  EXPECT_NE(capture.find("test.emitted_error"), std::string::npos);
  EXPECT_NE(capture.find("x=3"), std::string::npos);
  EXPECT_EQ(after.suppressed - before.suppressed, 2u);
  EXPECT_EQ(after.emitted[2] - before.emitted[2], 1u);  // warn
  EXPECT_EQ(after.emitted[3] - before.emitted[3], 1u);  // error
}

TEST_F(TelemetryTest, LogJsonLinesAreValidAndEscaped) {
  std::string capture;
  logging::SetLogCaptureForTest(&capture);
  logging::SetLogFormatForTest(logging::LogFormat::kJson);
  logging::SetLogLevel(logging::LogLevel::kInfo);

  MMJOIN_LOG(kWarn, "test.json_event")
      .Field("path", "a\"b\\c\nd\te")
      .Field("count", uint64_t{12})
      .Field("ratio", 0.5)
      .Field("flag", true);

  ASSERT_FALSE(capture.empty());
  ASSERT_EQ(capture.back(), '\n');
  const std::string line = capture.substr(0, capture.size() - 1);
  EXPECT_TRUE(JsonValidator(line).Valid()) << line;
  EXPECT_NE(line.find("\"event\":\"test.json_event\""), std::string::npos);
  EXPECT_NE(line.find("\"level\":\"warn\""), std::string::npos);
  EXPECT_NE(line.find("\"ts_ns\":"), std::string::npos);
  EXPECT_NE(line.find("a\\\"b\\\\c\\nd\\te"), std::string::npos);
  EXPECT_NE(line.find("\"count\":12"), std::string::npos);
  EXPECT_NE(line.find("\"flag\":true"), std::string::npos);
}

TEST(LogEscaping, ControlCharactersBecomeUnicodeEscapes) {
  std::string out;
  logging::AppendJsonEscaped(&out, std::string_view("\x01\x1f ok", 5));
  EXPECT_EQ(out, "\\u0001\\u001f ok");
}

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE report
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ExplainReportMatchesPhaseProfileExactly) {
  obs::Enable();
  numa::NumaSystem system(2);
  auto build = workload::MakeDenseBuild(&system, 1 << 14, /*seed=*/21);
  ASSERT_TRUE(build.ok());
  auto probe = workload::MakeProbeFromBuild(&system, 1 << 16, *build,
                                            /*seed=*/22);
  ASSERT_TRUE(probe.ok());

  const std::map<std::string, uint64_t> before =
      obs::MetricsRegistry::Get().SnapshotMap();
  join::JoinConfig config;
  config.num_threads = 2;
  auto result = join::RunJoin(join::Algorithm::kPRO, &system, config, *build,
                              *probe);
  ASSERT_TRUE(result.ok());

  const core::ExplainReport report = core::BuildExplainReport(
      "PRO", *result, 1 << 14, 1 << 16, config.num_threads, before,
      obs::MetricsRegistry::Get().SnapshotMap());

  // Steal matrix is nodes x nodes and sums to the reported total.
  const join::TaskStats& tasks = report.result.tasks;
  EXPECT_EQ(tasks.num_nodes, system.topology().num_nodes());
  ASSERT_EQ(tasks.steal_matrix.size(),
            static_cast<size_t>(tasks.num_nodes) * tasks.num_nodes);
  uint64_t matrix_total = 0;
  for (const uint64_t cell : tasks.steal_matrix) matrix_total += cell;
  EXPECT_EQ(matrix_total, tasks.tasks_stolen);

  const std::string json = core::ExplainReportJson(report);
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"schema\":\"mmjoin.report.v1\""), std::string::npos);

  // Identity: every per-phase ns total in the report JSON is the
  // PhaseProfile sum, verbatim.
  const obs::PhaseProfile& profile = result->profile;
  int phases_checked = 0;
  for (int p = 0; p < obs::kNumJoinPhases; ++p) {
    const obs::PhaseStat& stat = profile.phases[p];
    if (stat.threads == 0) continue;
    const std::string expected =
        std::string("\"") +
        obs::JoinPhaseName(static_cast<obs::JoinPhase>(p)) +
        "\":{\"threads\":" + std::to_string(stat.threads) +
        ",\"total_ns\":" + std::to_string(stat.total_ns);
    EXPECT_NE(json.find(expected), std::string::npos) << expected;
    ++phases_checked;
  }
  EXPECT_GT(phases_checked, 0);
  const std::string critical = "\"critical_path_ns\":" +
                               std::to_string(profile.CriticalPathNs());
  EXPECT_NE(json.find(critical), std::string::npos);

  // The human-readable rendering names the report and each active phase.
  const std::string text = core::FormatExplainText(report);
  EXPECT_NE(text.find("== EXPLAIN ANALYZE: PRO =="), std::string::npos);
  EXPECT_NE(text.find("partition.pass1"), std::string::npos);
  EXPECT_NE(text.find("critical path"), std::string::npos);

  // The latency histogram accrued this run.
  const obs::HistogramSnapshot latency =
      obs::MetricsRegistry::Get().GetHistogram("join.latency_ns")->Snapshot();
  EXPECT_GT(latency.count, 0u);
}

TEST_F(TelemetryTest, ExplainCounterDeltasDropNonIncreasingEntries) {
  join::JoinResult result;
  const std::map<std::string, uint64_t> before = {{"a", 5}, {"b", 3},
                                                  {"gone", 9}};
  const std::map<std::string, uint64_t> after = {{"a", 8}, {"b", 3},
                                                 {"new", 2}};
  const core::ExplainReport report = core::BuildExplainReport(
      "X", result, 0, 0, 1, before, after);
  ASSERT_EQ(report.counters.size(), 2u);
  EXPECT_EQ(report.counters.at("a"), 3u);
  EXPECT_EQ(report.counters.at("new"), 2u);
}

// ---------------------------------------------------------------------------
// Trace metadata
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, ChromeTraceCarriesDropMetadata) {
  obs::Enable();
  { obs::ObsScope scope("test.span", obs::SpanKind::kOther); }
  const std::string json = obs::TraceRecorder::Get().ChromeTraceJson();
  EXPECT_TRUE(JsonValidator(json).Valid()) << json;
  EXPECT_NE(json.find("\"metadata\""), std::string::npos);
  EXPECT_NE(json.find("\"recorded_spans\":"), std::string::npos);
  EXPECT_NE(json.find("\"dropped_spans\":"), std::string::npos);
}

TEST_F(TelemetryTest, TraceDropCounterIsExported) {
  const std::map<std::string, uint64_t> snapshot =
      obs::MetricsRegistry::Get().SnapshotMap();
  EXPECT_NE(snapshot.find("obs.trace_dropped_spans"), snapshot.end());
}

// ---------------------------------------------------------------------------
// Stats server (Linux only)
// ---------------------------------------------------------------------------

#ifdef __linux__
std::string HttpGet(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(TelemetryTest, StatsServerServesExpositionAndJson) {
  obs::MetricsRegistry::Get().GetHistogram("test.server_hist")->Record(100);
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0).ok());  // ephemeral port
  ASSERT_GT(server.port(), 0);
  ASSERT_TRUE(server.running());

  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("application/openmetrics-text"), std::string::npos);
  EXPECT_NE(metrics.find("mmjoin_test_server_hist_count"), std::string::npos);
  EXPECT_NE(metrics.find("# EOF"), std::string::npos);

  const std::string json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(json.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(json.find("mmjoin.metrics.v1"), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
  // Stop is idempotent; a second server can bind afterwards.
  server.Stop();
  obs::StatsServer second;
  EXPECT_TRUE(second.Start(0).ok());
  second.Stop();
}

TEST_F(TelemetryTest, StatsServerRejectsDoubleStart) {
  obs::StatsServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.Start(0).ok());
  server.Stop();
}

// Regression: the accept loop serves one client at a time with blocking
// read/write, so a client that connects and never sends a request used to
// wedge the endpoint (and Stop()) until the peer went away. With the
// per-client SO_RCVTIMEO/SO_SNDTIMEO deadline, an idle connection times
// out and the next scrape is served normally.
TEST_F(TelemetryTest, StatsServerSurvivesIdleClient) {
  obs::StatsServer server;
  server.set_client_io_timeout_ms(200);
  ASSERT_TRUE(server.Start(0).ok());

  // Connect and send nothing: the server's read() on this socket must time
  // out instead of blocking forever.
  const int idle_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(idle_fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(
      ::connect(idle_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // A well-behaved scrape right behind the idle client must still get its
  // response (after at most the idle client's timeout).
  const std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# EOF"), std::string::npos);

  // And Stop() must return promptly even with the idle connection open.
  server.Stop();
  EXPECT_FALSE(server.running());
  ::close(idle_fd);
}
#endif  // __linux__

}  // namespace
}  // namespace mmjoin
