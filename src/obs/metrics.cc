#include "obs/metrics.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/log.h"
#include "util/file.h"

namespace mmjoin::obs {

MetricsRegistry& MetricsRegistry::Get() {
  // Leaked like the trace recorder: providers registered from static
  // initializers must stay callable during static destruction.
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

void MetricsRegistry::RegisterProvider(const std::string& key,
                                       Provider provider) {
  MutexLock lock(mutex_);
  providers_[key] = std::move(provider);
}

void MetricsRegistry::AddCounter(const std::string& name, uint64_t delta) {
  MutexLock lock(mutex_);
  counters_[name] += delta;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  MutexLock lock(mutex_);
  std::unique_ptr<Histogram>& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

std::vector<Metric> MetricsRegistry::Snapshot() const {
  std::vector<Metric> metrics;
  std::vector<Provider> providers;
  {
    MutexLock lock(mutex_);
    providers.reserve(providers_.size());
    for (const auto& [key, provider] : providers_) providers.push_back(provider);
    for (const auto& [name, value] : counters_) {
      metrics.push_back(Metric{name, value});
    }
  }
  // Providers run outside the lock: they may take subsystem locks of their
  // own (executor stats) that must not nest under ours.
  for (const Provider& provider : providers) provider(&metrics);
  std::sort(metrics.begin(), metrics.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return metrics;
}

std::map<std::string, uint64_t> MetricsRegistry::SnapshotMap() const {
  std::map<std::string, uint64_t> map;
  for (const Metric& metric : Snapshot()) map[metric.name] = metric.value;
  return map;
}

std::vector<NamedHistogram> MetricsRegistry::SnapshotHistograms() const {
  // Collect stable pointers under the lock, merge shards outside it:
  // histograms are never removed, so the pointers outlive the lock.
  std::vector<std::pair<std::string, const Histogram*>> live;
  {
    MutexLock lock(mutex_);
    live.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
      live.emplace_back(name, histogram.get());
    }
  }
  std::vector<NamedHistogram> out;
  out.reserve(live.size());
  for (const auto& [name, histogram] : live) {
    out.push_back(NamedHistogram{name, histogram->Snapshot()});
  }
  return out;
}

std::string MetricsRegistry::Json() const {
  const std::vector<Metric> metrics = Snapshot();
  std::string out = "{\"schema\":\"mmjoin.metrics.v1\",\"counters\":{";
  bool first = true;
  for (const Metric& metric : metrics) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += metric.name;  // names are code-controlled identifiers, no escaping
    out += "\":";
    out += std::to_string(metric.value);
  }
  out += '}';
  const std::vector<NamedHistogram> histograms = SnapshotHistograms();
  if (!histograms.empty()) {
    out += ",\"histograms\":{";
    first = true;
    for (const NamedHistogram& h : histograms) {
      if (!first) out += ',';
      first = false;
      out += '"';
      out += h.name;
      out += "\":{\"count\":";
      out += std::to_string(h.snapshot.count);
      out += ",\"sum\":";
      out += std::to_string(h.snapshot.sum);
      out += ",\"max\":";
      out += std::to_string(h.snapshot.max);
      out += ",\"p50\":";
      out += std::to_string(h.snapshot.P50());
      out += ",\"p95\":";
      out += std::to_string(h.snapshot.P95());
      out += ",\"p99\":";
      out += std::to_string(h.snapshot.P99());
      // Sparse [upper_bound, count] pairs for the non-empty buckets only;
      // counts are per-bucket, not cumulative.
      out += ",\"buckets\":[";
      bool first_bucket = true;
      for (uint32_t b = 0; b < h.snapshot.buckets.size(); ++b) {
        if (h.snapshot.buckets[b] == 0) continue;
        if (!first_bucket) out += ',';
        first_bucket = false;
        out += '[';
        out += std::to_string(Histogram::BucketUpperBound(b));
        out += ',';
        out += std::to_string(h.snapshot.buckets[b]);
        out += ']';
      }
      out += "]}";
    }
    out += '}';
  }
  out += '}';
  return out;
}

Status MetricsRegistry::WriteJson(const std::string& path) const {
  return WriteTextFile(path, Json(), /*trailing_newline=*/true, "metrics");
}

namespace {

// The trace recorder reports on itself through the same registry.
// `obs.trace_dropped_spans` is the overflow alarm (check_metrics.py warns
// when nonzero).
const MetricsProviderRegistration kTraceProvider(
    "trace", [](std::vector<Metric>* metrics) {
      TraceRecorder& recorder = TraceRecorder::Get();
      metrics->push_back(Metric{"trace.spans_recorded",
                                recorder.recorded_spans()});
      metrics->push_back(Metric{"obs.trace_dropped_spans",
                                recorder.dropped_spans()});
    });

// The structured event log (util/log.h) sits below obs in the build graph,
// so its registry hookup lives here rather than in util/.
const MetricsProviderRegistration kLogProvider(
    "log", [](std::vector<Metric>* metrics) {
      const logging::LogStats stats = logging::GetLogStats();
      metrics->push_back(Metric{
          "log.events_debug",
          stats.emitted[static_cast<int>(logging::LogLevel::kDebug)]});
      metrics->push_back(Metric{
          "log.events_info",
          stats.emitted[static_cast<int>(logging::LogLevel::kInfo)]});
      metrics->push_back(Metric{
          "log.events_warn",
          stats.emitted[static_cast<int>(logging::LogLevel::kWarn)]});
      metrics->push_back(Metric{
          "log.events_error",
          stats.emitted[static_cast<int>(logging::LogLevel::kError)]});
      metrics->push_back(Metric{"log.events_suppressed", stats.suppressed});
    });

}  // namespace

}  // namespace mmjoin::obs
