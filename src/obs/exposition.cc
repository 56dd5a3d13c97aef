#include "obs/exposition.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/histogram.h"
#include "obs/metrics.h"
#include "util/file.h"

namespace mmjoin::obs {
namespace {

bool PrometheusNameChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == ':';
}

}  // namespace

std::string SanitizeMetricName(std::string_view name) {
  std::string out = "mmjoin_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    out.push_back(PrometheusNameChar(c) ? c : '_');
  }
  return out;
}

std::string WriteExposition() {
  const MetricsRegistry& registry = MetricsRegistry::Get();
  std::string out;
  out.reserve(4096);

  for (const Metric& metric : registry.Snapshot()) {
    const std::string name = SanitizeMetricName(metric.name);
    out += "# TYPE ";
    out += name;
    out += " counter\n";
    out += name;
    out += "_total ";
    out += std::to_string(metric.value);
    out += '\n';
  }

  for (const NamedHistogram& h : registry.SnapshotHistograms()) {
    const std::string name = SanitizeMetricName(h.name);
    out += "# TYPE ";
    out += name;
    out += " histogram\n";
    uint64_t cumulative = 0;
    for (uint32_t b = 0; b < h.snapshot.buckets.size(); ++b) {
      if (h.snapshot.buckets[b] == 0) continue;
      cumulative += h.snapshot.buckets[b];
      out += name;
      out += "_bucket{le=\"";
      out += std::to_string(Histogram::BucketUpperBound(b));
      out += "\"} ";
      out += std::to_string(cumulative);
      out += '\n';
    }
    out += name;
    out += "_bucket{le=\"+Inf\"} ";
    out += std::to_string(h.snapshot.count);
    out += '\n';
    out += name;
    out += "_sum ";
    out += std::to_string(h.snapshot.sum);
    out += '\n';
    out += name;
    out += "_count ";
    out += std::to_string(h.snapshot.count);
    out += '\n';
  }

  out += "# EOF\n";
  return out;
}

Status WriteExpositionFile(const std::string& path) {
  const std::string text = WriteExposition();
  if (path.empty() || path == "-" || path == "stderr") {
    std::fwrite(text.data(), 1, text.size(), stderr);
    std::fflush(stderr);
    return OkStatus();
  }
  return WriteTextFile(path, text, /*trailing_newline=*/false, "exposition");
}

}  // namespace mmjoin::obs
