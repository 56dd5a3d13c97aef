#include "core/explain.h"

#include <algorithm>
#include <cstdio>

#include "obs/phase_profile.h"
#include "util/file.h"

namespace mmjoin::core {
namespace {

std::string Ms(int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f",
                static_cast<double>(ns) / 1e6);
  return buf;
}

// Minimal right-aligned table: TablePrinter writes to a FILE*, and this
// report must land in a string for both the CLI and the identity test.
class Rows {
 public:
  explicit Rows(std::vector<std::string> headers) {
    Add(std::move(headers));
  }
  void Add(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }
  void Render(std::string* out) const {
    std::vector<size_t> width;
    for (const auto& row : rows_) {
      if (width.size() < row.size()) width.resize(row.size(), 0);
      for (size_t c = 0; c < row.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    for (const auto& row : rows_) {
      out->append("  ");
      for (size_t c = 0; c < row.size(); ++c) {
        if (c > 0) out->append("  ");
        // First column left-aligned (labels), the rest right-aligned.
        const size_t pad = width[c] - row[c].size();
        if (c == 0) {
          out->append(row[c]);
          out->append(pad, ' ');
        } else {
          out->append(pad, ' ');
          out->append(row[c]);
        }
      }
      out->push_back('\n');
    }
  }

 private:
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace

ExplainReport BuildExplainReport(
    std::string_view algorithm, const join::JoinResult& result,
    uint64_t build_size, uint64_t probe_size, int threads,
    const std::map<std::string, uint64_t>& counters_before,
    const std::map<std::string, uint64_t>& counters_after) {
  ExplainReport report;
  report.algorithm = std::string(algorithm);
  report.build_size = build_size;
  report.probe_size = probe_size;
  report.threads = threads;
  report.result = result;
  for (const auto& [name, after] : counters_after) {
    const auto it = counters_before.find(name);
    const uint64_t before = it == counters_before.end() ? 0 : it->second;
    // Monotonic counters only move up; a counter that vanished or shrank
    // (test-only resets) contributes nothing.
    if (after > before) report.counters[name] = after - before;
  }
  return report;
}

std::string FormatExplainText(const ExplainReport& report) {
  std::string out;
  out += "== EXPLAIN ANALYZE: " + report.algorithm + " ==\n";
  out += "  inputs    : |R|=" + std::to_string(report.build_size) +
         " |S|=" + std::to_string(report.probe_size) +
         " threads=" + std::to_string(report.threads) + "\n";
  out += "  result    : matches=" + std::to_string(report.result.matches) +
         " checksum=" + std::to_string(report.result.checksum) + "\n";
  const join::PhaseTimes& times = report.result.times;
  const double mtps =
      times.total_ns > 0
          ? static_cast<double>(report.build_size + report.probe_size) * 1e3 /
                static_cast<double>(times.total_ns)
          : 0.0;
  char line[160];
  std::snprintf(line, sizeof(line),
                "  wall clock: partition=%sms build=%sms probe=%sms "
                "total=%sms (%.1f Mtps)\n",
                Ms(times.partition_ns).c_str(), Ms(times.build_ns).c_str(),
                Ms(times.probe_ns).c_str(), Ms(times.total_ns).c_str(), mtps);
  out += line;

  const obs::PhaseProfile& profile = report.result.profile;
  out += "\n  -- phase breakdown (per-thread wall clock) --\n";
  Rows rows({"phase", "threads", "total ms", "mean ms", "min ms", "max ms",
             "cycles", "instrs"});
  for (int p = 0; p < obs::kNumJoinPhases; ++p) {
    const obs::PhaseStat& stat = profile.phases[p];
    if (stat.threads == 0) continue;
    rows.Add({obs::JoinPhaseName(static_cast<obs::JoinPhase>(p)),
              std::to_string(stat.threads), Ms(stat.total_ns),
              Ms(stat.MeanNs()), Ms(stat.min_ns), Ms(stat.max_ns),
              stat.counters.valid ? std::to_string(stat.counters.cycles) : "-",
              stat.counters.valid ? std::to_string(stat.counters.instructions)
                                  : "-"});
  }
  rows.Render(&out);
  out += "  critical path " + Ms(profile.CriticalPathNs()) +
         "ms (sum of slowest thread per phase) vs wall total " +
         Ms(times.total_ns) + "ms\n";

  const join::TaskStats& tasks = report.result.tasks;
  out += "\n  -- NUMA task steals: total=" +
         std::to_string(tasks.tasks_stolen) + " --\n";
  if (tasks.tasks_stolen > 0) {
    std::vector<std::string> header{"thief\\victim"};
    for (int v = 0; v < tasks.num_nodes; ++v) {
      header.push_back("n" + std::to_string(v));
    }
    Rows rows(std::move(header));
    for (int t = 0; t < tasks.num_nodes; ++t) {
      std::vector<std::string> row{"n" + std::to_string(t)};
      for (int v = 0; v < tasks.num_nodes; ++v) {
        row.push_back(std::to_string(
            tasks.steal_matrix[static_cast<size_t>(t) * tasks.num_nodes + v]));
      }
      rows.Add(std::move(row));
    }
    rows.Render(&out);
  }

  if (!report.counters.empty()) {
    out += "\n  -- counter deltas over this run --\n";
    Rows rows({"counter", "delta"});
    for (const auto& [name, delta] : report.counters) {
      rows.Add({name, std::to_string(delta)});
    }
    rows.Render(&out);
  }
  return out;
}

std::string ExplainReportJson(const ExplainReport& report) {
  std::string out = "{\"schema\":\"mmjoin.report.v1\",\"algorithm\":\"";
  out += report.algorithm;  // registry names, no escaping needed
  out += "\",\"build\":" + std::to_string(report.build_size);
  out += ",\"probe\":" + std::to_string(report.probe_size);
  out += ",\"threads\":" + std::to_string(report.threads);
  out += ",\"matches\":" + std::to_string(report.result.matches);
  out += ",\"checksum\":" + std::to_string(report.result.checksum);
  const join::PhaseTimes& times = report.result.times;
  out += ",\"times\":{\"partition_ns\":" +
         std::to_string(static_cast<uint64_t>(times.partition_ns)) +
         ",\"build_ns\":" +
         std::to_string(static_cast<uint64_t>(times.build_ns)) +
         ",\"probe_ns\":" +
         std::to_string(static_cast<uint64_t>(times.probe_ns)) +
         ",\"total_ns\":" +
         std::to_string(static_cast<uint64_t>(times.total_ns)) + "}";
  const obs::PhaseProfile& profile = report.result.profile;
  out += ",\"phases\":{";
  bool first = true;
  for (int p = 0; p < obs::kNumJoinPhases; ++p) {
    const obs::PhaseStat& stat = profile.phases[p];
    if (stat.threads == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '"';
    out += obs::JoinPhaseName(static_cast<obs::JoinPhase>(p));
    out += "\":{\"threads\":" + std::to_string(stat.threads) +
           ",\"total_ns\":" +
           std::to_string(static_cast<uint64_t>(stat.total_ns)) +
           ",\"min_ns\":" +
           std::to_string(static_cast<uint64_t>(stat.min_ns)) +
           ",\"max_ns\":" +
           std::to_string(static_cast<uint64_t>(stat.max_ns)) + "}";
  }
  out += "},\"critical_path_ns\":" +
         std::to_string(static_cast<uint64_t>(profile.CriticalPathNs()));
  const join::TaskStats& tasks = report.result.tasks;
  out += ",\"steals\":{\"nodes\":" + std::to_string(tasks.num_nodes) +
         ",\"total\":" + std::to_string(tasks.tasks_stolen) + ",\"matrix\":[";
  for (size_t i = 0; i < tasks.steal_matrix.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(tasks.steal_matrix[i]);
  }
  out += "]},\"counters\":{";
  first = true;
  for (const auto& [name, delta] : report.counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;
    out += "\":" + std::to_string(delta);
  }
  out += "}}";
  return out;
}

Status WriteExplainJson(const ExplainReport& report, const std::string& path) {
  return WriteTextFile(path, ExplainReportJson(report),
                       /*trailing_newline=*/true, "report");
}

}  // namespace mmjoin::core
