// What the benchmark binary hands to run.py: raw samples and scalar values
// keyed by metric name, the count of timed operations and of those that
// failed or returned a wrong result, and the spans of the traced run.
//
// The binary only measures and checks; every reduction (median, geometric
// mean, percentile, rates) happens in perfbench/stats.py, where it is
// self-tested.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/timer.h"

namespace perfbench {

// Thread-safe: the service clients record from their own threads.
class Report {
 public:
  // Appends one sample to the list run.py reduces (median or percentile).
  void Sample(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    samples_[name].push_back(value);
  }
  void Set(const std::string& name, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] = value;
  }
  // Adds to a value that starts at 0 (totals over several passes).
  void Add(const std::string& name, double delta) {
    std::lock_guard<std::mutex> lock(mutex_);
    values_[name] += delta;
  }
  void SetEnv(const std::string& key, const std::string& value) {
    std::lock_guard<std::mutex> lock(mutex_);
    env_[key] = value;
  }
  // One timed operation; `ok` is false when it failed, was rejected, or
  // returned a result other than the expected one.
  void CountOp(bool ok) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++attempted_;
    if (!ok) ++failed_;
  }
  uint64_t attempted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
  }
  uint64_t failed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }

  std::string Json() const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string out = "{\"attempted\":" + std::to_string(attempted_) +
                      ",\"failed\":" + std::to_string(failed_) + ",\"env\":{";
    const char* sep = "";
    for (const auto& [key, value] : env_) {
      out += sep + Quote(key) + ":" + Quote(value);
      sep = ",";
    }
    out += "},\"values\":{";
    sep = "";
    for (const auto& [name, value] : values_) {
      out += sep + Quote(name) + ":" + Number(value);
      sep = ",";
    }
    out += "},\"samples\":{";
    sep = "";
    for (const auto& [name, list] : samples_) {
      out += sep + Quote(name) + ":[";
      const char* inner = "";
      for (const double value : list) {
        out += inner + Number(value);
        inner = ",";
      }
      out += "]";
      sep = ",";
    }
    return out + "}}";
  }

  static std::string Quote(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }
  static std::string Number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
  }

 private:
  mutable std::mutex mutex_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::map<std::string, std::string> env_;
  std::map<std::string, double> values_;
  std::map<std::string, std::vector<double>> samples_;
};

// Spans the traced run records around each call into a layer: name, start,
// end, and the span that caused it. Kept in memory and written once, at
// exit. A null SpanLog (the untraced run) makes every Scope a no-op.
class SpanLog {
 public:
  static constexpr int64_t kInheritParent = -2;

  class Scope {
   public:
    // `parent` defaults to the innermost open span of the calling thread;
    // threads that serve a span opened elsewhere pass its id.
    Scope(SpanLog* log, std::string name, int64_t parent = kInheritParent)
        : log_(log) {
      if (log_ == nullptr) return;
      saved_current_ = current_;
      id_ = log_->Open(std::move(name),
                       parent == kInheritParent ? current_ : parent);
      current_ = id_;
    }
    ~Scope() {
      if (log_ == nullptr) return;
      log_->Close(id_);
      current_ = saved_current_;
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t id() const { return id_; }

   private:
    SpanLog* log_;
    int64_t id_ = -1;
    int64_t saved_current_ = -1;
  };

  bool WriteJson(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(file, "{\"spans\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      std::fprintf(file,
                   "{\"id\":%zu,\"parent\":%lld,\"name\":%s,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}%s\n",
                   i, static_cast<long long>(span.parent),
                   Report::Quote(span.name).c_str(),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
  }

 private:
  struct Span {
    std::string name;
    int64_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  int64_t Open(std::string name, int64_t parent) {
    const int64_t now = mmjoin::NowNanos();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), parent, now, 0});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) {
    const int64_t now = mmjoin::NowNanos();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }

  static inline thread_local int64_t current_ = -1;

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
