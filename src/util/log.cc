#include "util/log.h"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>

#include "util/timer.h"

namespace mmjoin::logging {
namespace {

// Sink + format state. Written rarely (startup / test hooks), read under the
// mutex at emission; the hot-path threshold lives in its own atomic below.
struct LogSink {
  std::mutex mutex;
  FILE* file = nullptr;         // MMJOIN_GUARDED_BY(mutex); lazily resolved
  bool file_resolved = false;   // MMJOIN_GUARDED_BY(mutex)
  bool json = false;            // MMJOIN_GUARDED_BY(mutex)
  std::string json_path;        // MMJOIN_GUARDED_BY(mutex); from MMJOIN_LOG_JSON
  std::string* capture = nullptr;  // MMJOIN_GUARDED_BY(mutex); test override
  LogFormat format_override = LogFormat::kDefault;  // MMJOIN_GUARDED_BY(mutex)
};

LogSink& Sink() {
  static LogSink* sink = new LogSink;  // leaked: log sites run at exit
  return *sink;
}

LogLevel ParseLevel(const char* text, LogLevel fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  if (std::strcmp(text, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(text, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(text, "warn") == 0) return LogLevel::kWarn;
  if (std::strcmp(text, "error") == 0) return LogLevel::kError;
  if (std::strcmp(text, "off") == 0) return LogLevel::kOff;
  return fallback;
}

uint8_t InitialLevel() {
  return static_cast<uint8_t>(
      ParseLevel(std::getenv("MMJOIN_LOG_LEVEL"), LogLevel::kInfo));
}

// The only state touched on the disabled path.
std::atomic<uint8_t>& Threshold() {
  static std::atomic<uint8_t> threshold{InitialLevel()};
  return threshold;
}

struct Counters {
  std::atomic<uint64_t> emitted[kNumLogLevels] = {};
  std::atomic<uint64_t> suppressed{0};
};

Counters& GetCounters() {
  static Counters* counters = new Counters;  // leaked
  return *counters;
}

// Scratch buffer reused by every event this thread emits.
std::string& ThreadScratch() {
  thread_local std::string scratch;
  return scratch;
}

// Resolves whether this process writes JSON lines and to where. Called and
// cached under the sink mutex.
void ResolveSinkLocked(LogSink& sink) {
  if (sink.file_resolved) return;
  sink.file_resolved = true;
  sink.file = stderr;
  const char* env = std::getenv("MMJOIN_LOG_JSON");
  if (env != nullptr && *env != '\0') {
    sink.json = true;
    if (std::strcmp(env, "-") != 0 && std::strcmp(env, "stderr") != 0) {
      sink.json_path = env;
      FILE* f = std::fopen(env, "a");
      if (f != nullptr) {
        sink.file = f;
      } else {
        std::fprintf(stderr, "[mmjoin] log: cannot open MMJOIN_LOG_JSON=%s; using stderr\n",
                     env);
      }
    }
  }
}

bool JsonFormatLocked(LogSink& sink) {
  switch (sink.format_override) {
    case LogFormat::kText:
      return false;
    case LogFormat::kJson:
      return true;
    case LogFormat::kDefault:
      break;
  }
  ResolveSinkLocked(sink);
  return sink.json;
}

void AppendU64(std::string* out, uint64_t value) {
  char digits[24];
  const int n = std::snprintf(digits, sizeof(digits), "%llu",
                              static_cast<unsigned long long>(value));
  out->append(digits, static_cast<size_t>(n));
}

void AppendI64(std::string* out, int64_t value) {
  char digits[24];
  const int n = std::snprintf(digits, sizeof(digits), "%lld",
                              static_cast<long long>(value));
  out->append(digits, static_cast<size_t>(n));
}

void AppendF64(std::string* out, double value) {
  char digits[48];
  const int n = std::snprintf(digits, sizeof(digits), "%.6g", value);
  out->append(digits, static_cast<size_t>(n));
}

}  // namespace

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

bool LogEnabled(LogLevel level) {
  const uint8_t threshold = Threshold().load(std::memory_order_relaxed);
  if (static_cast<uint8_t>(level) >= threshold) return true;
  GetCounters().suppressed.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SetLogLevel(LogLevel level) {
  Threshold().store(static_cast<uint8_t>(level), std::memory_order_relaxed);
}

LogStats GetLogStats() {
  Counters& counters = GetCounters();
  LogStats stats;
  for (int i = 0; i < kNumLogLevels; ++i) {
    stats.emitted[i] = counters.emitted[i].load(std::memory_order_relaxed);
  }
  stats.suppressed = counters.suppressed.load(std::memory_order_relaxed);
  return stats;
}

void AppendJsonEscaped(std::string* out, std::string_view value) {
  for (const char c : value) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char hex[8];
          std::snprintf(hex, sizeof(hex), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out->append(hex);
        } else {
          out->push_back(c);
        }
    }
  }
}

LogEvent::LogEvent(LogLevel level, const char* event) : level_(level) {
  buf_ = &ThreadScratch();
  buf_->clear();
  {
    LogSink& sink = Sink();
    std::lock_guard<std::mutex> lock(sink.mutex);
    json_ = JsonFormatLocked(sink);
  }
  if (json_) {
    buf_->append("{\"ts_ns\":");
    AppendU64(buf_, static_cast<uint64_t>(NowNanos()));
    buf_->append(",\"level\":\"");
    buf_->append(LogLevelName(level_));
    buf_->append("\",\"event\":\"");
    AppendJsonEscaped(buf_, event);
    buf_->push_back('"');
  } else {
    buf_->append("[mmjoin] ");
    // Single-letter level tag keeps the text lines greppable and narrow.
    buf_->push_back(
        static_cast<char>(std::toupper(LogLevelName(level_)[0])));
    buf_->push_back(' ');
    buf_->append(event);
  }
}

void LogEvent::BeginField(const char* key) {
  if (json_) {
    buf_->append(",\"");
    AppendJsonEscaped(buf_, key);
    buf_->append("\":");
  } else {
    buf_->push_back(' ');
    buf_->append(key);
    buf_->push_back('=');
  }
}

LogEvent& LogEvent::Field(const char* key, std::string_view value) {
  BeginField(key);
  if (json_) {
    buf_->push_back('"');
    AppendJsonEscaped(buf_, value);
    buf_->push_back('"');
  } else {
    buf_->append(value);
  }
  return *this;
}

LogEvent& LogEvent::Field(const char* key, const char* value) {
  return Field(key, std::string_view(value));
}

LogEvent& LogEvent::Field(const char* key, const std::string& value) {
  return Field(key, std::string_view(value));
}

LogEvent& LogEvent::Field(const char* key, uint64_t value) {
  BeginField(key);
  AppendU64(buf_, value);
  return *this;
}

LogEvent& LogEvent::Field(const char* key, int64_t value) {
  BeginField(key);
  AppendI64(buf_, value);
  return *this;
}

LogEvent& LogEvent::Field(const char* key, uint32_t value) {
  return Field(key, static_cast<uint64_t>(value));
}

LogEvent& LogEvent::Field(const char* key, int value) {
  return Field(key, static_cast<int64_t>(value));
}

LogEvent& LogEvent::Field(const char* key, double value) {
  BeginField(key);
  AppendF64(buf_, value);
  return *this;
}

LogEvent& LogEvent::Field(const char* key, bool value) {
  BeginField(key);
  buf_->append(value ? "true" : "false");
  return *this;
}

LogEvent::~LogEvent() {
  if (json_) buf_->push_back('}');
  buf_->push_back('\n');
  GetCounters()
      .emitted[static_cast<int>(level_)]
      .fetch_add(1, std::memory_order_relaxed);
  LogSink& sink = Sink();
  std::lock_guard<std::mutex> lock(sink.mutex);
  if (sink.capture != nullptr) {
    sink.capture->append(*buf_);
    return;
  }
  ResolveSinkLocked(sink);
  std::fwrite(buf_->data(), 1, buf_->size(), sink.file);
  std::fflush(sink.file);
}

void SetLogCaptureForTest(std::string* capture) {
  LogSink& sink = Sink();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.capture = capture;
}

void SetLogFormatForTest(LogFormat format) {
  LogSink& sink = Sink();
  std::lock_guard<std::mutex> lock(sink.mutex);
  sink.format_override = format;
}

}  // namespace mmjoin::logging
