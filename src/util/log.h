// Structured, leveled event log for operational telemetry.
//
// Degradation events -- budget re-plans and spill waves, huge-page
// fallbacks, watchdog poisonings, failpoint fires -- used to go to stderr as
// ad-hoc fprintf lines. This logger gives them one shape: a level, a stable
// event name, and typed key=value fields, rendered either as a terse text
// line on stderr (the default, matching the old `[mmjoin] ...` style) or as
// JSON Lines when the MMJOIN_LOG_JSON environment variable names a sink
// ("-" or "stderr" for stderr, anything else a file path, opened append).
//
// Emission is two-stage: the event is formatted into a per-thread scratch
// buffer (no allocation after a thread's first event) and then written to
// the process sink as one line under a mutex. Log sites are degradation
// paths, not per-tuple paths, so a mutex at emission is deliberate -- the
// cheap part is the *disabled* check: MMJOIN_LOG expands to one relaxed
// atomic threshold load and a predicted branch when the level is filtered.
//
// Level threshold comes from MMJOIN_LOG_LEVEL (debug|info|warn|error|off,
// default info) and can be overridden programmatically. Suppressed and
// emitted events are counted; obs/metrics.cc exports them as the `log.*`
// counter family.
//
// Timestamps (`ts_ns` in the JSON form) are monotonic NowNanos() -- the same
// timebase as obs:: trace spans, so log events can be aligned with span
// timelines. They are not wall-clock epochs.

#ifndef MMJOIN_UTIL_LOG_H_
#define MMJOIN_UTIL_LOG_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace mmjoin::logging {

enum class LogLevel : uint8_t {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,  // threshold-only: no event carries this level
};
inline constexpr int kNumLogLevels = 4;

const char* LogLevelName(LogLevel level);  // "debug", "info", ...

// One relaxed atomic load + comparison; the MMJOIN_LOG fast path.
bool LogEnabled(LogLevel level);

void SetLogLevel(LogLevel level);

struct LogStats {
  uint64_t emitted[kNumLogLevels] = {};  // indexed by LogLevel
  uint64_t suppressed = 0;               // filtered by the threshold
};
LogStats GetLogStats();

// Builder for one event. Construct via MMJOIN_LOG (which applies the level
// filter first); fields append in call order; the destructor emits the
// completed line. One event per full-expression -- the builder borrows the
// calling thread's scratch buffer, so do not hold one across statements.
class LogEvent {
 public:
  LogEvent(LogLevel level, const char* event);
  ~LogEvent();

  LogEvent(const LogEvent&) = delete;
  LogEvent& operator=(const LogEvent&) = delete;

  LogEvent& Field(const char* key, std::string_view value);
  LogEvent& Field(const char* key, const char* value);
  LogEvent& Field(const char* key, const std::string& value);
  LogEvent& Field(const char* key, uint64_t value);
  LogEvent& Field(const char* key, int64_t value);
  LogEvent& Field(const char* key, uint32_t value);
  LogEvent& Field(const char* key, int value);
  LogEvent& Field(const char* key, double value);
  LogEvent& Field(const char* key, bool value);

 private:
  void BeginField(const char* key);

  LogLevel level_;
  std::string* buf_;  // thread-local scratch, cleared by the constructor
  bool json_;
};

// Appends `value` to `out` with JSON string escaping (quotes, backslash,
// control characters). Exposed for tests and for other JSON writers.
void AppendJsonEscaped(std::string* out, std::string_view value);

// --- Test hooks ----------------------------------------------------------
// Redirect emitted lines into `capture` (nullptr restores the real sink) and
// force the JSON/text format regardless of MMJOIN_LOG_JSON (kDefault reads
// the environment again). Tests must restore defaults before returning.
enum class LogFormat : uint8_t { kDefault, kText, kJson };
void SetLogCaptureForTest(std::string* capture);
void SetLogFormatForTest(LogFormat format);

}  // namespace mmjoin::logging

// Usage:
//   MMJOIN_LOG(kWarn, "budget.replan").Field("algo", name).Field("bits", b);
// When the level is filtered this is one relaxed load and a branch; the
// builder (and all field formatting) only exists on the emitting path.
#define MMJOIN_LOG(LEVEL, EVENT)                                            \
  if (!::mmjoin::logging::LogEnabled(::mmjoin::logging::LogLevel::LEVEL)) { \
  } else                                                                    \
    ::mmjoin::logging::LogEvent(::mmjoin::logging::LogLevel::LEVEL, EVENT)

#endif  // MMJOIN_UTIL_LOG_H_
