// Whitebox tracing: per-thread span recording for the paper's phase-level
// analysis (Section 5, Figure 3).
//
// A span is a named [start, end) interval recorded by one thread. Spans land
// in per-thread ring buffers (no locks, no allocation on the hot path once a
// thread's buffer exists) and are exported as Chrome trace-event JSON, which
// loads directly in Perfetto / chrome://tracing.
//
// Recording is off by default. A disabled ObsScope costs one relaxed atomic
// load and a predicted branch in the constructor and one branch in the
// destructor -- the same pattern as util/failpoint.h -- so instrumentation
// can stay compiled into every phase of every join without a measurable tax
// on timed runs.

#ifndef MMJOIN_OBS_TRACE_H_
#define MMJOIN_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/annotations.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/timer.h"

namespace mmjoin::obs {

// Span taxonomy. The category groups spans in trace viewers; the span *name*
// carries the fine distinction (e.g. "partition.pass1" vs "partition.pass2",
// both kPartition).
enum class SpanKind : uint8_t {
  kPartition,
  kBuild,
  kProbe,
  kSort,
  kMerge,
  kMaterialize,
  kDispatch,  // executor: a worker executing a dispatched closure
  kBarrier,   // executor: waiting on the team barrier
  kIdle,      // executor: worker parked between dispatches
  kRun,       // whole-join umbrella spans (core::Joiner)
  kOther,
};

const char* SpanKindName(SpanKind kind);

struct Span {
  const char* name;  // must point at storage with static lifetime
  SpanKind kind;
  int tid;           // logical thread id (see SetCurrentThreadId)
  int64_t start_ns;
  int64_t end_ns;
};

// Logical id of the calling thread as recorded in spans. Executor workers set
// this to their stable pool thread-id; unlabeled threads get a unique id
// >= kUnlabeledThreadIdBase on first use.
inline constexpr int kUnlabeledThreadIdBase = 1000;
int CurrentThreadId();
void SetCurrentThreadId(int tid);

class TraceRecorder {
 public:
  // Spans a single thread can hold before further records are dropped
  // (counted, never blocking).
  static constexpr std::size_t kSpansPerThread = std::size_t{1} << 15;

  static TraceRecorder& Get();

  // The observability switch. It gates what observability adds on top of
  // the always-on timing: trace spans (ObsScope, join phases, executor
  // barrier/idle waits) and the hardware counters of join phase profiles.
  // Phase wall clocks and the executor's barrier/idle accounting do not
  // depend on it.
  static bool Enabled() {
    return Get().enabled_.load(std::memory_order_relaxed);
  }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // Appends a span for the calling thread. Lock-free after the thread's
  // first record (which registers its buffer under a mutex). Safe to call
  // concurrently from any number of threads.
  void Record(const char* name, SpanKind kind, int64_t start_ns,
              int64_t end_ns);

  // Stable copy of every span recorded so far, ordered by (tid, start).
  // Intended for quiescent points (after a join / at harness exit); spans
  // recorded concurrently with the snapshot may or may not be included.
  std::vector<Span> Snapshot() const;

  // Drops all recorded spans (buffers stay registered). Test/harness helper.
  void Clear();

  uint64_t recorded_spans() const;
  uint64_t dropped_spans() const;

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps);
  // loads in Perfetto and chrome://tracing.
  std::string ChromeTraceJson() const;
  Status WriteChromeTrace(const std::string& path) const;

 private:
  struct ThreadBuffer {
    std::vector<Span> spans;          // preallocated to kSpansPerThread
    std::atomic<std::size_t> count{0};
    std::atomic<uint64_t> dropped{0};
  };

  TraceRecorder() = default;
  ThreadBuffer* BufferForThisThread();

  std::atomic<bool> enabled_{false};
  // registry_mutex_ guards the buffer list only; the buffers themselves are
  // single-writer (their owning thread) with atomic count publication, so
  // Record() stays lock-free after a thread's first span.
  mutable Mutex registry_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_
      MMJOIN_GUARDED_BY(registry_mutex_);
};

// Process-wide switch helpers (sugar over TraceRecorder).
inline bool Enabled() { return TraceRecorder::Enabled(); }
void Enable();
void Disable();

// RAII span. When tracing is disabled this is one relaxed load + predicted
// branch at construction and one branch at destruction; nothing is recorded
// and no memory is touched.
class ObsScope {
 public:
  ObsScope(const char* name, SpanKind kind)
      : name_(name),
        kind_(kind),
        start_ns_(MMJOIN_UNLIKELY(TraceRecorder::Enabled()) ? NowNanos() : 0) {
  }
  ~ObsScope() {
    if (MMJOIN_UNLIKELY(start_ns_ != 0)) {
      TraceRecorder::Get().Record(name_, kind_, start_ns_, NowNanos());
    }
  }

  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

 private:
  const char* name_;
  SpanKind kind_;
  int64_t start_ns_;
};

}  // namespace mmjoin::obs

#endif  // MMJOIN_OBS_TRACE_H_
