#include "obs/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/file.h"

namespace mmjoin::obs {
namespace {

std::atomic<int> g_next_unlabeled_tid{kUnlabeledThreadIdBase};

thread_local int t_obs_tid = -1;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPartition:
      return "partition";
    case SpanKind::kBuild:
      return "build";
    case SpanKind::kProbe:
      return "probe";
    case SpanKind::kSort:
      return "sort";
    case SpanKind::kMerge:
      return "merge";
    case SpanKind::kMaterialize:
      return "materialize";
    case SpanKind::kDispatch:
      return "dispatch";
    case SpanKind::kBarrier:
      return "barrier";
    case SpanKind::kIdle:
      return "idle";
    case SpanKind::kRun:
      return "run";
    case SpanKind::kOther:
      return "other";
  }
  return "other";
}

int CurrentThreadId() {
  if (t_obs_tid < 0) {
    t_obs_tid = g_next_unlabeled_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_obs_tid;
}

void SetCurrentThreadId(int tid) { t_obs_tid = tid; }

TraceRecorder& TraceRecorder::Get() {
  // Intentionally leaked: executor workers may record during static
  // destruction of harness objects.
  static TraceRecorder* recorder = new TraceRecorder();
  return *recorder;
}

void Enable() { TraceRecorder::Get().SetEnabled(true); }
void Disable() { TraceRecorder::Get().SetEnabled(false); }

TraceRecorder::ThreadBuffer* TraceRecorder::BufferForThisThread() {
  thread_local ThreadBuffer* t_buffer = nullptr;
  if (MMJOIN_UNLIKELY(t_buffer == nullptr)) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->spans.resize(kSpansPerThread);
    t_buffer = buffer.get();
    MutexLock lock(registry_mutex_);
    buffers_.push_back(std::move(buffer));
  }
  return t_buffer;
}

void TraceRecorder::Record(const char* name, SpanKind kind, int64_t start_ns,
                           int64_t end_ns) {
  ThreadBuffer* buffer = BufferForThisThread();
  const std::size_t index = buffer->count.load(std::memory_order_relaxed);
  if (MMJOIN_UNLIKELY(index >= kSpansPerThread)) {
    buffer->dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  buffer->spans[index] =
      Span{name, kind, CurrentThreadId(), start_ns, end_ns};
  // Release-publish the slot so a concurrent Snapshot never reads a
  // half-written span.
  buffer->count.store(index + 1, std::memory_order_release);
}

std::vector<Span> TraceRecorder::Snapshot() const {
  std::vector<Span> all;
  {
    MutexLock lock(registry_mutex_);
    for (const auto& buffer : buffers_) {
      const std::size_t count = buffer->count.load(std::memory_order_acquire);
      all.insert(all.end(), buffer->spans.begin(),
                 buffer->spans.begin() + static_cast<std::ptrdiff_t>(count));
    }
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.start_ns < b.start_ns;
  });
  return all;
}

void TraceRecorder::Clear() {
  MutexLock lock(registry_mutex_);
  for (const auto& buffer : buffers_) {
    buffer->count.store(0, std::memory_order_release);
    buffer->dropped.store(0, std::memory_order_relaxed);
  }
}

uint64_t TraceRecorder::recorded_spans() const {
  MutexLock lock(registry_mutex_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->count.load(std::memory_order_acquire);
  }
  return total;
}

uint64_t TraceRecorder::dropped_spans() const {
  MutexLock lock(registry_mutex_);
  uint64_t total = 0;
  for (const auto& buffer : buffers_) {
    total += buffer->dropped.load(std::memory_order_relaxed);
  }
  return total;
}

std::string TraceRecorder::ChromeTraceJson() const {
  const std::vector<Span> spans = Snapshot();
  std::string out;
  out.reserve(spans.size() * 96 + 64);
  char buf[256];
  // Extra top-level keys are legal in the trace-event format; `metadata`
  // lets check_metrics.py --kind=trace warn on ring-buffer overflow instead
  // of silently trusting a truncated timeline.
  std::snprintf(buf, sizeof(buf),
                "{\"displayTimeUnit\":\"ms\",\"metadata\":{"
                "\"recorded_spans\":%llu,\"dropped_spans\":%llu},"
                "\"traceEvents\":[",
                static_cast<unsigned long long>(recorded_spans()),
                static_cast<unsigned long long>(dropped_spans()));
  out += buf;
  bool first = true;
  for (const Span& span : spans) {
    if (!first) out += ',';
    first = false;
    // Timestamps/durations in microseconds, as the trace-event format
    // specifies. %.3f keeps nanosecond resolution.
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d}",
                  span.name, SpanKindName(span.kind),
                  static_cast<double>(span.start_ns) / 1e3,
                  static_cast<double>(span.end_ns - span.start_ns) / 1e3,
                  span.tid);
    out += buf;
  }
  out += "]}";
  return out;
}

Status TraceRecorder::WriteChromeTrace(const std::string& path) const {
  return WriteTextFile(path, ChromeTraceJson(), /*trailing_newline=*/false,
                       "trace");
}

}  // namespace mmjoin::obs
