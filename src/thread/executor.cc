#include "thread/executor.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace mmjoin::thread {

namespace {

// Process-wide aggregates over every Executor (the global pool plus any
// core::Joiner-owned pools), so one metrics provider covers them all
// without forcing the global executor into existence.
struct ProcessPoolStats {
  std::atomic<uint64_t> threads_spawned{0};
  std::atomic<uint64_t> dispatches{0};
  std::atomic<uint64_t> idle_ns{0};
};

ProcessPoolStats& GlobalPoolStats() {
  static ProcessPoolStats* stats = new ProcessPoolStats();
  return *stats;
}

const obs::MetricsProviderRegistration kExecutorProvider(
    "executor", [](std::vector<obs::Metric>* metrics) {
      const ProcessPoolStats& stats = GlobalPoolStats();
      metrics->push_back(obs::Metric{
          "executor.threads_spawned",
          stats.threads_spawned.load(std::memory_order_relaxed)});
      metrics->push_back(obs::Metric{
          "executor.dispatches",
          stats.dispatches.load(std::memory_order_relaxed)});
      metrics->push_back(obs::Metric{
          "executor.barrier_wait_ns",
          ProcessBarrierWaitNs().load(std::memory_order_relaxed)});
      metrics->push_back(obs::Metric{
          "executor.idle_ns", stats.idle_ns.load(std::memory_order_relaxed)});
    });

}  // namespace

Executor::Executor(int num_threads, int num_nodes)
    : default_team_(num_threads),
      topology_(num_nodes),
      join_queue_(std::make_unique<ShardedTaskQueue>(num_nodes)) {
  MMJOIN_CHECK(num_threads >= 1);
  if (const char* env = std::getenv("MMJOIN_DISPATCH_TIMEOUT_MS")) {
    char* end = nullptr;
    const long long ms = std::strtoll(env, &end, 10);
    if (end != nullptr && *end == '\0' && ms >= 0) {
      watchdog_timeout_ms_.store(ms, std::memory_order_relaxed);
    }
  }
  MutexLock lock(mutex_);
  EnsureWorkersLocked(num_threads);
}

Executor::~Executor() {
  // Move the threads out under the lock, then join unlocked (joining under
  // mutex_ would deadlock: workers take it to observe stop_ and exit).
  std::vector<std::thread> workers;
  {
    MutexLock lock(mutex_);
    stop_ = true;
    workers.swap(workers_);
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers) worker.join();
}

void Executor::EnsureWorkersLocked(int count) {
  const int have = static_cast<int>(workers_.size());
  for (int tid = have; tid < count; ++tid) {
    // New workers start at the current epoch so they sleep until the next
    // dispatch instead of re-running the previous one.
    workers_.emplace_back(&Executor::WorkerLoop, this, tid, epoch_);
    ++threads_spawned_;
    GlobalPoolStats().threads_spawned.fetch_add(1, std::memory_order_relaxed);
  }
}

void Executor::WorkerLoop(int thread_id, uint64_t spawn_epoch) {
  // Trace spans this thread emits (phase scopes inside join closures, idle
  // and task spans here) attribute to the stable pool thread id.
  obs::SetCurrentThreadId(thread_id);
  uint64_t seen = spawn_epoch;
  for (;;) {
    mutex_.Lock();
    const int64_t idle_start = NowNanos();
    while (!stop_ && epoch_ == seen) work_cv_.Wait(mutex_);
    const int64_t idle_end = NowNanos();
    const auto idle = static_cast<uint64_t>(idle_end - idle_start);
    idle_ns_.fetch_add(idle, std::memory_order_relaxed);
    GlobalPoolStats().idle_ns.fetch_add(idle, std::memory_order_relaxed);
    if (MMJOIN_UNLIKELY(obs::Enabled())) {
      obs::TraceRecorder::Get().Record("executor.idle", obs::SpanKind::kIdle,
                                       idle_start, idle_end);
    }
    if (stop_) {
      mutex_.Unlock();
      return;
    }
    seen = epoch_;
    if (thread_id >= team_size_) {  // sitting this epoch out
      mutex_.Unlock();
      continue;
    }

    // Own a reference: a watchdog-timed-out Dispatch may return (and its
    // caller destroy the original closure) while this worker still runs.
    const auto task = task_;
    WorkerContext ctx;
    ctx.thread_id = thread_id;
    ctx.num_threads = team_size_;
    ctx.node = topology_.NodeOfThread(thread_id, team_size_);
    ctx.barrier = barrier_.get();
    ctx.executor = this;
    mutex_.Unlock();

    {
      obs::ObsScope task_scope("executor.task", obs::SpanKind::kDispatch);
      (*task)(ctx);
    }

    mutex_.Lock();
    if (--remaining_ == 0) done_cv_.NotifyAll();
    mutex_.Unlock();
  }
}

Status Executor::Dispatch(
    int team_size, const std::function<void(const WorkerContext&)>& fn) {
  MMJOIN_CHECK(team_size >= 1);
  MutexLock dispatch_lock(dispatch_mutex_);
  if (poisoned_.load(std::memory_order_relaxed)) {
    return FailedPreconditionError(
        "executor poisoned by an earlier dispatch timeout; refusing work");
  }
  MutexLock lock(mutex_);
  EnsureWorkersLocked(team_size);
  if (barrier_parties_ != team_size) {
    barrier_ = std::make_unique<Barrier>(team_size);
    barrier_->set_wait_accumulator(&barrier_wait_ns_);
    barrier_parties_ = team_size;
  }
  task_ = std::make_shared<const std::function<void(const WorkerContext&)>>(fn);
  team_size_ = team_size;
  remaining_ = team_size;
  const uint64_t this_epoch = ++epoch_;
  ++dispatches_;
  GlobalPoolStats().dispatches.fetch_add(1, std::memory_order_relaxed);
  max_team_size_ = std::max<uint64_t>(max_team_size_, team_size);
  work_cv_.NotifyAll();

  const int64_t timeout_ms =
      watchdog_timeout_ms_.load(std::memory_order_relaxed);
  if (timeout_ms <= 0) {
    while (remaining_ != 0) done_cv_.Wait(mutex_);
    task_.reset();
    return OkStatus();
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (remaining_ != 0) {
    if (!done_cv_.WaitUntil(mutex_, deadline)) break;
  }
  if (remaining_ == 0) {
    task_.reset();
    return OkStatus();
  }

  // Watchdog fired: a worker is stuck (most likely a barrier some thread
  // never reached). Dump what we know, poison the executor so no later
  // dispatch corrupts remaining_, and surface the failure to the caller.
  // The stuck workers keep their shared_ptr copy of the task.
  MMJOIN_LOG(kError, "executor.watchdog")
      .Field("epoch", static_cast<uint64_t>(this_epoch))
      .Field("timeout_ms", static_cast<int64_t>(timeout_ms))
      .Field("team_size", team_size_)
      .Field("remaining", remaining_)
      .Field("pool", static_cast<uint64_t>(workers_.size()))
      .Field("action", "executor poisoned");
  poisoned_.store(true, std::memory_order_relaxed);
  return DeadlineExceededError(
      "executor dispatch did not finish within " +
      std::to_string(timeout_ms) + " ms (" + std::to_string(remaining_) +
      " of " + std::to_string(team_size_) + " workers still running)");
}

Status Executor::ParallelFor(
    int team_size, std::size_t total,
    const std::function<void(std::size_t, std::size_t, const WorkerContext&)>&
        fn) {
  if (total == 0) return OkStatus();
  return Dispatch(team_size, [total, &fn](const WorkerContext& ctx) {
    const Range range = ChunkRange(total, ctx.num_threads, ctx.thread_id);
    if (range.begin < range.end) fn(range.begin, range.end, ctx);
  });
}

bool Executor::IsIdle() const {
  MutexLock lock(mutex_);
  return remaining_ == 0;
}

int Executor::pool_size() const {
  MutexLock lock(mutex_);
  return static_cast<int>(workers_.size());
}

ExecutorStats Executor::stats() const {
  MutexLock lock(mutex_);
  ExecutorStats stats;
  stats.threads_spawned = threads_spawned_;
  stats.dispatches = dispatches_;
  stats.max_team_size = max_team_size_;
  stats.barrier_wait_ns = barrier_wait_ns_.load(std::memory_order_relaxed);
  stats.idle_ns = idle_ns_.load(std::memory_order_relaxed);
  return stats;
}

Executor& GlobalExecutor() {
  // Intentionally leaked: workers must outlive every static that might run a
  // team during its destructor, and the OS reclaims them at process exit.
  static Executor* global = new Executor(/*num_threads=*/1);
  return *global;
}

}  // namespace mmjoin::thread
