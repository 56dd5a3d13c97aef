// Persistent NUMA-aware executor.
//
// The paper's methodology (Sections 5/6, Appendix B) assumes a fixed team of
// worker threads pinned evenly across NUMA regions for the whole experiment;
// every join is a sequence of parallel phases separated by barriers running
// on that team. An Executor is that substrate: workers are OS threads
// created once and reused across dispatches (epochs), each with a stable
// thread-id and a NUMA node assigned via Topology::NodeOfThread. A dispatch
// runs one closure on every member of a team and blocks the caller until the
// whole team finished; the team barrier separates phases *inside* a
// dispatch (histogram -> scatter -> build -> probe).
//
// Teams may be smaller than the pool (extra workers sit out the epoch) and
// larger (the pool grows, once, and keeps the new workers). Stats record how
// many threads were ever spawned and how many dispatches ran, so benches and
// tests can assert that running N joins creates workers exactly once.

#ifndef MMJOIN_THREAD_EXECUTOR_H_
#define MMJOIN_THREAD_EXECUTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "numa/topology.h"
#include "thread/thread_team.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/status.h"

namespace mmjoin::thread {

class Executor;

// Everything a worker closure needs: its identity within the team, the
// team's size, the NUMA node the thread is placed on (stable for a given
// team size, via Topology::NodeOfThread), and the team barrier separating
// phases of this dispatch.
struct WorkerContext {
  int thread_id = 0;
  int num_threads = 1;
  int node = 0;
  Barrier* barrier = nullptr;
  Executor* executor = nullptr;
};

// Pool-reuse accounting. `threads_spawned` only grows when the pool does;
// a steady-state process shows threads_spawned == num_threads while
// `dispatches` keeps counting. `barrier_wait_ns` (time blocked in the team
// barrier inside dispatches) and `idle_ns` (time workers slept between
// epochs) always accrue: two clock reads per barrier arrival and per epoch.
// Observability (obs::Enabled()) adds only the matching trace spans; see
// docs/EXECUTION.md.
struct ExecutorStats {
  uint64_t threads_spawned = 0;
  uint64_t dispatches = 0;
  uint64_t max_team_size = 0;
  uint64_t barrier_wait_ns = 0;
  uint64_t idle_ns = 0;
};

class Executor {
 public:
  // Spawns `num_threads` workers immediately; `num_nodes` fixes the software
  // NUMA topology used for the thread -> node placement.
  explicit Executor(int num_threads, int num_nodes = 4);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Runs `fn(ctx)` on a team of `team_size` workers (thread ids
  // [0, team_size)) and blocks until all of them finished. Grows the pool if
  // the team is larger than it; never shrinks. Dispatching from inside a
  // worker closure is not supported (it would deadlock the pool).
  //
  // With a watchdog timeout armed (set_watchdog_timeout or env var
  // MMJOIN_DISPATCH_TIMEOUT_MS), a dispatch whose team does not finish in
  // time dumps diagnostics to stderr, poisons the executor, and returns
  // DeadlineExceeded; every later dispatch returns FailedPrecondition. The
  // stuck workers keep a shared copy of the task closure, so a timed-out
  // return does not invalidate what they are still running.
  Status Dispatch(int team_size,
                  const std::function<void(const WorkerContext&)>& fn)
      MMJOIN_EXCLUDES(dispatch_mutex_, mutex_);

  // Dispatch on the default team (the constructor's num_threads).
  Status Dispatch(const std::function<void(const WorkerContext&)>& fn) {
    return Dispatch(default_team_, fn);
  }

  // Splits [0, total) into team-sized chunks via ChunkRange and runs
  // `fn(begin, end, ctx)` on each non-empty chunk. total == 0 dispatches
  // nothing; total < team leaves the surplus workers with empty chunks.
  Status ParallelFor(int team_size, std::size_t total,
                     const std::function<void(std::size_t, std::size_t,
                                              const WorkerContext&)>& fn);
  Status ParallelFor(std::size_t total,
                     const std::function<void(std::size_t, std::size_t,
                                              const WorkerContext&)>& fn) {
    return ParallelFor(default_team_, total, fn);
  }

  // Watchdog deadline per dispatch in milliseconds; 0 disables (default).
  // Initialized from MMJOIN_DISPATCH_TIMEOUT_MS when set.
  void set_watchdog_timeout(int64_t timeout_ms) {
    watchdog_timeout_ms_.store(timeout_ms, std::memory_order_relaxed);
  }
  int64_t watchdog_timeout_ms() const {
    return watchdog_timeout_ms_.load(std::memory_order_relaxed);
  }

  // True once a dispatch timed out; the executor refuses further work.
  bool poisoned() const {
    return poisoned_.load(std::memory_order_relaxed);
  }

  // True when no dispatched work is outstanding (test/teardown aid: after a
  // timed-out dispatch, wait for stragglers before destroying the executor).
  bool IsIdle() const;

  // The default team size (constructor argument).
  int num_threads() const { return default_team_; }
  // Current pool size (>= num_threads(); grows with oversized teams).
  int pool_size() const;

  ExecutorStats stats() const;

  const numa::Topology& topology() const { return topology_; }

 private:
  void WorkerLoop(int thread_id, uint64_t spawn_epoch);
  // Grows the pool to `count` workers.
  void EnsureWorkersLocked(int count) MMJOIN_REQUIRES(mutex_);

  const int default_team_;
  const numa::Topology topology_;

  // One dispatch at a time; callers queue here, not on the epoch state.
  Mutex dispatch_mutex_;

  // mutex_ guards the epoch-dispatch protocol: Dispatch publishes
  // {task_, team_size_, remaining_, epoch_} under it, workers observe the
  // epoch bump under it, and remaining_ counts workers back in under it.
  mutable Mutex mutex_;
  CondVar work_cv_;
  CondVar done_cv_;
  std::vector<std::thread> workers_ MMJOIN_GUARDED_BY(mutex_);
  uint64_t epoch_ MMJOIN_GUARDED_BY(mutex_) = 0;
  int team_size_ MMJOIN_GUARDED_BY(mutex_) = 0;
  int remaining_ MMJOIN_GUARDED_BY(mutex_) = 0;
  // Shared so workers still hold a valid closure if Dispatch returns early
  // on watchdog timeout while they are stuck mid-task.
  std::shared_ptr<const std::function<void(const WorkerContext&)>> task_
      MMJOIN_GUARDED_BY(mutex_);
  std::unique_ptr<Barrier> barrier_ MMJOIN_GUARDED_BY(mutex_);
  int barrier_parties_ MMJOIN_GUARDED_BY(mutex_) = 0;
  bool stop_ MMJOIN_GUARDED_BY(mutex_) = false;

  std::atomic<int64_t> watchdog_timeout_ms_{0};
  std::atomic<bool> poisoned_{false};

  uint64_t threads_spawned_ MMJOIN_GUARDED_BY(mutex_) = 0;
  uint64_t dispatches_ MMJOIN_GUARDED_BY(mutex_) = 0;
  uint64_t max_team_size_ MMJOIN_GUARDED_BY(mutex_) = 0;
  // Written by workers outside mutex_ (relaxed adds).
  std::atomic<uint64_t> barrier_wait_ns_{0};
  std::atomic<uint64_t> idle_ns_{0};
};

// The process-wide pool behind every caller that does not own an Executor
// (benches, tests, the TPC-H generator). Lazily
// created on first use, grows to the largest team ever requested, and lives
// until process exit.
Executor& GlobalExecutor();

}  // namespace mmjoin::thread

#endif  // MMJOIN_THREAD_EXECUTOR_H_
