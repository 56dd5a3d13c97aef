// Synchronization barrier and chunk partitioning.
//
// Every join algorithm in the paper is a sequence of parallel phases
// separated by barriers (histogram -> scatter -> build -> probe). Parallel
// phases run on a persistent worker pool (thread/executor.h); the barrier
// here separates them, and ChunkRange hands each worker its input slice.

#ifndef MMJOIN_THREAD_THREAD_TEAM_H_
#define MMJOIN_THREAD_THREAD_TEAM_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "obs/trace.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/timer.h"

namespace mmjoin::thread {

// Summed nanoseconds every Barrier in the process spent blocking threads.
// Feeds the `executor.*` metrics provider; covers executor team barriers and
// standalone barriers alike.
std::atomic<uint64_t>& ProcessBarrierWaitNs();

// Reusable cyclic barrier (std::barrier-equivalent; kept self-contained so
// the whole library builds with partial C++20 standard libraries).
//
// Each arrival's blocked time is always accumulated into the process total
// and the optional wait accumulator (the executor points it at its
// barrier_wait_ns stat); while observability is on it is also emitted as a
// `barrier.wait` trace span.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {
    MMJOIN_CHECK(parties >= 1);
  }

  Barrier(const Barrier&) = delete;
  Barrier& operator=(const Barrier&) = delete;

  // Process-lifetime accumulator receiving the summed nanoseconds threads
  // spent blocked in ArriveAndWait. May be null (no accounting).
  void set_wait_accumulator(std::atomic<uint64_t>* accumulator) {
    wait_ns_ = accumulator;
  }

  void ArriveAndWait() {
    const int64_t start = NowNanos();
    ArriveAndWaitImpl();
    const int64_t end = NowNanos();
    const auto waited = static_cast<uint64_t>(end - start);
    if (wait_ns_ != nullptr) {
      wait_ns_->fetch_add(waited, std::memory_order_relaxed);
    }
    ProcessBarrierWaitNs().fetch_add(waited, std::memory_order_relaxed);
    if (MMJOIN_UNLIKELY(obs::Enabled())) {
      obs::TraceRecorder::Get().Record("barrier.wait", obs::SpanKind::kBarrier,
                                       start, end);
    }
  }

 private:
  void ArriveAndWaitImpl() {
    MutexLock lock(mutex_);
    const uint64_t generation = generation_;
    if (++arrived_ == parties_) {
      arrived_ = 0;
      ++generation_;
      cv_.NotifyAll();
      return;
    }
    while (generation_ == generation) cv_.Wait(mutex_);
  }

  const int parties_;
  Mutex mutex_;
  CondVar cv_;
  int arrived_ MMJOIN_GUARDED_BY(mutex_) = 0;
  uint64_t generation_ MMJOIN_GUARDED_BY(mutex_) = 0;
  std::atomic<uint64_t>* wait_ns_ = nullptr;
};

// Splits [0, total) into `num_threads` near-equal contiguous chunks and
// returns [begin, end) for `thread_id`. All algorithms use this for the
// "assign equal-sized regions (chunks) to each thread" step.
struct Range {
  std::size_t begin;
  std::size_t end;
  std::size_t size() const { return end - begin; }
};

inline Range ChunkRange(std::size_t total, int num_threads, int thread_id) {
  const std::size_t base = total / num_threads;
  const std::size_t extra = total % num_threads;
  const auto tid = static_cast<std::size_t>(thread_id);
  const std::size_t begin = tid * base + std::min<std::size_t>(tid, extra);
  const std::size_t size = base + (tid < extra ? 1 : 0);
  return Range{begin, begin + size};
}

}  // namespace mmjoin::thread

#endif  // MMJOIN_THREAD_THREAD_TEAM_H_
