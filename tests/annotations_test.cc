// Tests for the annotated lock layer (util/mutex.h) and for the structures
// that were converted onto it: the wrappers must behave exactly like the
// std:: primitives they wrap, and Executor / Barrier must be observably
// unchanged after the annotation refactor.
//
// The static side of the story -- that MMJOIN_GUARDED_BY actually REJECTS an
// unlocked access under clang -- cannot live in a test that has to compile.
// It is proven two ways:
//   * tests/annotations_negative.cc, compiled (and required to fail) by
//     scripts/run_static_analysis.sh, and
//   * the #if-guarded block at the bottom of this file: defining
//     MMJOIN_TEST_ANNOTATION_VIOLATION must break the build under
//     clang -Werror=thread-safety. Never define it in checked-in builds.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "thread/executor.h"
#include "thread/thread_team.h"
#include "util/annotations.h"
#include "util/mutex.h"

namespace mmjoin {
namespace {

// ---------------------------------------------------------------- wrappers

TEST(Mutex, ProvidesMutualExclusion) {
  Mutex mutex;
  int64_t counter = 0;  // intentionally non-atomic: the lock is the test
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        MutexLock lock(mutex);
        ++counter;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  MutexLock lock(mutex);
  EXPECT_EQ(counter, int64_t{kThreads} * kIters);
}

TEST(Mutex, TryLockReportsContention) {
  Mutex mutex;
  mutex.Lock();
  std::atomic<int> observed{-1};
  std::thread other([&] {
    const bool got = mutex.TryLock();
    if (got) mutex.Unlock();
    observed.store(got ? 1 : 0, std::memory_order_release);
  });
  other.join();
  EXPECT_EQ(observed.load(std::memory_order_acquire), 0);
  mutex.Unlock();
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST(CondVar, WaitReleasesAndReacquires) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::atomic<bool> woke{false};
  std::thread waiter([&] {
    MutexLock lock(mutex);
    while (!ready) cv.Wait(mutex);
    // The mutex must be held again here: mutate shared state in plain code.
    ready = false;
    woke.store(true, std::memory_order_release);
  });
  {
    MutexLock lock(mutex);
    ready = true;
  }
  cv.NotifyOne();
  waiter.join();
  EXPECT_TRUE(woke.load(std::memory_order_acquire));
  MutexLock lock(mutex);
  EXPECT_FALSE(ready);
}

TEST(CondVar, WaitUntilTimesOut) {
  Mutex mutex;
  CondVar cv;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  MutexLock lock(mutex);
  bool signaled = true;
  while (signaled) {
    if (!cv.WaitUntil(mutex, deadline)) {
      signaled = false;  // timed out, as expected: nobody notifies
    }
  }
  EXPECT_FALSE(signaled);
}

TEST(SharedMutex, ReadersOverlapWriterExcludes) {
  SharedMutex mutex;
  int64_t value = 0;
  std::atomic<int> concurrent_readers{0};
  std::atomic<int> max_concurrent{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> threads;
  threads.reserve(kReaders + 1);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 2000; ++i) {
        ReaderMutexLock lock(mutex);
        const int now =
            concurrent_readers.fetch_add(1, std::memory_order_acq_rel) + 1;
        int seen = max_concurrent.load(std::memory_order_relaxed);
        while (now > seen && !max_concurrent.compare_exchange_weak(
                                 seen, now, std::memory_order_relaxed,
                                 std::memory_order_relaxed)) {
        }
        (void)value;
        concurrent_readers.fetch_sub(1, std::memory_order_acq_rel);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 500; ++i) {
      WriterMutexLock lock(mutex);
      // Writers are exclusive: no reader may be inside.
      ASSERT_EQ(concurrent_readers.load(std::memory_order_acquire), 0);
      ++value;
    }
  });
  for (auto& thread : threads) thread.join();
  WriterMutexLock lock(mutex);
  EXPECT_EQ(value, 500);
  // With 4 readers hammering a short section, overlap should happen; this is
  // a sanity signal, not a guarantee, so only assert the possible range.
  EXPECT_GE(max_concurrent.load(std::memory_order_relaxed), 1);
  EXPECT_LE(max_concurrent.load(std::memory_order_relaxed), kReaders);
}

// ------------------------------------- annotated structures, same behavior

TEST(AnnotatedExecutor, DispatchSemanticsUnchanged) {
  constexpr int kThreads = 6;
  thread::Executor executor(kThreads);
  constexpr int kRounds = 50;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<std::atomic<int>> hits(kThreads);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    ASSERT_TRUE(executor.Dispatch(kThreads, [&](const thread::WorkerContext& ctx) {
      hits[ctx.thread_id].fetch_add(1, std::memory_order_relaxed);
    }).ok());
    for (const auto& h : hits) {
      ASSERT_EQ(h.load(std::memory_order_relaxed), 1);
    }
  }
  const thread::ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.dispatches, kRounds);
  EXPECT_EQ(stats.threads_spawned, kThreads);  // pool reused, not respawned
  EXPECT_TRUE(executor.IsIdle());
}

TEST(AnnotatedExecutor, WatchdogStillFiresAfterRefactor) {
  thread::Executor executor(2, /*num_nodes=*/1);
  executor.set_watchdog_timeout(50);
  std::atomic<bool> release{false};
  const Status status =
      executor.Dispatch(2, [&](const thread::WorkerContext& ctx) {
        if (ctx.thread_id == 1) {
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
      });
  EXPECT_FALSE(status.ok());
  release.store(true, std::memory_order_release);
  // The executor poisoned itself; later dispatches must refuse, not hang.
  const Status after = executor.Dispatch(
      1, [](const thread::WorkerContext&) {});
  EXPECT_FALSE(after.ok());
}

TEST(AnnotatedBarrier, GenerationsStayInLockstep) {
  constexpr int kThreads = 5;
  constexpr int kGenerations = 200;
  thread::Barrier barrier(kThreads);
  std::vector<std::atomic<int>> counts(kGenerations);
  for (auto& c : counts) c.store(0, std::memory_order_relaxed);
  std::atomic<bool> violated{false};
  const Status status = thread::GlobalExecutor().Dispatch(
      kThreads, [&](const thread::WorkerContext&) {
        for (int g = 0; g < kGenerations; ++g) {
          counts[g].fetch_add(1, std::memory_order_acq_rel);
          barrier.ArriveAndWait();
          // After the barrier, generation g must be fully arrived...
          if (counts[g].load(std::memory_order_acquire) != kThreads) {
            violated.store(true, std::memory_order_relaxed);
          }
          // ...and generation g+1 not yet overshot.
          if (g + 1 < kGenerations &&
              counts[g + 1].load(std::memory_order_acquire) > kThreads) {
            violated.store(true, std::memory_order_relaxed);
          }
        }
      });
  ASSERT_TRUE(status.ok());
  EXPECT_FALSE(violated.load(std::memory_order_relaxed));
}

// ------------------------------------------ compile-time proof (guarded)
//
// Defining MMJOIN_TEST_ANNOTATION_VIOLATION must make this translation unit
// FAIL to compile under clang -Werror=thread-safety ("reading variable
// 'guarded_' requires holding mutex 'mutex_'"). Under GCC the attributes are
// no-ops and the block merely compiles to a racy function nobody calls.
// scripts/run_static_analysis.sh exercises the equivalent violation in
// tests/annotations_negative.cc on every run, so this stays a documented
// escape hatch for manual spot checks:
//
//   clang++ -std=c++20 -Isrc -fsyntax-only -Werror=thread-safety
//     -DMMJOIN_TEST_ANNOTATION_VIOLATION tests/annotations_test.cc
#if defined(MMJOIN_TEST_ANNOTATION_VIOLATION)
class Violation {
 public:
  int Read() { return guarded_; }  // no lock: must not compile under clang

 private:
  Mutex mutex_;
  int guarded_ MMJOIN_GUARDED_BY(mutex_) = 0;
};
#endif

}  // namespace
}  // namespace mmjoin
