// Annotated lock primitives: thin wrappers over std::mutex /
// std::shared_mutex / std::condition_variable carrying the Clang capability
// attributes from util/annotations.h.
//
// The standard-library types are not annotated under libstdc++, so the
// thread-safety analysis cannot see std::lock_guard acquire anything. These
// wrappers are the capability-bearing types every mutex-protected structure
// in the tree (Executor, ShardedTaskQueue, Barrier, TraceRecorder,
// MetricsRegistry, NumaSystem, JoinAbort) locks through; they compile to
// exactly the std:: primitives they wrap.
//
// CondVar pairs with Mutex the way absl::CondVar pairs with absl::Mutex:
// Wait/WaitUntil require the mutex held and release/reacquire it internally,
// invisibly to the analysis (which models "held across the call" -- sound,
// since the caller holds it again when Wait returns and may not rely on
// state being unchanged anyway: waits sit in while loops re-checking their
// predicate).

#ifndef MMJOIN_UTIL_MUTEX_H_
#define MMJOIN_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/annotations.h"

namespace mmjoin {

class MMJOIN_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() MMJOIN_ACQUIRE() { mutex_.lock(); }
  void Unlock() MMJOIN_RELEASE() { mutex_.unlock(); }
  bool TryLock() MMJOIN_TRY_ACQUIRE(true) { return mutex_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mutex_;
};

// RAII exclusive lock over a Mutex.
class MMJOIN_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) MMJOIN_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.Lock();
  }
  ~MutexLock() MMJOIN_RELEASE() { mutex_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mutex_;
};

// Condition variable for use with Mutex. All waits must be wrapped in a
// while loop re-testing the predicate (spurious wakeups, stolen wakeups).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Blocks until notified. `mutex` must be held; it is released while
  // blocked and reacquired before returning.
  void Wait(Mutex& mutex) MMJOIN_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // the caller's scope still owns the mutex
  }

  // Like Wait but gives up at `deadline`; returns false on timeout.
  bool WaitUntil(Mutex& mutex, std::chrono::steady_clock::time_point deadline)
      MMJOIN_REQUIRES(mutex) {
    std::unique_lock<std::mutex> lock(mutex.mutex_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

// Reader/writer lock (NumaSystem's region map: every counted memory access
// resolves addresses under a shared lock; allocation is the rare writer).
class MMJOIN_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() MMJOIN_ACQUIRE() { mutex_.lock(); }
  void Unlock() MMJOIN_RELEASE() { mutex_.unlock(); }
  void LockShared() MMJOIN_ACQUIRE_SHARED() { mutex_.lock_shared(); }
  void UnlockShared() MMJOIN_RELEASE_SHARED() { mutex_.unlock_shared(); }

 private:
  std::shared_mutex mutex_;
};

class MMJOIN_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mutex) MMJOIN_ACQUIRE(mutex)
      : mutex_(mutex) {
    mutex_.Lock();
  }
  ~WriterMutexLock() MMJOIN_RELEASE() { mutex_.Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

class MMJOIN_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mutex) MMJOIN_ACQUIRE_SHARED(mutex)
      : mutex_(mutex) {
    mutex_.LockShared();
  }
  ~ReaderMutexLock() MMJOIN_RELEASE() { mutex_.UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mutex_;
};

}  // namespace mmjoin

#endif  // MMJOIN_UTIL_MUTEX_H_
