// Wall-clock timing helpers for the benchmark harnesses and per-phase join
// statistics.

#ifndef MMJOIN_UTIL_TIMER_H_
#define MMJOIN_UTIL_TIMER_H_

#include <chrono>
#include <cstdint>

namespace mmjoin {

// Monotonic nanosecond timestamp.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Simple stopwatch, started at construction.
class Stopwatch {
 public:
  Stopwatch() : start_(NowNanos()) {}

  int64_t ElapsedNanos() const { return NowNanos() - start_; }
  double ElapsedSeconds() const {
    return static_cast<double>(ElapsedNanos()) * 1e-9;
  }

 private:
  int64_t start_;
};

}  // namespace mmjoin

#endif  // MMJOIN_UTIL_TIMER_H_
