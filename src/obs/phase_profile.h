// Per-phase, per-thread join profiles -- the data behind the paper's
// whitebox breakdown (Section 5, Figure 3).
//
// Every join run owns a JoinPhaseProfiler (through its run clock,
// join/internal.h); each worker thread wraps its phase work in a PhaseScope,
// which accumulates wall-clock nanoseconds into a cache-line-padded
// per-thread slot. Finish() reduces the slots into a PhaseProfile: per-phase
// min/max/mean thread time plus summed counter deltas, attached to
// JoinResult::profile.
//
// The wall clock is always on: two clock reads per scope, a few dozen scopes
// per run. obs::Enabled() gates only what observability adds on top --
// hardware-counter reads and the trace span per scope.

#ifndef MMJOIN_OBS_PHASE_PROFILE_H_
#define MMJOIN_OBS_PHASE_PROFILE_H_

#include <cstdint>
#include <vector>

#include "obs/perf_counters.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/timer.h"
#include "util/types.h"

namespace mmjoin::obs {

// The join phases of the whitebox taxonomy. Algorithms use the subset that
// applies to them (NOP: build/probe; MWAY: partition/sort/merge; PR*:
// partition passes + per-task build/probe; ...).
enum class JoinPhase : uint8_t {
  kPartitionPass1 = 0,
  kPartitionPass2,
  kBuild,
  kProbe,
  kSort,
  kMerge,
  kMaterialize,
};
inline constexpr int kNumJoinPhases = 7;

const char* JoinPhaseName(JoinPhase phase);
SpanKind JoinPhaseSpanKind(JoinPhase phase);

// Reduction of one phase across the threads that executed it.
struct PhaseStat {
  int threads = 0;       // threads that spent time in this phase
  int64_t total_ns = 0;  // summed across threads
  int64_t min_ns = 0;    // fastest thread's total for this phase
  int64_t max_ns = 0;    // slowest thread's total (the skew signal)
  CounterDelta counters; // summed across threads; counters.valid when the
                         // perf events were open on at least one thread

  int64_t MeanNs() const { return threads > 0 ? total_ns / threads : 0; }
};

struct PhaseProfile {
  PhaseStat phases[kNumJoinPhases];

  const PhaseStat& Of(JoinPhase phase) const {
    return phases[static_cast<int>(phase)];
  }
  // True when any phase carries hardware-counter data.
  bool CountersValid() const {
    for (const PhaseStat& stat : phases) {
      if (stat.counters.valid) return true;
    }
    return false;
  }
  // Sum of the slowest thread's time over all phases -- the profile's
  // estimate of the critical path, comparable against PhaseTimes::total_ns.
  int64_t CriticalPathNs() const {
    int64_t total = 0;
    for (const PhaseStat& stat : phases) total += stat.max_ns;
    return total;
  }
};

class JoinPhaseProfiler {
 public:
  explicit JoinPhaseProfiler(int num_threads);

  // Adds one measured interval to (tid, phase). Threads only touch their own
  // slot; no synchronization beyond the padding.
  void Accumulate(int tid, JoinPhase phase, int64_t ns,
                  const CounterDelta& delta);

  // Reduces the per-thread slots. Call after the dispatch completed.
  PhaseProfile Finish() const;

 private:
  struct alignas(kCacheLineSize) ThreadAccum {
    int64_t ns[kNumJoinPhases] = {};
    CounterDelta counters[kNumJoinPhases] = {};
  };
  static_assert(alignof(ThreadAccum) == kCacheLineSize &&
                    sizeof(ThreadAccum) % kCacheLineSize == 0,
                "ThreadAccum slots must not share cache lines across threads");
  std::vector<ThreadAccum> accums_;
};

// RAII phase measurement into the calling thread's profiler slot. The wall
// clock is always taken; hardware counters and the trace span only while
// observability is enabled at construction.
class PhaseScope {
 public:
  PhaseScope(JoinPhaseProfiler& profiler, int tid, JoinPhase phase)
      : profiler_(profiler), tid_(tid), phase_(phase), observed_(Enabled()) {
    if (MMJOIN_UNLIKELY(observed_)) {
      have_counters_ = PerfCounters::ThreadLocal()->Read(&start_sample_);
    }
    start_ns_ = NowNanos();
  }
  ~PhaseScope() { End(); }

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  void End();

  JoinPhaseProfiler& profiler_;
  const int tid_;
  const JoinPhase phase_;
  const bool observed_;
  int64_t start_ns_ = 0;
  bool have_counters_ = false;
  CounterSample start_sample_;
};

}  // namespace mmjoin::obs

#endif  // MMJOIN_OBS_PHASE_PROFILE_H_
