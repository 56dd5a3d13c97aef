// Internal shared helpers for the join implementations. Not part of the
// public API.

#ifndef MMJOIN_JOIN_INTERNAL_H_
#define MMJOIN_JOIN_INTERNAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "hash/array_table.h"
#include "hash/linear_probing_table.h"
#include "join/join_defs.h"
#include "mem/budget.h"
#include "numa/system.h"
#include "obs/phase_profile.h"
#include "partition/model.h"
#include "thread/executor.h"
#include "util/annotations.h"
#include "util/failpoint.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/types.h"

namespace mmjoin::join::internal {

// The worker pool a join's parallel phases run on: the caller's executor if
// one is configured, the process-wide pool otherwise. Never spawns per-join.
inline thread::Executor& ExecutorOf(const JoinConfig& config) {
  return config.executor != nullptr ? *config.executor
                                    : thread::GlobalExecutor();
}

// The host's caches, read from sysfs once per process.
const partition::CacheSpec& HostCacheSpec();

// Cooperative failure flag for barrier-synchronized worker closures. A
// worker that hits a failure *before* a barrier records it here and still
// arrives at the barrier (so nobody deadlocks); every worker tests the flag
// after the barrier and unwinds. The first status wins.
class JoinAbort {
 public:
  void Set(Status status) {
    MutexLock lock(mutex_);
    if (!failed_.load(std::memory_order_relaxed)) {
      status_ = std::move(status);
      // Release pairs with the acquire in IsSet(): a worker that observes
      // failed_ == true also observes the fully-written status_ (readable
      // via status(), which additionally takes the mutex).
      failed_.store(true, std::memory_order_release);
    }
  }

  bool IsSet() const { return failed_.load(std::memory_order_acquire); }

  Status status() const {
    MutexLock lock(mutex_);
    return status_;
  }

 private:
  std::atomic<bool> failed_{false};
  mutable Mutex mutex_;
  Status status_ MMJOIN_GUARDED_BY(mutex_);
};

// Shared build tables for skewed partitions.
//
// Skew handling splits a large probe partition into several probe-slice
// tasks that may run on different threads. Historically every slice rebuilt
// a private scratch table of the *same* build partition -- O(slices) build
// cost exactly where skew already made the partition expensive. A
// SkewBuildSlots instead holds one slot per skewed partition: the first
// slice to arrive builds the table once, later slices (and concurrent ones,
// via the CondVar) share it read-only.
//
// Lifecycle: a stack object per join run. Configure() runs on the seeding
// thread between barriers (single-threaded); GetOrBuild() runs concurrently
// in the join phase. Destruction at end of run frees the tables, so the
// fault-injection live-region accounting still balances.
class SkewBuildSlots {
 public:
  struct Slot {
    Mutex mutex;
    CondVar cv;
    bool building MMJOIN_GUARDED_BY(mutex) = false;
    // Type-erased so one slot type serves every Scratch adapter; the deleter
    // captured by GetOrBuild restores the concrete type.
    std::shared_ptr<const void> table MMJOIN_GUARDED_BY(mutex);
  };

  // One slot per partition that BuildSkewTasks split. Seeding-thread only.
  void Configure(const std::vector<uint32_t>& skewed_partitions) {
    slots_.clear();
    for (const uint32_t p : skewed_partitions) {
      slots_.emplace(p, std::make_unique<Slot>());
    }
  }

  // Null for partitions that were not split (callers then use their private
  // per-worker scratch as before). The map itself is read-only during the
  // join phase, so lookups take no lock.
  Slot* Find(uint32_t partition) const {
    const auto it = slots_.find(partition);
    return it == slots_.end() ? nullptr : it->second.get();
  }

  // Returns the slot's table, building it exactly once: the first caller
  // runs `build_fn` (-> unique_ptr<Scratch>) outside the slot mutex while
  // later callers wait on the CondVar. `built` reports whether *this* call
  // did the build (the builder pays the build-side memory reads, which
  // matters for steal accounting). The returned table is valid until the
  // SkewBuildSlots is destroyed or reconfigured.
  template <typename Scratch, typename BuildFn>
  const Scratch* GetOrBuild(Slot* slot, BuildFn&& build_fn, bool* built) {
    *built = false;
    {
      MutexLock lock(slot->mutex);
      while (slot->building) slot->cv.Wait(slot->mutex);
      if (slot->table != nullptr) {
        return static_cast<const Scratch*>(slot->table.get());
      }
      slot->building = true;
    }
    // Build outside the lock: the table constructor allocates and the
    // insert loop streams the whole build partition.
    *built = true;
    std::unique_ptr<Scratch> table = build_fn();
    const Scratch* raw = table.get();
    std::shared_ptr<const void> erased(
        table.release(),
        [](const void* p) { delete static_cast<const Scratch*>(p); });
    MutexLock lock(slot->mutex);
    slot->table = std::move(erased);
    slot->building = false;
    slot->cv.NotifyAll();
    return raw;
  }

 private:
  std::unordered_map<uint32_t, std::unique_ptr<Slot>> slots_;
};

// Canonical per-phase allocation failpoints. Inline functions (not the
// macro) so every join TU evaluates the *same* registered failpoint --
// `alloc.partition=once` must be able to fail whichever algorithm runs
// next, exactly once, regardless of which TU it lives in.
inline bool PartitionAllocFailpoint() {
  return MMJOIN_FAILPOINT("alloc.partition");
}
inline bool BuildAllocFailpoint() { return MMJOIN_FAILPOINT("alloc.build"); }
inline bool ProbeAllocFailpoint() { return MMJOIN_FAILPOINT("alloc.probe"); }

inline Status InjectedAllocError(const char* phase) {
  return ResourceExhaustedError(
      std::string("injected allocation failure in ") + phase +
      " phase (failpoint alloc." + phase + ")");
}

// Forces the radix joins onto the spill-wave degradation path regardless of
// the budget arithmetic, so tests can drive stage 2 deterministically (see
// docs/ROBUSTNESS.md). Evaluated only by PlanJoin.
inline bool WaveBudgetFailpoint() { return MMJOIN_FAILPOINT("budget.wave"); }

// NumaBuffer::TryCreate with the allocator's status tagged by phase: the
// code and message pass through, prefixed with `what`.
template <typename T>
StatusOr<numa::NumaBuffer<T>> TryBuffer(numa::NumaSystem* system,
                                        std::size_t count,
                                        numa::Placement placement,
                                        const char* what, int home_node = 0) {
  auto buffer =
      numa::NumaBuffer<T>::TryCreate(system, count, placement, home_node);
  if (!buffer.ok()) {
    return Status(buffer.status().code(),
                  std::string(what) + ": " + buffer.status().message());
  }
  return buffer;
}

// Per-thread match accumulator, cache-line padded against false sharing.
// The live fields sit in a nested struct so the padding is derived from
// their actual layout instead of hand-counted member sizes (which silently
// rots when a field is added or resized).
struct ThreadStatsFields {
  uint64_t matches = 0;
  uint64_t checksum = 0;
};

struct alignas(kCacheLineSize) ThreadStats : ThreadStatsFields {
  char padding[kCacheLineSize - sizeof(ThreadStatsFields)];
};
static_assert(sizeof(ThreadStatsFields) < kCacheLineSize,
              "ThreadStats fields must leave room for padding");
static_assert(sizeof(ThreadStats) == kCacheLineSize,
              "ThreadStats must occupy exactly one cache line");

MMJOIN_ALWAYS_INLINE void AccumulateMatch(ThreadStats* stats, Tuple build,
                                          Tuple probe) {
  ++stats->matches;
  stats->checksum +=
      static_cast<uint64_t>(build.payload) + probe.payload;
}

inline JoinResult ReduceStats(const ThreadStats* stats, int num_threads) {
  JoinResult result;
  for (int t = 0; t < num_threads; ++t) {
    result.matches += stats[t].matches;
    result.checksum += stats[t].checksum;
  }
  return result;
}

// The per-run phase clock, the one timer of every join driver. Constructed
// at the start of the timed region, after working memory is allocated and
// prefaulted (the paper's buffer-manager assumption, Section 5.1). Workers
// time their phases with obs::PhaseScope on profiler(); thread 0 marks the
// wall-clock phase boundaries right after the barrier that closes a phase.
// Finish() turns the marks into PhaseTimes -- start to the partition mark is
// partition_ns, from there to the build mark build_ns, the rest probe_ns --
// so which marks a driver sets is its class's PhaseTimes pattern.
class RunClock {
 public:
  explicit RunClock(int num_threads)
      : profiler_(num_threads),
        start_ns_(NowNanos()),
        partition_end_ns_(start_ns_),
        build_end_ns_(start_ns_) {}

  obs::JoinPhaseProfiler& profiler() { return profiler_; }

  // Thread 0 only. Ends the partition phase; a join that builds per
  // co-partition task has no build phase of its own, so build ends too.
  void MarkPartitionEnd() { partition_end_ns_ = build_end_ns_ = NowNanos(); }
  // Thread 0 only. Ends the build phase (MWAY: the sort).
  void MarkBuildEnd() { build_end_ns_ = NowNanos(); }

  // Stops the clock and fills result->times and result->profile. Call after
  // the dispatch returned.
  void Finish(JoinResult* result) const {
    const int64_t end_ns = NowNanos();
    result->times.partition_ns = partition_end_ns_ - start_ns_;
    result->times.build_ns = build_end_ns_ - partition_end_ns_;
    result->times.probe_ns = end_ns - build_end_ns_;
    result->times.total_ns = end_ns - start_ns_;
    result->profile = profiler_.Finish();
  }

 private:
  obs::JoinPhaseProfiler profiler_;
  const int64_t start_ns_;
  int64_t partition_end_ns_;
  int64_t build_end_ns_;
};

// Exclusive upper bound of the build key domain: `provided` when nonzero,
// otherwise max key + 1 (scanned).
inline uint64_t InferKeyDomain(ConstTupleSpan build, uint64_t provided) {
  if (provided != 0) return provided;
  uint64_t max_key = 0;
  for (const Tuple& t : build) {
    if (t.key > max_key) max_key = t.key;
  }
  return max_key + 1;
}

// Batches matches into a MatchChunk and flushes it to the sink's
// ConsumeChunk -- one virtual call per up-to-1024 matches instead of one
// per match. Stack-allocated per probe task/fragment; the destructor
// flushes the remainder, so partial chunks at task boundaries are delivered
// (chunk *sizes* are therefore best-effort; consumers that care about
// density compact downstream, see exec::ChunkCompactor).
class MatchBuffer {
 public:
  MatchBuffer(MatchSink* sink, int tid) : sink_(sink), tid_(tid) {}
  ~MatchBuffer() { Flush(); }

  MatchBuffer(const MatchBuffer&) = delete;
  MatchBuffer& operator=(const MatchBuffer&) = delete;

  MMJOIN_ALWAYS_INLINE void Add(Tuple build, Tuple probe) {
    chunk_.Add(build, probe);
    if (MMJOIN_UNLIKELY(chunk_.full())) Flush();
  }

  void Flush() {
    if (chunk_.size == 0) return;
    sink_->ConsumeChunk(tid_, chunk_);
    chunk_.size = 0;
  }

 private:
  MatchSink* sink_;
  int tid_;
  MatchChunk chunk_;
};

// Probes probe[begin, end) against `table` (anything exposing Probe and
// ProbeUnique), accumulating into `local` and optionally feeding `sink`
// (chunk-batched through a MatchBuffer). The unique/sink dispatch happens
// once, outside the tight loops.
template <typename Table>
void ProbeRange(const Table& table, const Tuple* probe, uint64_t begin,
                uint64_t end, bool unique, MatchSink* sink, int tid,
                ThreadStats* local) {
  if (unique) {
    if (sink == nullptr) {
      for (uint64_t i = begin; i < end; ++i) {
        const Tuple s = probe[i];
        table.ProbeUnique(s.key,
                          [&](Tuple r) { AccumulateMatch(local, r, s); });
      }
    } else {
      MatchBuffer buffer(sink, tid);
      for (uint64_t i = begin; i < end; ++i) {
        const Tuple s = probe[i];
        table.ProbeUnique(s.key, [&](Tuple r) {
          AccumulateMatch(local, r, s);
          buffer.Add(r, s);
        });
      }
    }
  } else {
    if (sink == nullptr) {
      for (uint64_t i = begin; i < end; ++i) {
        const Tuple s = probe[i];
        table.Probe(s.key, [&](Tuple r) { AccumulateMatch(local, r, s); });
      }
    } else {
      MatchBuffer buffer(sink, tid);
      for (uint64_t i = begin; i < end; ++i) {
        const Tuple s = probe[i];
        table.Probe(s.key, [&](Tuple r) {
          AccumulateMatch(local, r, s);
          buffer.Add(r, s);
        });
      }
    }
  }
}

// The join drivers RunJoin (registry.cc) dispatches to, one translation
// unit each. They assume a validated config and leave the run protocol
// (failpoint gate, plan, budget reservation, join.* metrics) to RunJoin.
//
// NOP and NOPA: one driver over the global table, a NopLinearTable or a
// hash::ArrayTable (nop_join.cc).
using NopLinearTable = hash::LinearProbingTable<hash::IdentityHash>;
template <typename Table>
StatusOr<JoinResult> RunNopJoin(numa::NumaSystem* system,
                                const JoinConfig& config, ConstTupleSpan build,
                                ConstTupleSpan probe, uint64_t key_domain);
StatusOr<JoinResult> RunChtJoin(numa::NumaSystem* system,
                                const JoinConfig& config, ConstTupleSpan build,
                                ConstTupleSpan probe);
StatusOr<JoinResult> RunMwayJoin(numa::NumaSystem* system,
                                 const JoinConfig& config,
                                 ConstTupleSpan build, ConstTupleSpan probe,
                                 uint64_t key_domain);
// The nine partition-based joins (PR*, CPR*), all in radix_join.cc.
struct JoinPlan;
StatusOr<JoinResult> RunRadixJoin(const JoinPlan& plan,
                                  numa::NumaSystem* system,
                                  const JoinConfig& config,
                                  ConstTupleSpan build, ConstTupleSpan probe);

}  // namespace mmjoin::join::internal

#endif  // MMJOIN_JOIN_INTERNAL_H_
