// Per-join memory budgets: reservation-based admission control.
//
// A BudgetTracker holds a byte budget for one join run or for one service
// tenant's concurrent joins. The tracker is deliberately a planning-level
// gate, not a malloc shim: join::RunJoin plans each run (join::PlanJoin,
// which sizes it from the tables' and buffers' own BytesFor) and reserves
// the planned bytes once, before any allocation, releasing them when the
// run ends. A plan that was admitted never fails half-way through the join
// on a budget check -- degradation decisions (re-plan radix bits, drop to
// one pass, spill-wave the probe side) all happen up front in the plan.
// Actual resident bytes are tracked independently by AllocStats
// (mem.current_bytes / mem.peak_bytes).
//
// The `budget.reserve` failpoint injects a reservation failure at the top of
// Reserve() so every rejection edge is drivable deterministically; the
// companion `budget.wave` failpoint (evaluated by join::PlanJoin for the
// PR*/CPR* joins) forces the spill-wave path without constructing a
// borderline budget.

#ifndef MMJOIN_MEM_BUDGET_H_
#define MMJOIN_MEM_BUDGET_H_

#include <atomic>
#include <cstdint>

#include "util/status.h"

namespace mmjoin::mem {

// Process-wide budget event counters, exported as mem.budget_* by the
// metrics registry (see docs/OBSERVABILITY.md).
struct BudgetStats {
  uint64_t reservations = 0;  // successful Reserve() calls
  uint64_t rejections = 0;    // Reserve() denials (real or injected)
  uint64_t replans = 0;       // stage-1 degradations (bits/passes re-planned)
  uint64_t waves = 0;         // joins that entered spill-wave mode
  uint64_t wave_rounds = 0;   // total wave iterations across all joins
};

BudgetStats GetBudgetStats();
// Single-run harnesses only: the counters are process-global, so a reset
// while another join runs (service lanes) clobbers that join's window --
// concurrent measurement uses monotonic deltas (core::BuildExplainReport),
// never resets.
void ResetBudgetStats();

// Degradation-stage accounting, called by join::RunJoin (and per wave by the
// radix driver) when a stage fires, so tests and operators can see *which*
// edge a run took.
void CountBudgetReplan();
void CountBudgetWave();
void CountBudgetWaveRound();

// Reserve/release accounting against a fixed byte budget. Thread-safe: all
// counters are atomics; Reserve admits with a CAS loop so concurrent
// reservations never overshoot the budget.
class BudgetTracker {
 public:
  // budget_bytes == 0 means unbounded: Reserve always succeeds (but still
  // accounts, so peak_reserved_bytes() reports the plan-level working set).
  explicit BudgetTracker(uint64_t budget_bytes = 0)
      : budget_bytes_(budget_bytes) {}

  BudgetTracker(const BudgetTracker&) = delete;
  BudgetTracker& operator=(const BudgetTracker&) = delete;

  bool bounded() const { return budget_bytes_ != 0; }
  uint64_t budget_bytes() const { return budget_bytes_; }

  // Admits `bytes` against the budget, or returns ResourceExhausted naming
  // `what`, the request, and the budget state. The `budget.reserve`
  // failpoint forces the rejection path.
  Status Reserve(uint64_t bytes, const char* what);

  // Returns `bytes` previously admitted by Reserve.
  void Release(uint64_t bytes);

  uint64_t reserved_bytes() const {
    return reserved_.load(std::memory_order_relaxed);
  }
  uint64_t peak_reserved_bytes() const {
    return peak_.load(std::memory_order_relaxed);
  }
  // Bytes still admissible (max uint64 when unbounded).
  uint64_t available_bytes() const;

 private:
  void UpdatePeak(uint64_t now);

  const uint64_t budget_bytes_;
  std::atomic<uint64_t> reserved_{0};
  std::atomic<uint64_t> peak_{0};
};

// RAII reservation: acquires bytes from a tracker and releases them on
// destruction. Move-only. Acquire on a null or unbounded-and-absent tracker
// returns an empty reservation whose destructor is a no-op, so call sites
// stay branch-free.
class BudgetReservation {
 public:
  BudgetReservation() = default;

  // tracker == nullptr => empty reservation, always OK, no charge.
  static StatusOr<BudgetReservation> Acquire(BudgetTracker* tracker,
                                             uint64_t bytes, const char* what);

  ~BudgetReservation() { Release(); }

  BudgetReservation(BudgetReservation&& other) noexcept {
    *this = static_cast<BudgetReservation&&>(other);
  }
  BudgetReservation& operator=(BudgetReservation&& other) noexcept {
    if (this != &other) {
      Release();
      tracker_ = other.tracker_;
      bytes_ = other.bytes_;
      other.tracker_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  BudgetReservation(const BudgetReservation&) = delete;
  BudgetReservation& operator=(const BudgetReservation&) = delete;

  // Returns the reserved bytes to the tracker early (idempotent).
  void Release() {
    if (tracker_ != nullptr && bytes_ != 0) tracker_->Release(bytes_);
    tracker_ = nullptr;
    bytes_ = 0;
  }

  uint64_t bytes() const { return bytes_; }
  bool empty() const { return tracker_ == nullptr; }

 private:
  BudgetReservation(BudgetTracker* tracker, uint64_t bytes)
      : tracker_(tracker), bytes_(bytes) {}

  BudgetTracker* tracker_ = nullptr;  // single-owner: borrowed, not owned
  uint64_t bytes_ = 0;                // single-owner: mutated only via moves
};

}  // namespace mmjoin::mem

#endif  // MMJOIN_MEM_BUDGET_H_
