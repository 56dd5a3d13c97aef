// Common definitions for the thirteen join algorithms (paper Table 2).

#ifndef MMJOIN_JOIN_JOIN_DEFS_H_
#define MMJOIN_JOIN_JOIN_DEFS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/phase_profile.h"
#include "util/status.h"
#include "util/types.h"

namespace mmjoin::thread {
class Executor;
}  // namespace mmjoin::thread

namespace mmjoin::mem {
class BudgetTracker;
}  // namespace mmjoin::mem

namespace mmjoin::join {

// The thirteen algorithms of the study, in the order of paper Table 2.
enum class Algorithm {
  kPRB,    // basic two-pass parallel radix join (no SWWCB)        [Balkesen]
  kNOP,    // no-partitioning, lock-free linear probing            [Lang]
  kCHTJ,   // concise hash table join                              [Barber]
  kMWAY,   // multi-way sort-merge join                            [Balkesen]
  kNOPA,   // NOP with an array table                              [this]
  kPRO,    // one-pass radix join + SWWCB + NT streaming, chained  [Balkesen]
  kPRL,    // PRO with linear probing                              [this]
  kPRA,    // PRO with array tables                                [this]
  kCPRL,   // chunked radix join, linear probing                   [this]
  kCPRA,   // chunked radix join, array tables                     [this]
  kPROiS,  // PRO + NUMA round-robin task scheduling               [this]
  kPRLiS,  // PRL + improved scheduling                            [this]
  kPRAiS,  // PRA + improved scheduling                            [this]
};

// Join classes (paper Table 1).
enum class JoinClass {
  kPartitionBased,
  kNoPartitioning,
  kSortMerge,
};

struct AlgorithmInfo {
  Algorithm algorithm;
  const char* name;
  JoinClass join_class;
  const char* description;
  bool requires_dense_keys;  // array joins need a bounded key domain
};

const AlgorithmInfo& InfoOf(Algorithm algorithm);
const char* NameOf(Algorithm algorithm);
std::optional<Algorithm> AlgorithmFromName(std::string_view name);
const std::vector<Algorithm>& AllAlgorithms();

// Per-phase wall-clock breakdown of one run, measured by thread 0 at the
// barriers that close each phase. The three phases tile the timed region,
// so partition_ns + build_ns + probe_ns == total_ns exactly. Per class:
//  * PR*/CPR*: partition_ns is the radix partitioning (with spill waves, of
//    R only -- each wave's S partitioning runs inside the join phase);
//    build and probe run per co-partition task, so build_ns = 0 and
//    probe_ns covers both.
//  * NOP/NOPA/CHTJ: partition_ns = 0 (CHTJ's hash-prefix partitioning is
//    part of its build), then build_ns and probe_ns.
//  * MWAY: partition_ns, then the sort in build_ns and the merge-join in
//    probe_ns.
// JoinResult::profile has the per-thread view of the same run.
struct PhaseTimes {
  int64_t partition_ns = 0;
  int64_t build_ns = 0;
  int64_t probe_ns = 0;
  int64_t total_ns = 0;
};

// Scheduling telemetry of one PR*/CPR* run, counted by the run's own task
// queue over every spill wave (docs/EXECUTION.md). RunJoin adds the scalar
// fields to the join.* counters of the same names once per successful
// partition-based run; EXPLAIN prints the steal matrix. Joins that use no
// task queue report zeros.
struct TaskStats {
  uint64_t tasks_seeded = 0;        // tasks placed on the queue
  uint64_t skew_slices = 0;         // tasks beyond one per partition
  uint64_t skew_partitions = 0;     // partitions split into probe slices
  uint64_t tasks_stolen = 0;        // cross-node steals; sums steal_matrix
  uint64_t steal_remote_reads = 0;  // bytes thieves read across nodes
  // The run's NumaSystem node count; steal_matrix is row-major
  // [thief_node * num_nodes + victim_node], num_nodes^2 cells.
  int num_nodes = 0;
  std::vector<uint64_t> steal_matrix;
};

// Aggregate join output. `checksum` is the order-independent sum of
// build.payload + probe.payload over all matched pairs, so any two correct
// algorithms agree on (matches, checksum).
struct JoinResult {
  uint64_t matches = 0;
  uint64_t checksum = 0;
  PhaseTimes times;
  // Whitebox per-phase breakdown (per-thread min/max/mean wall clock, plus
  // hardware-counter deltas when observability was enabled).
  obs::PhaseProfile profile;
  // Output only: filled by the run, never read from a caller.
  TaskStats tasks;

  // The study's throughput metric: (|R| + |S|) / runtime, in million input
  // tuples per second (paper Section 1, definition from Lang et al.).
  double ThroughputMtps(uint64_t build_size, uint64_t probe_size) const {
    if (times.total_ns <= 0) return 0.0;
    return static_cast<double>(build_size + probe_size) /
           (static_cast<double>(times.total_ns) * 1e-9) / 1e6;
  }
};

// A batch of matched pairs crossing the join -> consumer boundary in one
// virtual call. Stored column-wise (struct-of-arrays) so chunk consumers --
// the vectorized pipeline in src/exec/, bulk materialization -- copy with
// three memcpys instead of a per-tuple loop. Both sides share the join key,
// so it is stored once.
struct MatchChunk {
  static constexpr uint32_t kCapacity = 1024;

  uint32_t size = 0;
  uint32_t key[kCapacity];
  uint32_t build_payload[kCapacity];
  uint32_t probe_payload[kCapacity];

  bool full() const { return size == kCapacity; }

  MMJOIN_ALWAYS_INLINE void Add(Tuple build, Tuple probe) {
    key[size] = probe.key;
    build_payload[size] = build.payload;
    probe_payload[size] = probe.payload;
    ++size;
  }
};

// Optional consumer of matched pairs (used by the TPC-H executors to build
// join indexes and by the exec:: pipeline to feed post-join operators).
// The join kernels batch matches into MatchChunks (see internal::MatchBuffer)
// and hand over whole chunks, one virtual call per up-to-1024 matches; chunk
// sizes are best-effort (task/fragment boundaries flush partial chunks), but
// a delivered chunk is never empty. ConsumeChunk may be called concurrently
// from different threads with distinct thread ids.
class MatchSink {
 public:
  virtual ~MatchSink() = default;
  virtual void ConsumeChunk(int thread_id, const MatchChunk& chunk) = 0;
};

struct JoinConfig {
  int num_threads = 4;
  // Radix bits for partition-based joins; 0 = predict via Equation (1),
  // floored at 8 partitions per thread. A pinned value is never raised.
  uint32_t radix_bits = 0;
  // Partitioning passes for the PR* family: 0 = algorithm default (PRB: 2,
  // everything else: 1); 1 or 2 forces the pass count (the Figure 2
  // single- vs two-pass study).
  uint32_t num_passes = 0;
  // Skew handling: probe partitions larger than `skew_factor` times the
  // average are split into that many probe slices (0 disables).
  uint32_t skew_task_factor = 8;
  // The build side is a primary key column (unique keys) -- the setting of
  // every workload in the paper. Probes then stop at the first match, which
  // keeps linear probing O(1) under the identity hash on dense domains. Set
  // false for general multiset build sides.
  bool build_unique = true;
  // Optional materialization of matched pairs.
  MatchSink* sink = nullptr;
  // Worker pool running the join's parallel phases. nullptr falls back to
  // the process-wide pool (thread::GlobalExecutor()); either way no OS
  // threads are spawned per join. core::Joiner points this at its own
  // persistent executor.
  thread::Executor* executor = nullptr;
  // Per-join memory budget in bytes -- the one place a join's budget is
  // set. nullopt = unbounded. When set (and no tracker is supplied below),
  // RunJoin creates a run-local mem::BudgetTracker for the duration of the
  // join and reserves the join's plan -- the bytes its tables and buffers
  // allocate -- once. PR*/CPR* degrade under a tight budget (radix bits,
  // passes, spill waves); the others admit or reject (ResourceExhausted)
  // their indivisible working set. See docs/ROBUSTNESS.md "Memory budgets".
  std::optional<uint64_t> mem_budget_bytes;
  // Externally owned tracker (e.g. a per-tenant budget shared by several
  // joins). Takes precedence over mem_budget_bytes. Not owned.
  mem::BudgetTracker* budget = nullptr;

  // Rejects configurations the kernels cannot execute safely: thread counts
  // outside [1, kMaxThreads], radix bits above kMaxRadixBits, more than two
  // partitioning passes, relation sizes whose partition buffers would
  // overflow size_t arithmetic, and explicit budgets of zero or below
  // kMinMemBudgetBytes. Checked by RunJoin before any allocation.
  Status Validate(uint64_t build_size, uint64_t probe_size) const;

  static constexpr int kMaxThreads = 1024;
  static constexpr uint32_t kMaxRadixBits = 27;
  static constexpr uint64_t kMaxRelationSize = 1ull << 40;
  // Smallest explicit budget Validate accepts: one mmap-class partition
  // buffer (mem::TryAllocateAligned's mmap threshold). Anything smaller
  // cannot hold even a single wave's scratch space.
  static constexpr uint64_t kMinMemBudgetBytes = 1ull << 20;
};

}  // namespace mmjoin::join

#endif  // MMJOIN_JOIN_JOIN_DEFS_H_
