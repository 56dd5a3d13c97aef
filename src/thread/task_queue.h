// Join-task queues and NUMA-aware scheduling orders.
//
// After partitioning, every PR*/CPR* algorithm joins co-partitions that are
// pulled from a shared task queue (paper Section 6.2). The original code
// inserts partition indices in ascending order into a LIFO queue; because
// partition indices correlate with virtual addresses, the first ~p/nodes
// tasks all read from the same NUMA region and saturate one memory
// controller. The improved-scheduling (iS) variants instead enqueue
// round-robin across NUMA nodes so all memory controllers are busy at once.
// Skew handling pushes extra sub-tasks onto the queue at runtime.
//
// The queue here, ShardedTaskQueue, keeps one deque per NUMA node with
// distance-ordered FIFO stealing; with a single active shard it pops in the
// paper's single-stack LIFO order.

#ifndef MMJOIN_THREAD_TASK_QUEUE_H_
#define MMJOIN_THREAD_TASK_QUEUE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "util/annotations.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/types.h"

namespace mmjoin::numa {
class NumaSystem;
}  // namespace mmjoin::numa

namespace mmjoin::thread {

// A join task: a co-partition, optionally restricted to a slice of the probe
// side (skew handling splits large probe partitions into slices).
struct JoinTask {
  uint32_t partition;
  uint32_t probe_slice = 0;
  uint32_t probe_slice_count = 1;
};

// Per-NUMA-node sharded work-stealing queue for the join phase.
//
// Semantics (docs/EXECUTION.md "Sharded join scheduler"):
//  - Seeding (single-threaded, between barriers): tasks arrive in global
//    consume order tagged with a preferred shard (the node their probe data
//    lives on). Within a shard, pops yield the seeded order -- so with one
//    active shard the consume order is exactly the seeded order, and the iS
//    round-robin order survives per shard.
//  - Runtime: a worker pops LIFO from its home shard (the paper's stack
//    semantics, newest == cache-warm). When the home shard is dry it steals
//    FIFO -- the task its victim would have run *last* -- walking remote
//    shards in Topology::NodesByDistance order. Steals are counted in the
//    run stats and, when a NumaSystem was attached, in its thief x victim
//    steal matrix.
//  - BeginRun rearms the queue for a join run: clears every shard (a prior
//    aborted run may have left tasks behind) and zeroes the run stats. It
//    must be the *first* seeding step so a failed seed leaves an empty
//    queue, never a stale one.
//
// Seeding/BeginRun are phase-serial (one thread, before the barrier that
// releases the workers); Push/Pop are fully concurrent.
class ShardedTaskQueue {
 public:
  explicit ShardedTaskQueue(int num_shards);

  ShardedTaskQueue(const ShardedTaskQueue&) = delete;
  ShardedTaskQueue& operator=(const ShardedTaskQueue&) = delete;

  // Per-run scheduling telemetry; reset by BeginRun.
  struct RunStats {
    uint64_t local_pops = 0;
    uint64_t tasks_stolen = 0;
    uint64_t steal_remote_read_bytes = 0;
  };

  // Rearms the queue for one join run. `active_shards` (ascending, from
  // Topology::ActiveNodes) are the shards some worker polls locally; seeds
  // preferring an inactive shard are remapped onto an active one so no task
  // waits for a steal that may never come. `system` (optional) receives
  // CountTaskSteal events; it must outlive the run.
  void BeginRun(std::vector<int> active_shards, numa::NumaSystem* system);

  // Seeds one task in global consume order onto `preferred_shard`.
  void SeedTask(int preferred_shard, JoinTask task);

  // Runtime push (skew sub-tasks split mid-run): LIFO -- the pushing shard
  // pops it next.
  void Push(int shard, JoinTask task);

  // Pops the newest local task, or -- when `shard` is dry -- steals the
  // oldest task of the nearest non-empty shard. Returns false only when
  // every shard is empty. `stolen_from` (optional) is set to the victim
  // shard, -1 for a local pop.
  bool Pop(int shard, JoinTask* task, int* stolen_from = nullptr);

  // Attributes remote bytes a worker read *because* a task was stolen
  // (probe slice + any build fragments it gathered for it).
  void AddStealReadBytes(uint64_t bytes) {
    steal_remote_read_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

  RunStats run_stats() const {
    RunStats stats;
    stats.local_pops = local_pops_.load(std::memory_order_relaxed);
    stats.tasks_stolen = tasks_stolen_.load(std::memory_order_relaxed);
    stats.steal_remote_read_bytes =
        steal_remote_read_bytes_.load(std::memory_order_relaxed);
    return stats;
  }

  int num_shards() const { return num_shards_; }
  std::size_t SizeForTest() const;

 private:
  // One deque per NUMA node, each on its own cache line so a worker hammering
  // its home shard's mutex does not false-share with its neighbours'.
  struct alignas(kCacheLineSize) Shard {
    Mutex mutex;
    std::deque<JoinTask> tasks MMJOIN_GUARDED_BY(mutex);
  };
  static_assert(alignof(Shard) == kCacheLineSize,
                "Shard must be cache-line aligned against false sharing");

  int MapShard(int preferred_shard) const;

  const int num_shards_;
  // unique_ptr<Shard[]>: Mutex is immovable, so a vector cannot hold Shards.
  std::unique_ptr<Shard[]> shards_;
  // steal_order_[s]: the other shards in Topology::NodesByDistance(s) order.
  std::vector<std::vector<int>> steal_order_;

  // Written by BeginRun/SeedTask on the seeding thread before the barrier
  // that releases the workers (which orders them); read-only during the run.
  std::vector<int> active_shards_;
  numa::NumaSystem* system_ = nullptr;

  std::atomic<uint64_t> local_pops_{0};
  std::atomic<uint64_t> tasks_stolen_{0};
  std::atomic<uint64_t> steal_remote_read_bytes_{0};
};

// Skew-task construction shared by the PR* and CPR* seeders.
//
// A probe partition larger than avg * skew_factor is split into
// ceil(size / (avg * skew_factor)) probe-slice tasks ("assigning multiple
// threads to an individual partition", Section 6.2), capped at
// kMaxProbeSlicesPerPartition: a slice count that large only happens under
// pathological skew where more slices stopped adding parallelism long ago,
// and the cap is what keeps the count representable -- the historical
// unchecked uint32_t cast could truncate (even to zero, corrupting the
// slice arithmetic downstream).
inline constexpr uint32_t kMaxProbeSlicesPerPartition = uint32_t{1} << 16;

// Slice count for one partition. Errors (InvalidArgument) when
// avg * skew_factor overflows uint64 -- no sane configuration reaches that,
// so it is reported, not clamped. `max_slices` lets CPR cap at its chunk
// count (slices partition the chunk range there).
StatusOr<uint32_t> ProbeSliceCount(uint64_t partition_size, uint64_t avg,
                                   uint32_t skew_factor, uint32_t max_slices);

// The task list for one join run, in consume order, plus the skew telemetry
// the counters export (docs/OBSERVABILITY.md):
//   skew_slices      tasks beyond one per partition, i.e.
//                    consume_order.size() == num_partitions + skew_slices
//   skew_partitions  partitions split into more than one slice
struct SkewTaskList {
  std::vector<JoinTask> consume_order;
  uint64_t skew_slices = 0;
  uint64_t skew_partitions = 0;
  std::vector<uint32_t> skewed_partitions;  // ascending partition order
};

StatusOr<SkewTaskList> BuildSkewTasks(
    const std::vector<uint64_t>& probe_partition_sizes,
    const std::vector<uint32_t>& order, uint32_t skew_factor,
    uint64_t probe_size,
    uint32_t max_slices = kMaxProbeSlicesPerPartition);

// Scheduling orders. Both return the sequence in which partition indices are
// *consumed*; the queue is seeded so pops yield this order.
//
// Sequential: 0, 1, 2, ... (the original PR* behaviour -- consecutive
// partitions live on the same node).
std::vector<uint32_t> SequentialOrder(uint32_t num_partitions);

// Round-robin over nodes: one partition from node 0's block, then one from
// node 1's block, etc. (the iS variants). Partition p lives in block
// floor(p / ceil(P/nodes)) because partitioned output memory is
// chunked-round-robin over nodes.
std::vector<uint32_t> RoundRobinNodeOrder(uint32_t num_partitions,
                                          int num_nodes);

}  // namespace mmjoin::thread

#endif  // MMJOIN_THREAD_TASK_QUEUE_H_
