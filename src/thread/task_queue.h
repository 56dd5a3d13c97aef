// Join-task queues and NUMA-aware scheduling orders.
//
// After partitioning, every PR*/CPR* algorithm joins co-partitions that are
// pulled from a task queue (paper Section 6.2). The original code inserts
// partition indices in ascending order into a LIFO queue; because partition
// indices correlate with virtual addresses, the first ~p/nodes tasks all
// read from the same NUMA region and saturate one memory controller. The
// improved-scheduling (iS) variants instead enqueue round-robin across NUMA
// nodes so all memory controllers are busy at once. Skew handling seeds
// extra probe-slice tasks for oversized partitions.
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

#include "numa/topology.h"
#include "util/annotations.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/types.h"

namespace mmjoin::thread {

// A join task: a co-partition, optionally restricted to a slice of the probe
// side (skew handling splits large probe partitions into slices).
struct JoinTask {
  uint32_t partition;
  uint32_t probe_slice = 0;
  uint32_t probe_slice_count = 1;
};

// Per-NUMA-node sharded work-stealing queue for the join phase of one run.
//
// Semantics (docs/EXECUTION.md "Sharded join scheduler"):
//  - A queue lives for exactly one join run (every spill wave of it), so it
//    never holds another run's tasks and its telemetry is the run's own.
//  - Seeding (single-threaded, between barriers): tasks arrive in global
//    consume order tagged with a preferred shard (the node their probe data
//    lives on). Within a shard, pops yield the seeded order -- so with one
//    active shard the consume order is exactly the seeded order, and the iS
//    round-robin order survives per shard.
//  - Runtime: a worker pops LIFO from its home shard (the paper's stack
//    semantics, newest == cache-warm). When the home shard is dry it steals
//    FIFO -- the task its victim would have run *last* -- walking remote
//    shards in Topology::NodesByDistance order. Every steal is counted in
//    the queue's thief x victim steal matrix.
//
// Seeding is phase-serial (one thread, before the barrier that releases the
// workers); Pop is fully concurrent.
class ShardedTaskQueue {
 public:
  // One shard per node of `topology`. `active_shards` (ascending, from
  // Topology::ActiveNodes) are the shards some worker polls locally; seeds
  // preferring an inactive shard are remapped onto an active one so no task
  // waits for a steal that may never come.
  ShardedTaskQueue(const numa::Topology& topology,
                   std::vector<int> active_shards);

  ShardedTaskQueue(const ShardedTaskQueue&) = delete;
  ShardedTaskQueue& operator=(const ShardedTaskQueue&) = delete;

  // Scheduling telemetry over the queue's lifetime.
  struct RunStats {
    uint64_t local_pops = 0;
    uint64_t tasks_stolen = 0;  // == the sum of steal_matrix
    uint64_t steal_remote_read_bytes = 0;
    // Row-major [thief_shard * num_shards + victim_shard] steal counts.
    std::vector<uint64_t> steal_matrix;
  };

  // Seeds one task in global consume order onto `preferred_shard`.
  void SeedTask(int preferred_shard, JoinTask task);

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

  RunStats run_stats() const;

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
  const std::vector<int> active_shards_;

  std::atomic<uint64_t> local_pops_{0};
  std::atomic<uint64_t> steal_remote_read_bytes_{0};
  // [thief * num_shards + victim] stolen-task counts.
  std::vector<std::atomic<uint64_t>> steals_;
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
