#include "thread/task_queue.h"

#include <algorithm>
#include <string>
#include <utility>

namespace mmjoin::thread {

ShardedTaskQueue::ShardedTaskQueue(const numa::Topology& topology,
                                   std::vector<int> active_shards)
    : num_shards_(topology.num_nodes()),
      shards_(std::make_unique<Shard[]>(num_shards_)),
      steal_order_(num_shards_),
      active_shards_(std::move(active_shards)),
      steals_(static_cast<std::size_t>(num_shards_) * num_shards_) {
  MMJOIN_CHECK(num_shards_ >= 1);
  MMJOIN_CHECK(!active_shards_.empty());
  for (int s = 0; s < num_shards_; ++s) {
    steal_order_[s] = topology.NodesByDistance(s);
  }
}

int ShardedTaskQueue::MapShard(int preferred_shard) const {
  MMJOIN_DCHECK(preferred_shard >= 0 && preferred_shard < num_shards_);
  if (std::binary_search(active_shards_.begin(), active_shards_.end(),
                         preferred_shard)) {
    return preferred_shard;
  }
  // No worker polls this shard locally; spread orphaned seeds over the
  // active shards instead of waiting for a steal that may never come.
  return active_shards_[static_cast<std::size_t>(preferred_shard) %
                        active_shards_.size()];
}

void ShardedTaskQueue::SeedTask(int preferred_shard, JoinTask task) {
  Shard& shard = shards_[MapShard(preferred_shard)];
  MutexLock lock(shard.mutex);
  // Seeds arrive in consume order; push_front makes pop_back (the local
  // LIFO end) return them in exactly that order, and leaves the *latest*
  // consume-order task at the front where thieves take it first.
  shard.tasks.push_front(task);
}

bool ShardedTaskQueue::Pop(int shard_index, JoinTask* task,
                           int* stolen_from) {
  MMJOIN_DCHECK(shard_index >= 0 && shard_index < num_shards_);
  if (stolen_from != nullptr) *stolen_from = -1;
  {
    Shard& home = shards_[shard_index];
    MutexLock lock(home.mutex);
    if (!home.tasks.empty()) {
      *task = home.tasks.back();
      home.tasks.pop_back();
      local_pops_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (const int victim : steal_order_[shard_index]) {
    Shard& remote = shards_[victim];
    MutexLock lock(remote.mutex);
    if (remote.tasks.empty()) continue;
    *task = remote.tasks.front();
    remote.tasks.pop_front();
    steals_[static_cast<std::size_t>(shard_index) * num_shards_ + victim]
        .fetch_add(1, std::memory_order_relaxed);
    if (stolen_from != nullptr) *stolen_from = victim;
    return true;
  }
  return false;
}

ShardedTaskQueue::RunStats ShardedTaskQueue::run_stats() const {
  RunStats stats;
  stats.local_pops = local_pops_.load(std::memory_order_relaxed);
  stats.steal_remote_read_bytes =
      steal_remote_read_bytes_.load(std::memory_order_relaxed);
  stats.steal_matrix.reserve(steals_.size());
  for (const auto& cell : steals_) {
    stats.steal_matrix.push_back(cell.load(std::memory_order_relaxed));
    stats.tasks_stolen += stats.steal_matrix.back();
  }
  return stats;
}

std::size_t ShardedTaskQueue::SizeForTest() const {
  std::size_t total = 0;
  for (int s = 0; s < num_shards_; ++s) {
    MutexLock lock(shards_[s].mutex);
    total += shards_[s].tasks.size();
  }
  return total;
}

StatusOr<uint32_t> ProbeSliceCount(uint64_t partition_size, uint64_t avg,
                                   uint32_t skew_factor,
                                   uint32_t max_slices) {
  if (skew_factor == 0) return uint32_t{1};
  MMJOIN_CHECK(avg >= 1);
  MMJOIN_CHECK(max_slices >= 1);
  if (avg > UINT64_MAX / skew_factor) {
    return InvalidArgumentError(
        "skew threshold overflows uint64: avg partition size " +
        std::to_string(avg) + " * skew_task_factor " +
        std::to_string(skew_factor));
  }
  const uint64_t threshold = avg * skew_factor;
  if (partition_size <= threshold) return uint32_t{1};
  // CeilDiv cannot overflow (partition_size > threshold >= 1), but the
  // result may exceed what a JoinTask can carry -- clamp to the explicit
  // cap instead of the historical silent uint32_t truncation.
  const uint64_t slices = (partition_size + threshold - 1) / threshold;
  return static_cast<uint32_t>(
      std::min<uint64_t>(slices, std::min<uint64_t>(max_slices,
                                                    partition_size)));
}

StatusOr<SkewTaskList> BuildSkewTasks(
    const std::vector<uint64_t>& probe_partition_sizes,
    const std::vector<uint32_t>& order, uint32_t skew_factor,
    uint64_t probe_size, uint32_t max_slices) {
  const uint64_t num_partitions = probe_partition_sizes.size();
  MMJOIN_CHECK(order.size() == num_partitions);
  const uint64_t avg =
      std::max<uint64_t>(probe_size / std::max<uint64_t>(num_partitions, 1),
                         1);
  SkewTaskList list;
  list.consume_order.reserve(order.size());
  for (const uint32_t p : order) {
    MMJOIN_ASSIGN_OR_RETURN(
        const uint32_t slices,
        ProbeSliceCount(probe_partition_sizes[p], avg, skew_factor,
                        max_slices));
    if (slices > 1) {
      list.skew_slices += slices - 1;
      ++list.skew_partitions;
      list.skewed_partitions.push_back(p);
    }
    for (uint32_t s = 0; s < slices; ++s) {
      list.consume_order.push_back(JoinTask{p, s, slices});
    }
  }
  std::sort(list.skewed_partitions.begin(), list.skewed_partitions.end());
  return list;
}

std::vector<uint32_t> SequentialOrder(uint32_t num_partitions) {
  std::vector<uint32_t> order(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) order[p] = p;
  return order;
}

std::vector<uint32_t> RoundRobinNodeOrder(uint32_t num_partitions,
                                          int num_nodes) {
  MMJOIN_CHECK(num_nodes >= 1);
  const uint32_t nodes = static_cast<uint32_t>(num_nodes);
  const uint32_t block = (num_partitions + nodes - 1) / nodes;

  std::vector<uint32_t> order;
  order.reserve(num_partitions);
  for (uint32_t offset = 0; offset < block; ++offset) {
    for (uint32_t node = 0; node < nodes; ++node) {
      const uint32_t partition = node * block + offset;
      if (partition < num_partitions) order.push_back(partition);
    }
  }
  MMJOIN_CHECK(order.size() == num_partitions);
  return order;
}

}  // namespace mmjoin::thread
