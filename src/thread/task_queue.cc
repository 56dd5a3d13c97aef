#include "thread/task_queue.h"

#include <algorithm>
#include <string>

#include "numa/system.h"

namespace mmjoin::thread {

ShardedTaskQueue::ShardedTaskQueue(int num_shards)
    : num_shards_(num_shards),
      shards_(std::make_unique<Shard[]>(num_shards)),
      steal_order_(num_shards) {
  MMJOIN_CHECK(num_shards >= 1);
  const numa::Topology topology(num_shards);
  for (int s = 0; s < num_shards; ++s) {
    steal_order_[s] = topology.NodesByDistance(s);
  }
}

void ShardedTaskQueue::BeginRun(std::vector<int> active_shards,
                                numa::NumaSystem* system) {
  MMJOIN_CHECK(!active_shards.empty());
  for (int s = 0; s < num_shards_; ++s) {
    MutexLock lock(shards_[s].mutex);
    shards_[s].tasks.clear();
  }
  active_shards_ = std::move(active_shards);
  system_ = system;
  local_pops_.store(0, std::memory_order_relaxed);
  tasks_stolen_.store(0, std::memory_order_relaxed);
  steal_remote_read_bytes_.store(0, std::memory_order_relaxed);
}

int ShardedTaskQueue::MapShard(int preferred_shard) const {
  MMJOIN_DCHECK(preferred_shard >= 0 && preferred_shard < num_shards_);
  if (active_shards_.empty()) return preferred_shard;
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

void ShardedTaskQueue::Push(int shard_index, JoinTask task) {
  MMJOIN_DCHECK(shard_index >= 0 && shard_index < num_shards_);
  Shard& shard = shards_[shard_index];
  MutexLock lock(shard.mutex);
  shard.tasks.push_back(task);
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
    tasks_stolen_.fetch_add(1, std::memory_order_relaxed);
    if (system_ != nullptr) system_->CountTaskSteal(shard_index, victim);
    if (stolen_from != nullptr) *stolen_from = victim;
    return true;
  }
  return false;
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
