// Unit tests for the threading primitives: the persistent executor, barrier,
// chunk ranges, and the task-queue scheduling orders.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "numa/system.h"
#include "thread/executor.h"
#include "thread/task_queue.h"
#include "thread/thread_team.h"
#include "util/status.h"

namespace mmjoin::thread {
namespace {

TEST(Barrier, SynchronizesPhases) {
  // A standalone Barrier (not the executor's team barrier) across one
  // dispatch.
  constexpr int kThreads = 6;
  Barrier barrier(kThreads);
  std::atomic<int> phase1{0};
  std::atomic<bool> violated{false};
  ASSERT_TRUE(GlobalExecutor().Dispatch(kThreads, [&](const WorkerContext&) {
    phase1.fetch_add(1);
    barrier.ArriveAndWait();
    // After the barrier every thread must observe all phase-1 increments.
    if (phase1.load() != kThreads) violated = true;
    barrier.ArriveAndWait();  // reusable
    barrier.ArriveAndWait();
  }).ok());
  EXPECT_FALSE(violated.load());
}

TEST(ChunkRange, CoversTotalWithoutOverlap) {
  for (const std::size_t total : {0ul, 1ul, 7ul, 100ul, 1001ul}) {
    for (const int threads : {1, 2, 3, 7, 16}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (int t = 0; t < threads; ++t) {
        const Range r = ChunkRange(total, threads, t);
        EXPECT_EQ(r.begin, prev_end);
        prev_end = r.end;
        covered += r.size();
      }
      EXPECT_EQ(prev_end, total);
      EXPECT_EQ(covered, total);
    }
  }
}

TEST(ChunkRange, NearEqualSizes) {
  for (int t = 0; t < 7; ++t) {
    const Range r = ChunkRange(100, 7, t);
    EXPECT_GE(r.size(), 14u);
    EXPECT_LE(r.size(), 15u);
  }
}

TEST(ChunkRange, MoreThreadsThanElements) {
  // num_threads > total: the first `total` threads get one element each, the
  // surplus threads get empty ranges at the boundary, never out of range.
  const std::size_t total = 3;
  const int threads = 8;
  std::size_t covered = 0;
  for (int t = 0; t < threads; ++t) {
    const Range r = ChunkRange(total, threads, t);
    EXPECT_LE(r.begin, total);
    EXPECT_LE(r.end, total);
    EXPECT_LE(r.begin, r.end);
    if (t < static_cast<int>(total)) {
      EXPECT_EQ(r.size(), 1u);
    } else {
      EXPECT_EQ(r.size(), 0u);
      EXPECT_EQ(r.begin, total);
    }
    covered += r.size();
  }
  EXPECT_EQ(covered, total);
}

TEST(Executor, PoolIsReusedAcrossManyDispatches) {
  Executor executor(8);
  EXPECT_EQ(executor.num_threads(), 8);
  EXPECT_EQ(executor.pool_size(), 8);

  std::atomic<uint64_t> sum{0};
  constexpr int kDispatches = 120;
  for (int i = 0; i < kDispatches; ++i) {
    ASSERT_TRUE(executor.Dispatch([&](const WorkerContext& ctx) {
      sum.fetch_add(static_cast<uint64_t>(ctx.thread_id) + 1);
    }).ok());
  }
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(kDispatches) * (1 + 8) * 8 / 2);

  // Pool reuse: >= 100 dispatches, zero thread growth.
  const ExecutorStats stats = executor.stats();
  EXPECT_EQ(stats.threads_spawned, 8u);
  EXPECT_EQ(executor.pool_size(), 8);
  EXPECT_EQ(stats.dispatches, static_cast<uint64_t>(kDispatches));
  EXPECT_EQ(stats.max_team_size, 8u);
}

TEST(Executor, SmallerTeamsRunOnTheSamePool) {
  Executor executor(6);
  for (const int team : {1, 2, 5, 6, 3}) {
    std::vector<std::atomic<int>> counts(team);
    for (auto& c : counts) c = 0;
    ASSERT_TRUE(executor.Dispatch(team, [&](const WorkerContext& ctx) {
      EXPECT_EQ(ctx.num_threads, team);
      counts[ctx.thread_id].fetch_add(1);
    }).ok());
    for (const auto& c : counts) EXPECT_EQ(c.load(), 1);
  }
  EXPECT_EQ(executor.stats().threads_spawned, 6u);
}

TEST(Executor, GrowsOnceForOversizedTeams) {
  Executor executor(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        executor.Dispatch(9, [&](const WorkerContext&) { ran.fetch_add(1); })
            .ok());
  }
  EXPECT_EQ(ran.load(), 90);
  // Grown to 9 on the first oversized dispatch, then reused.
  EXPECT_EQ(executor.stats().threads_spawned, 9u);
  EXPECT_EQ(executor.pool_size(), 9);
}

TEST(Executor, BarrierSeparatesPhasesAcrossEpochs) {
  Executor executor(5);
  // Run several epochs; within each, three barrier-separated phases must
  // never observe a stale previous phase (the reusable-barrier guarantee all
  // join algorithms depend on).
  for (int epoch = 0; epoch < 25; ++epoch) {
    std::atomic<int> phase1{0};
    std::atomic<int> phase2{0};
    std::atomic<bool> violated{false};
    ASSERT_TRUE(executor.Dispatch([&](const WorkerContext& ctx) {
      phase1.fetch_add(1);
      ctx.barrier->ArriveAndWait();
      if (phase1.load() != ctx.num_threads) violated = true;
      phase2.fetch_add(1);
      ctx.barrier->ArriveAndWait();
      if (phase2.load() != ctx.num_threads) violated = true;
      ctx.barrier->ArriveAndWait();  // trailing barrier reuses cleanly
    }).ok());
    EXPECT_FALSE(violated.load());
  }
}

// Barrier-wait and idle accounting are always on, not gated by
// observability (which is off by default, as here).
TEST(Executor, BarrierWaitAndIdleAccrueWithoutObservability) {
  Executor executor(2);
  const ExecutorStats before = executor.stats();
  constexpr auto kPause = std::chrono::milliseconds(5);
  constexpr uint64_t kPauseNs = 5'000'000;
  // Thread 0 waits at the barrier while thread 1 sleeps.
  ASSERT_TRUE(executor.Dispatch([&](const WorkerContext& ctx) {
    if (ctx.thread_id == 1) std::this_thread::sleep_for(kPause);
    ctx.barrier->ArriveAndWait();
  }).ok());
  const ExecutorStats after_wait = executor.stats();
  EXPECT_GE(after_wait.barrier_wait_ns - before.barrier_wait_ns, kPauseNs / 2);
  // Both workers sit parked between the two dispatches; their idle time is
  // counted when the second dispatch wakes them.
  std::this_thread::sleep_for(kPause);
  ASSERT_TRUE(executor.Dispatch([](const WorkerContext&) {}).ok());
  EXPECT_GE(executor.stats().idle_ns - after_wait.idle_ns, kPauseNs);
}

TEST(Executor, NodeAssignmentFollowsTopology) {
  const numa::Topology topology(4);
  Executor executor(8, /*num_nodes=*/4);
  std::vector<int> nodes(8, -1);
  ASSERT_TRUE(executor.Dispatch([&](const WorkerContext& ctx) {
    nodes[ctx.thread_id] = ctx.node;
  }).ok());
  for (int tid = 0; tid < 8; ++tid) {
    EXPECT_EQ(nodes[tid], topology.NodeOfThread(tid, 8)) << tid;
  }
  // The placement is stable: a second dispatch sees identical nodes.
  ASSERT_TRUE(executor.Dispatch([&](const WorkerContext& ctx) {
    EXPECT_EQ(ctx.node, nodes[ctx.thread_id]);
  }).ok());
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  Executor executor(4);
  std::vector<std::atomic<int>> hits(1001);
  for (auto& h : hits) h = 0;
  ASSERT_TRUE(
      executor
          .ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end,
                                        const WorkerContext&) {
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          })
          .ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, TotalSmallerThanTeam) {
  Executor executor(8);
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h = 0;
  std::atomic<int> nonempty_chunks{0};
  ASSERT_TRUE(
      executor
          .ParallelFor(hits.size(), [&](std::size_t begin, std::size_t end,
                                        const WorkerContext&) {
            nonempty_chunks.fetch_add(1);
            for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
          })
          .ok());
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Surplus workers received empty chunks and never saw the closure.
  EXPECT_EQ(nonempty_chunks.load(), 3);
}

TEST(ParallelFor, TotalZeroDispatchesNothing) {
  Executor executor(4);
  const uint64_t before = executor.stats().dispatches;
  std::atomic<int> calls{0};
  ASSERT_TRUE(executor
                  .ParallelFor(0, [&](std::size_t, std::size_t,
                                      const WorkerContext&) {
                    calls.fetch_add(1);
                  })
                  .ok());
  EXPECT_EQ(calls.load(), 0);
  EXPECT_EQ(executor.stats().dispatches, before);
}

TEST(SchedulingOrder, SequentialIsIdentity) {
  const std::vector<uint32_t> order = SequentialOrder(5);
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2, 3, 4}));
}

TEST(SchedulingOrder, RoundRobinCyclesNodes) {
  // 8 partitions, 4 nodes -> blocks of 2: 0,2,4,6 then 1,3,5,7.
  const std::vector<uint32_t> order = RoundRobinNodeOrder(8, 4);
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 2, 4, 6, 1, 3, 5, 7}));
}

TEST(SchedulingOrder, RoundRobinIsAPermutation) {
  for (const uint32_t p : {1u, 7u, 16u, 100u, 16384u}) {
    for (const int nodes : {1, 2, 4, 8}) {
      const std::vector<uint32_t> order = RoundRobinNodeOrder(p, nodes);
      std::set<uint32_t> unique(order.begin(), order.end());
      EXPECT_EQ(order.size(), p);
      EXPECT_EQ(unique.size(), p);
      EXPECT_EQ(*unique.rbegin(), p - 1);
    }
  }
}

TEST(SchedulingOrder, RoundRobinFirstTasksSpanAllNodes) {
  // The fix the paper proposes: the first `nodes` tasks must touch distinct
  // memory blocks so all memory controllers are busy.
  const uint32_t partitions = 16384;
  const int nodes = 4;
  const std::vector<uint32_t> order = RoundRobinNodeOrder(partitions, nodes);
  const uint32_t block = partitions / nodes;
  std::set<uint32_t> blocks;
  for (int i = 0; i < nodes; ++i) blocks.insert(order[i] / block);
  EXPECT_EQ(blocks.size(), static_cast<std::size_t>(nodes));
}

// --- ShardedTaskQueue -----------------------------------------------------

std::vector<int> AllShards(int n) {
  std::vector<int> shards(n);
  std::iota(shards.begin(), shards.end(), 0);
  return shards;
}

TEST(ShardedTaskQueue, LocalPopsFollowSeedOrder) {
  ShardedTaskQueue queue(numa::Topology(4), AllShards(4));
  // Seeds arrive in consume order; local pops must replay it exactly.
  queue.SeedTask(0, JoinTask{1});
  queue.SeedTask(0, JoinTask{2});
  queue.SeedTask(0, JoinTask{3});
  JoinTask task;
  int stolen_from = -2;
  ASSERT_TRUE(queue.Pop(0, &task, &stolen_from));
  EXPECT_EQ(task.partition, 1u);
  EXPECT_EQ(stolen_from, -1);  // local
  ASSERT_TRUE(queue.Pop(0, &task));
  EXPECT_EQ(task.partition, 2u);
  ASSERT_TRUE(queue.Pop(0, &task));
  EXPECT_EQ(task.partition, 3u);
  EXPECT_FALSE(queue.Pop(0, &task));
}

TEST(ShardedTaskQueue, SingleActiveShardMatchesGlobalQueueOrder) {
  // The 1-thread contract: with one active shard, every seed remaps there
  // and shard 0 pops exactly the seeded consume order -- the paper's single
  // global LIFO stack seeded in reverse.
  const std::vector<uint32_t> order = RoundRobinNodeOrder(16, 4);
  ShardedTaskQueue sharded(numa::Topology(4), {0});
  for (const uint32_t p : order) {
    // Preferred shards vary (as the real seeder's NodeOfOffset does) but
    // only shard 0 is active.
    sharded.SeedTask(static_cast<int>(p) % 4, JoinTask{p});
  }
  JoinTask from_sharded;
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(sharded.Pop(0, &from_sharded));
    EXPECT_EQ(from_sharded.partition, order[i]) << "pop " << i;
  }
  EXPECT_FALSE(sharded.Pop(0, &from_sharded));
}

TEST(ShardedTaskQueue, StealsWalkNodesByDistanceAndTakeFifoEnd) {
  // 4-node ring: from node 0 the steal order is [1, 3, 2] (both neighbours
  // before the opposite node, ties toward the lower index).
  ShardedTaskQueue queue(numa::Topology(4), AllShards(4));
  queue.SeedTask(1, JoinTask{10});
  queue.SeedTask(1, JoinTask{11});
  queue.SeedTask(2, JoinTask{20});
  queue.SeedTask(3, JoinTask{30});

  JoinTask task;
  int stolen_from = -2;
  // Shard 0 is empty, so every pop steals. The FIFO (front) end of shard 1
  // holds its *latest* consume-order seed -- the task its owner would have
  // run last.
  ASSERT_TRUE(queue.Pop(0, &task, &stolen_from));
  EXPECT_EQ(stolen_from, 1);
  EXPECT_EQ(task.partition, 11u);
  ASSERT_TRUE(queue.Pop(0, &task, &stolen_from));
  EXPECT_EQ(stolen_from, 1);
  EXPECT_EQ(task.partition, 10u);
  ASSERT_TRUE(queue.Pop(0, &task, &stolen_from));
  EXPECT_EQ(stolen_from, 3);
  EXPECT_EQ(task.partition, 30u);
  ASSERT_TRUE(queue.Pop(0, &task, &stolen_from));
  EXPECT_EQ(stolen_from, 2);
  EXPECT_EQ(task.partition, 20u);
  EXPECT_FALSE(queue.Pop(0, &task, &stolen_from));

  const ShardedTaskQueue::RunStats stats = queue.run_stats();
  EXPECT_EQ(stats.local_pops, 0u);
  EXPECT_EQ(stats.tasks_stolen, 4u);
}

// Row-major [thief * 4 + victim] cell of a 4-shard queue's steal matrix.
uint64_t Steals(const ShardedTaskQueue::RunStats& stats, int thief,
                int victim) {
  return stats.steal_matrix[static_cast<std::size_t>(thief) * 4 + victim];
}

TEST(ShardedTaskQueue, StealsAreCountedInRunMatrix) {
  ShardedTaskQueue queue(numa::Topology(4), AllShards(4));
  queue.SeedTask(2, JoinTask{1});
  queue.SeedTask(2, JoinTask{2});
  JoinTask task;
  ASSERT_TRUE(queue.Pop(0, &task));  // steals 2 -> 0
  ASSERT_TRUE(queue.Pop(1, &task));  // steals 2 -> 1
  const ShardedTaskQueue::RunStats stats = queue.run_stats();
  ASSERT_EQ(stats.steal_matrix.size(), 16u);
  EXPECT_EQ(Steals(stats, 0, 2), 1u);
  EXPECT_EQ(Steals(stats, 1, 2), 1u);
  EXPECT_EQ(Steals(stats, 2, 0), 0u);
  EXPECT_EQ(stats.tasks_stolen, 2u);
}

TEST(ShardedTaskQueue, StealMatrixCountsThiefVictimPairs) {
  // Only nodes 0 and 3 host workers, so the seeds on 1 and 2 are remapped
  // (1 -> 3, 2 -> 0); the worker on node 3 runs its own task, then steals
  // node 0's two.
  ShardedTaskQueue queue(numa::Topology(4), {0, 3});
  queue.SeedTask(2, JoinTask{1});
  queue.SeedTask(2, JoinTask{2});
  queue.SeedTask(1, JoinTask{3});
  JoinTask task;
  ASSERT_TRUE(queue.Pop(3, &task));  // local: task 3
  ASSERT_TRUE(queue.Pop(3, &task));  // steals 0 -> 3
  ASSERT_TRUE(queue.Pop(3, &task));  // steals 0 -> 3
  EXPECT_FALSE(queue.Pop(0, &task));
  const ShardedTaskQueue::RunStats stats = queue.run_stats();
  EXPECT_EQ(Steals(stats, 3, 0), 2u);
  EXPECT_EQ(Steals(stats, 0, 3), 0u);  // direction matters
  EXPECT_EQ(stats.tasks_stolen, 2u);
  EXPECT_EQ(stats.local_pops, 1u);
}

TEST(ShardedTaskQueue, InactiveShardSeedsRemapOntoActiveShards) {
  // Only nodes 0 and 2 host workers (e.g. a 2-thread team).
  ShardedTaskQueue queue(numa::Topology(4), {0, 2});
  queue.SeedTask(0, JoinTask{0});
  queue.SeedTask(1, JoinTask{1});  // inactive -> remapped
  queue.SeedTask(2, JoinTask{2});
  queue.SeedTask(3, JoinTask{3});  // inactive -> remapped
  EXPECT_EQ(queue.SizeForTest(), 4u);
  // Draining only the active shards must yield every task: nothing may
  // strand on a shard nobody polls locally.
  std::set<uint32_t> seen;
  JoinTask task;
  while (queue.Pop(0, &task)) seen.insert(task.partition);
  while (queue.Pop(2, &task)) seen.insert(task.partition);
  EXPECT_EQ(seen, (std::set<uint32_t>{0, 1, 2, 3}));
}

TEST(ShardedTaskQueue, ConcurrentDrainLosesNothing) {
  // Empty-queue termination under concurrent pops and steals: every seeded
  // task must be seen exactly once and every worker must terminate.
  constexpr uint32_t kSeeded = 1200;
  ShardedTaskQueue queue(numa::Topology(4), AllShards(4));
  for (uint32_t p = 0; p < kSeeded; ++p) {
    queue.SeedTask(static_cast<int>(p) % 4, JoinTask{p});
  }
  std::vector<std::atomic<int>> seen(kSeeded);
  for (auto& s : seen) s = 0;
  ASSERT_TRUE(GlobalExecutor().Dispatch(8, [&](const WorkerContext& ctx) {
    const int node = numa::Topology(4).NodeOfThread(ctx.thread_id, 8);
    JoinTask task;
    while (queue.Pop(node, &task)) {
      seen[task.partition].fetch_add(1, std::memory_order_relaxed);
    }
  }).ok());
  for (std::size_t p = 0; p < seen.size(); ++p) {
    EXPECT_EQ(seen[p].load(), 1) << "task " << p;
  }
  EXPECT_EQ(queue.SizeForTest(), 0u);
  const ShardedTaskQueue::RunStats stats = queue.run_stats();
  EXPECT_EQ(stats.local_pops + stats.tasks_stolen, uint64_t{kSeeded});
}

// --- BuildSkewTasks -------------------------------------------------------

TEST(BuildSkewTasks, UnskewedInputYieldsOneTaskPerPartition) {
  const std::vector<uint64_t> sizes = {100, 100, 100, 100};
  const SkewTaskList list =
      BuildSkewTasks(sizes, SequentialOrder(4), /*skew_factor=*/4,
                     /*probe_size=*/400)
          .value();
  ASSERT_EQ(list.consume_order.size(), 4u);
  EXPECT_EQ(list.skew_slices, 0u);
  EXPECT_EQ(list.skew_partitions, 0u);
  EXPECT_TRUE(list.skewed_partitions.empty());
  for (uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(list.consume_order[p].partition, p);
    EXPECT_EQ(list.consume_order[p].probe_slice_count, 1u);
  }
}

TEST(BuildSkewTasks, SkewedPartitionSplitsIntoSlices) {
  // avg = 1200 / 3 = 400, threshold = 2 * 400 = 800: partition 1 (1000
  // tuples) splits into ceil(1000 / 800) = 2 slices.
  const std::vector<uint64_t> sizes = {100, 1000, 100};
  const SkewTaskList list =
      BuildSkewTasks(sizes, SequentialOrder(3), 2, 1200).value();
  ASSERT_EQ(list.consume_order.size(), 4u);
  EXPECT_EQ(list.skew_slices, 1u);      // tasks beyond one per partition
  EXPECT_EQ(list.skew_partitions, 1u);  // partitions that were split
  EXPECT_EQ(list.skewed_partitions, (std::vector<uint32_t>{1}));
  EXPECT_EQ(list.consume_order.size(),
            sizes.size() + list.skew_slices);  // counter identity
  EXPECT_EQ(list.consume_order[1].partition, 1u);
  EXPECT_EQ(list.consume_order[1].probe_slice, 0u);
  EXPECT_EQ(list.consume_order[1].probe_slice_count, 2u);
  EXPECT_EQ(list.consume_order[2].probe_slice, 1u);
}

TEST(BuildSkewTasks, ExtremeSkewClampsInsteadOfTruncating) {
  // Regression: one partition of 2^33 tuples with avg 1 and factor 1 used
  // to compute 2^33 slices and truncate the uint32_t cast to *zero*,
  // corrupting probe_slice_count (division by zero downstream). The slice
  // count must clamp to the explicit cap instead.
  const std::vector<uint64_t> sizes = {uint64_t{1} << 33};
  const SkewTaskList list =
      BuildSkewTasks(sizes, SequentialOrder(1), /*skew_factor=*/1,
                     /*probe_size=*/1)
          .value();
  ASSERT_FALSE(list.consume_order.empty());
  EXPECT_EQ(list.consume_order.size(), uint64_t{kMaxProbeSlicesPerPartition});
  for (const JoinTask& task : list.consume_order) {
    EXPECT_EQ(task.probe_slice_count, kMaxProbeSlicesPerPartition);
    EXPECT_GE(task.probe_slice_count, 1u);  // never zero
  }
}

TEST(BuildSkewTasks, ThresholdOverflowIsAnError) {
  // avg * skew_factor would overflow uint64: reported, not wrapped.
  const std::vector<uint64_t> sizes = {10};
  const auto result = BuildSkewTasks(sizes, SequentialOrder(1),
                                     /*skew_factor=*/1u << 31,
                                     /*probe_size=*/uint64_t{1} << 40);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(BuildSkewTasks, MaxSlicesCapHonored) {
  // CPR caps slices at its chunk count.
  const std::vector<uint64_t> sizes = {1000, 8};
  const SkewTaskList list =
      BuildSkewTasks(sizes, SequentialOrder(2), 1, 16, /*max_slices=*/4)
          .value();
  EXPECT_EQ(list.consume_order[0].probe_slice_count, 4u);
  EXPECT_EQ(list.skew_slices, 3u);
  EXPECT_EQ(list.skew_partitions, 1u);
}

}  // namespace
}  // namespace mmjoin::thread
