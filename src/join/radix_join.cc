// The nine partition-based joins (paper Sections 3.1, 5, 6.1-6.2), each run
// by executing its JoinPlan (join_plan.h):
//
//   PRB    global two-pass, no SWWCB, chained tables, sequential task order
//   PRO    global one-pass, SWWCB + NT streaming, chained tables
//   PRL / PRA              = PRO with linear probing / array tables
//   PROiS / PRLiS / PRAiS  = the same with NUMA round-robin task order
//   CPRL / CPRA    chunk-local partitioning (no global histogram, no remote
//                  partition writes), linear probing / array tables
//
// One dispatch per join: partition R (and S, unless the probe side runs in
// spill waves), optionally run pass 2, then per wave partition the S slice,
// seed the task queue, join co-partitions pulled from it, and meet at a
// barrier. A partition is a list of fragments -- one for global layouts,
// one per chunk for chunked layouts -- which the join gathers into a
// node-local scratch table (for CPR*: large sequential, possibly remote,
// reads) and probes fragment by fragment.

#include <algorithm>
#include <array>
#include <atomic>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "hash/array_table.h"
#include "hash/chained_table.h"
#include "hash/linear_probing_table.h"
#include "join/internal.h"
#include "join/join_plan.h"
#include "numa/system.h"
#include "obs/trace.h"
#include "partition/chunked.h"
#include "partition/radix.h"
#include "thread/task_queue.h"
#include "thread/thread_team.h"
#include "util/bits.h"

namespace mmjoin::join::internal {
namespace {

using partition::ChunkedLayout;

uint64_t MaxPartitionSize(const ChunkedLayout& layout) {
  uint64_t max_size = 0;
  for (uint32_t p = 0; p < layout.num_partitions; ++p) {
    max_size = std::max(max_size, layout.PartitionSize(p));
  }
  return max_size;
}

// A global layout as fragments: one per partition.
ChunkedLayout OneFragmentPerPartition(uint32_t num_partitions) {
  ChunkedLayout layout;
  layout.num_partitions = num_partitions;
  layout.num_chunks = 1;
  layout.fragment_offsets.assign(num_partitions, 0);
  layout.fragment_sizes.assign(num_partitions, 0);
  return layout;
}

// A worker's build table, sized once for the largest build partition and
// reset per co-partition. Chained and linear tables hash with
// RadixShiftHash{bits} and are sized in tuples; array tables are sized in
// key slots (the plan's partition_domain).
template <typename Table>
struct Scratch {
  static constexpr bool kArray = std::is_same_v<Table, hash::ArrayTable>;

  Scratch(numa::NumaSystem* system, uint64_t max_tuples,
          const JoinPlan& plan_in, int node)
      : table(Make(system, max_tuples, plan_in, node)), plan(plan_in) {}

  // Clears the table and inserts partition p (`size` tuples) fragment by
  // fragment.
  void Build(numa::NumaSystem* system, int node, const ChunkedLayout& layout,
             const Tuple* data, uint32_t p, uint64_t size) {
    if constexpr (kArray) {
      table.Reset(plan.partition_domain, plan.radix_bits);
    } else {
      table.Reset(size);
    }
    for (int c = 0; c < layout.num_chunks; ++c) {
      const Tuple* fragment = data + layout.FragmentOffset(c, p);
      const uint64_t n = layout.FragmentSize(c, p);
      system->CountRead(node, fragment, n * sizeof(Tuple));
      for (uint64_t i = 0; i < n; ++i) table.InsertSerial(fragment[i]);
    }
  }

  Table table;
  const JoinPlan& plan;

 private:
  static Table Make(numa::NumaSystem* system, uint64_t max_tuples,
                    const JoinPlan& plan, int node) {
    if constexpr (kArray) {
      return Table(system, plan.partition_domain, plan.radix_bits,
                   numa::Placement::kLocal, node);
    } else {
      return Table(system, std::max<uint64_t>(max_tuples, 1),
                   numa::Placement::kLocal, node,
                   hash::RadixShiftHash{plan.radix_bits});
    }
  }
};

// Pass 1 of one relation: a global or a chunk-local radix partitioner.
class Pass1 {
 public:
  void Reset(numa::NumaSystem* system, const partition::RadixOptions& options,
             bool chunked, ConstTupleSpan input, TupleSpan output) {
    if (chunked) {
      chunked_ = std::make_unique<partition::ChunkedRadixPartitioner>(
          system, options, input, output);
    } else {
      global_ = std::make_unique<partition::GlobalRadixPartitioner>(
          system, options, input, output);
    }
  }

  // Pass 1 of every relation in `relations`, run by each worker; the team
  // is synchronized afterwards. Chunked: one chunk-local step. Global:
  // partition::RunGlobalPass.
  static void Run(std::initializer_list<Pass1*> relations, bool chunked,
                  int tid, int node, thread::Barrier& barrier) {
    if (chunked) {
      for (Pass1* r : relations) r->chunked_->PartitionChunk(tid, node);
      barrier.ArriveAndWait();
      return;
    }
    std::array<partition::GlobalRadixPartitioner*, 2> globals{};
    std::size_t n = 0;
    for (Pass1* r : relations) globals[n++] = r->global_.get();
    partition::RunGlobalPass(std::span(globals.data(), n), tid, node,
                             barrier);
  }

  // The global pass-1 layout (input of pass 2).
  const partition::PartitionLayout& global_layout() const {
    return global_->layout();
  }

  // Thread 0, after Run: the output as fragments.
  const ChunkedLayout& Finish() {
    if (chunked_ != nullptr) return chunked_->layout();
    const partition::PartitionLayout& layout = global_->layout();
    fragments_ = OneFragmentPerPartition(layout.num_partitions());
    for (uint32_t p = 0; p < fragments_.num_partitions; ++p) {
      fragments_.fragment_offsets[p] = layout.PartitionBegin(p);
      fragments_.fragment_sizes[p] = layout.PartitionSize(p);
    }
    return fragments_;
  }

 private:
  std::unique_ptr<partition::GlobalRadixPartitioner> global_;
  std::unique_ptr<partition::ChunkedRadixPartitioner> chunked_;
  ChunkedLayout fragments_;
};

// Pass 2 of pass-1 partition p1: serially sub-partitions it from `mid` into
// `out` and records its final partitions in `final_layout`, ordered
// pass1-major so partition indices stay correlated with virtual addresses
// (Section 6.2).
void SubPartition(numa::NumaSystem* system, int node, const Tuple* mid,
                  Tuple* out, const partition::PartitionLayout& pass1,
                  uint32_t p1, partition::RadixFn fn2,
                  ChunkedLayout* final_layout) {
  const uint64_t begin = pass1.PartitionBegin(p1);
  const uint64_t size = pass1.PartitionSize(p1);
  system->CountRead(node, mid + begin, size * sizeof(Tuple));
  system->CountWrite(node, out + begin, size * sizeof(Tuple));
  const partition::PartitionLayout sub = partition::SubPartitionSerial(
      ConstTupleSpan(mid + begin, size), TupleSpan(out + begin, size), fn2);
  const uint32_t P2 = fn2.num_partitions();
  for (uint32_t p2 = 0; p2 < P2; ++p2) {
    const std::size_t fp = static_cast<std::size_t>(p1) * P2 + p2;
    final_layout->fragment_offsets[fp] = begin + sub.PartitionBegin(p2);
    final_layout->fragment_sizes[fp] = sub.PartitionSize(p2);
  }
}

// Seeds the run's queue for one wave and adds the wave's tasks to `stats`;
// thread 0, between barriers. Within each shard tasks are consumed in the
// plan's task order:
//
//   * Global layouts: a task goes to the node its probe slice lives on
//     (partition buffers are kChunkedRoundRobin, so NodeOfOffset reproduces
//     the placement). This keeps the iS round-robin interleave and -- with
//     a single active shard -- the historical global-LIFO order.
//   * Chunked layouts: a partition has no home node (its fragments span
//     every chunk), so shards get contiguous blocks of the sequential order
//     and each owner walks its partitions in ascending order (a round-robin
//     deal would stride each owner by the shard count and defeat
//     prefetching within the chunk fragments). Slices split the chunk
//     range, so more slices than chunks would leave empty slices: cap there.
Status SeedQueue(thread::ShardedTaskQueue* queue, SkewBuildSlots* slots,
                 const numa::Topology& topology, const JoinConfig& config,
                 const JoinPlan& plan, const ChunkedLayout& s_layout,
                 uint64_t probe_size, TaskStats* stats) {
  const uint32_t num_partitions = s_layout.num_partitions;
  std::vector<uint64_t> sizes(num_partitions);
  for (uint32_t p = 0; p < num_partitions; ++p) {
    sizes[p] = s_layout.PartitionSize(p);
  }
  const bool blocks = plan.order == TaskOrder::kChunkBlocks;
  const std::vector<uint32_t> order =
      plan.order == TaskOrder::kRoundRobinByNode
          ? thread::RoundRobinNodeOrder(num_partitions, topology.num_nodes())
          : thread::SequentialOrder(num_partitions);
  const uint32_t max_slices =
      blocks ? std::min<uint32_t>(
                   thread::kMaxProbeSlicesPerPartition,
                   std::max<uint32_t>(
                       static_cast<uint32_t>(s_layout.num_chunks), 1))
             : thread::kMaxProbeSlicesPerPartition;
  MMJOIN_ASSIGN_OR_RETURN(
      thread::SkewTaskList tasks,
      thread::BuildSkewTasks(sizes, order, config.skew_task_factor,
                             probe_size, max_slices));
  slots->Configure(tasks.skewed_partitions);
  const uint64_t probe_bytes = probe_size * sizeof(Tuple);
  const int num_shards = queue->num_shards();
  for (const thread::JoinTask& task : tasks.consume_order) {
    const int shard =
        blocks ? static_cast<int>(static_cast<uint64_t>(task.partition) *
                                  num_shards /
                                  std::max<uint32_t>(num_partitions, 1))
               : topology.NodeOfOffset(
                     numa::Placement::kChunkedRoundRobin, 0,
                     s_layout.FragmentOffset(0, task.partition) *
                         sizeof(Tuple),
                     probe_bytes);
    queue->SeedTask(shard, task);
  }
  // skew_slices counts tasks beyond one per partition, so tasks_seeded ==
  // num_partitions + skew_slices per wave (asserted in tests/obs_test.cc).
  stats->tasks_seeded += tasks.consume_order.size();
  stats->skew_slices += tasks.skew_slices;
  stats->skew_partitions += tasks.skew_partitions;
  return OkStatus();
}

// One run of a plan whose build tables are `Table`s.
template <typename Table>
class RadixJoinRun {
 public:
  RadixJoinRun(numa::NumaSystem* system, const JoinConfig& config,
               const JoinPlan& plan, ConstTupleSpan build,
               ConstTupleSpan probe)
      : system_(system),
        config_(config),
        plan_(plan),
        build_(build),
        probe_(probe),
        num_threads_(config.num_threads),
        waves_(plan.wave_count > 1),
        stats_(config.num_threads),
        queue_(system->topology(),
               system->topology().ActiveNodes(config.num_threads)),
        wave_size_(probe.size()) {
    options_.fn = partition::RadixFn{0, plan.pass1_bits};
    options_.use_swwcb = plan.use_swwcb;
    options_.num_threads = num_threads_;
  }

  // The dispatched workers hold `this`.
  RadixJoinRun(const RadixJoinRun&) = delete;
  RadixJoinRun& operator=(const RadixJoinRun&) = delete;

  StatusOr<JoinResult> Execute() {
    MMJOIN_RETURN_IF_ERROR(AllocateBuffers());
    thread::Executor& executor = ExecutorOf(config_);
    // Partition buffers were allocated + prefaulted untimed (buffer-manager
    // assumption, Section 5.1).
    clock_.emplace(num_threads_);
    MMJOIN_RETURN_IF_ERROR(executor.Dispatch(
        num_threads_,
        [this](const thread::WorkerContext& ctx) { Worker(ctx); }));
    if (abort_.IsSet()) return abort_.status();

    JoinResult result = ReduceStats(stats_.data(), num_threads_);
    clock_->Finish(&result);
    thread::ShardedTaskQueue::RunStats steals = queue_.run_stats();
    result.tasks = tasks_;
    result.tasks.tasks_stolen = steals.tasks_stolen;
    result.tasks.steal_remote_reads = steals.steal_remote_read_bytes;
    result.tasks.num_nodes = queue_.num_shards();
    result.tasks.steal_matrix = std::move(steals.steal_matrix);
    return result;
  }

 private:
  // R, and S or one wave's slice of it. Two-pass plans scatter pass 1
  // into mid buffers, allocated first.
  Status AllocateBuffers() {
    if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
    const auto placement = numa::Placement::kChunkedRoundRobin;
    if (plan_.two_pass()) {
      MMJOIN_ASSIGN_OR_RETURN(
          r_mid_, TryBuffer<Tuple>(system_, build_.size(), placement,
                                   "radix R pass-1 buffer"));
      MMJOIN_ASSIGN_OR_RETURN(
          s_mid_, TryBuffer<Tuple>(system_, probe_.size(), placement,
                                   "radix S pass-1 buffer"));
      const uint32_t final_partitions = uint32_t{1} << plan_.radix_bits;
      r_final_ = OneFragmentPerPartition(final_partitions);
      s_final_ = OneFragmentPerPartition(final_partitions);
    }
    MMJOIN_ASSIGN_OR_RETURN(
        r_out_, TryBuffer<Tuple>(system_, build_.size(), placement,
                                 "radix R partition buffer"));
    MMJOIN_ASSIGN_OR_RETURN(
        s_out_, TryBuffer<Tuple>(system_,
                                 CeilDiv(probe_.size(),
                                         uint64_t{plan_.wave_count}),
                                 placement, "radix S partition buffer"));
    numa::NumaBuffer<Tuple>& r_pass1_out = plan_.two_pass() ? r_mid_ : r_out_;
    numa::NumaBuffer<Tuple>& s_pass1_out = plan_.two_pass() ? s_mid_ : s_out_;
    r_pass1_.Reset(system_, options_, plan_.chunked(), build_,
                   TupleSpan(r_pass1_out.data(), r_pass1_out.size()));
    // With spill waves, thread 0 sets up S per wave.
    if (!waves_) {
      s_pass1_.Reset(system_, options_, plan_.chunked(), probe_,
                     TupleSpan(s_pass1_out.data(), s_pass1_out.size()));
    }
    return OkStatus();
  }

  void Worker(const thread::WorkerContext& ctx) {
    const int tid = ctx.thread_id;
    thread::Barrier& barrier = *ctx.barrier;
    const int node = system_->topology().NodeOfThread(tid, num_threads_);

    {
      obs::PhaseScope scope(clock_->profiler(), tid,
                            obs::JoinPhase::kPartitionPass1);
      if (waves_) {
        // R only; it stays resident across all waves.
        Pass1::Run({&r_pass1_}, plan_.chunked(), tid, node, barrier);
      } else {
        Pass1::Run({&r_pass1_, &s_pass1_}, plan_.chunked(), tid, node,
                   barrier);
      }
    }
    if (plan_.two_pass()) RunPass2(tid, node, barrier);
    if (tid == 0) {
      clock_->MarkPartitionEnd();
      r_layout_ = plan_.two_pass() ? &r_final_ : &r_pass1_.Finish();
      if (!waves_) {
        s_layout_ = plan_.two_pass() ? &s_final_ : &s_pass1_.Finish();
      }
      max_r_partition_ = MaxPartitionSize(*r_layout_);
    }
    // No barrier needed here: the next barrier (wave head or seed)
    // publishes what thread 0 just wrote.

    std::unique_ptr<Scratch<Table>> scratch;
    for (uint32_t w = 0; w < plan_.wave_count; ++w) {
      std::optional<obs::ObsScope> wave_scope;
      if (waves_) {
        wave_scope.emplace("budget.wave", obs::SpanKind::kOther);
        if (tid == 0) StartWave(w);
        barrier.ArriveAndWait();
        obs::PhaseScope scope(clock_->profiler(), tid,
                              obs::JoinPhase::kPartitionPass1);
        Pass1::Run({&s_pass1_}, plan_.chunked(), tid, node, barrier);
      }

      if (tid == 0) {
        if (waves_) s_layout_ = &s_pass1_.Finish();
        const Status seeded =
            SeedQueue(&queue_, &slots_, system_->topology(), config_, plan_,
                      *s_layout_, wave_size_, &tasks_);
        if (!seeded.ok()) abort_.Set(seeded);
      }
      barrier.ArriveAndWait();
      if (!abort_.IsSet()) {
        // The per-worker scratch table is the join phase's build-side
        // allocation, made once per run.
        if (scratch == nullptr) {
          if (BuildAllocFailpoint()) {
            abort_.Set(InjectedAllocError("build"));
          } else {
            scratch = std::make_unique<Scratch<Table>>(
                system_, max_r_partition_, plan_, node);
          }
        }
        if (scratch != nullptr) JoinTasks(tid, node, scratch.get());
      }
      // Wave-end barrier: every worker is done with this wave's buffers and
      // drained the queue before thread 0 reconfigures and re-seeds them,
      // and any abort (injected build/probe failure included) is published
      // so the team leaves the loop together.
      barrier.ArriveAndWait();
      if (abort_.IsSet()) break;
    }
  }

  // Pass 2: whole pass-1 partitions are claimed from a work counter
  // ("entire sub-partitions are assigned to worker threads by using a task
  // queue", Section 3.1).
  void RunPass2(int tid, int node, thread::Barrier& barrier) {
    obs::PhaseScope scope(clock_->profiler(), tid,
                          obs::JoinPhase::kPartitionPass2);
    const partition::RadixFn fn2{plan_.pass1_bits,
                                 plan_.radix_bits - plan_.pass1_bits};
    const uint32_t P1 = uint32_t{1} << plan_.pass1_bits;
    // Relaxed: the counter only claims disjoint sub-partition indices; the
    // pass-1 data each claim reads was published by the pass-1 barrier.
    for (uint32_t p1 = next_sub_.fetch_add(1, std::memory_order_relaxed);
         p1 < P1; p1 = next_sub_.fetch_add(1, std::memory_order_relaxed)) {
      SubPartition(system_, node, r_mid_.data(), r_out_.data(),
                   r_pass1_.global_layout(), p1, fn2, &r_final_);
      SubPartition(system_, node, s_mid_.data(), s_out_.data(),
                   s_pass1_.global_layout(), p1, fn2, &s_final_);
    }
    barrier.ArriveAndWait();
  }

  // Thread 0 at the head of wave w: partition setup for its probe slice.
  void StartWave(uint32_t w) {
    const uint64_t begin = probe_.size() * w / plan_.wave_count;
    wave_size_ = probe_.size() * (w + 1) / plan_.wave_count - begin;
    s_pass1_.Reset(system_, options_, plan_.chunked(),
                   probe_.subspan(begin, wave_size_),
                   TupleSpan(s_out_.data(), wave_size_));
    mem::CountBudgetWaveRound();
  }

  // Joins co-partitions pulled from the queue. Runs between barriers, so a
  // worker that hits a failure (or sees one via abort_) simply stops.
  //
  // A worker pops LIFO from its home node's shard and steals
  // distance-ordered FIFO when it runs dry. Slices of one skewed partition
  // share a single build table through slots_ (built by whichever slice
  // arrives first) instead of each rebuilding a private copy.
  void JoinTasks(int tid, int node, Scratch<Table>* scratch) {
    const ChunkedLayout& r_layout = *r_layout_;
    const ChunkedLayout& s_layout = *s_layout_;
    const Tuple* r_data = r_out_.data();
    const Tuple* s_data = s_out_.data();
    obs::JoinPhaseProfiler& profiler = clock_->profiler();
    thread::JoinTask task;
    int stolen_from = -1;
    while (queue_.Pop(node, &task, &stolen_from)) {
      if (abort_.IsSet()) return;
      const uint32_t p = task.partition;
      const uint64_t r_size = r_layout.PartitionSize(p);
      if (r_size == 0 || s_layout.PartitionSize(p) == 0) continue;

      const Scratch<Table>* build_table = scratch;
      bool built_here = true;
      {
        obs::PhaseScope scope(profiler, tid, obs::JoinPhase::kBuild);
        SkewBuildSlots::Slot* slot =
            task.probe_slice_count > 1 ? slots_.Find(p) : nullptr;
        if (slot != nullptr) {
          build_table = slots_.GetOrBuild<Scratch<Table>>(
              slot,
              [&] {
                auto table = std::make_unique<Scratch<Table>>(
                    system_, r_size, plan_, node);
                table->Build(system_, node, r_layout, r_data, p, r_size);
                return table;
              },
              &built_here);
        } else {
          scratch->Build(system_, node, r_layout, r_data, p, r_size);
        }
      }

      if (ProbeAllocFailpoint()) {
        abort_.Set(InjectedAllocError("probe"));
        return;
      }
      obs::PhaseScope scope(profiler, tid, obs::JoinPhase::kProbe);
      // A skew slice is a contiguous range of the partition's fragments;
      // a single-fragment partition is sliced by tuples instead.
      const int fragments = s_layout.num_chunks;
      const uint64_t slice = task.probe_slice;
      const uint64_t slices = task.probe_slice_count;
      const int f_begin =
          fragments == 1 ? 0 : static_cast<int>(fragments * slice / slices);
      const int f_end = fragments == 1
                            ? 1
                            : static_cast<int>(fragments * (slice + 1) /
                                               slices);
      uint64_t probe_bytes = 0;
      for (int f = f_begin; f < f_end; ++f) {
        const Tuple* fragment = s_data + s_layout.FragmentOffset(f, p);
        uint64_t begin = 0;
        uint64_t end = s_layout.FragmentSize(f, p);
        if (fragments == 1) {
          begin = end * slice / slices;
          end = end * (slice + 1) / slices;
        }
        probe_bytes += (end - begin) * sizeof(Tuple);
        system_->CountRead(node, fragment + begin,
                           (end - begin) * sizeof(Tuple));
        ProbeRange(build_table->table, fragment, begin, end,
                   config_.build_unique, config_.sink, tid, &stats_[tid]);
      }
      if (stolen_from >= 0) {
        // The stolen task's probe slice (and build partition, if this
        // worker built it) live near the victim, not here.
        uint64_t remote_bytes = probe_bytes;
        if (built_here) remote_bytes += r_size * sizeof(Tuple);
        queue_.AddStealReadBytes(remote_bytes);
      }
    }
  }

  numa::NumaSystem* const system_;
  const JoinConfig& config_;
  const JoinPlan& plan_;
  const ConstTupleSpan build_;
  const ConstTupleSpan probe_;
  const int num_threads_;
  const bool waves_;
  partition::RadixOptions options_;

  numa::NumaBuffer<Tuple> r_out_, s_out_, r_mid_, s_mid_;
  Pass1 r_pass1_, s_pass1_;
  ChunkedLayout r_final_, s_final_;  // two-pass output layouts
  std::atomic<uint32_t> next_sub_{0};

  std::vector<ThreadStats> stats_;  // per-thread: slot tid
  thread::ShardedTaskQueue queue_;  // this run's tasks, every wave
  SkewBuildSlots slots_;
  JoinAbort abort_;
  std::optional<RunClock> clock_;  // emplaced by Execute

  // Written by thread 0 between barriers, read by all workers after them.
  const ChunkedLayout* r_layout_ = nullptr;
  const ChunkedLayout* s_layout_ = nullptr;
  uint64_t max_r_partition_ = 0;
  uint64_t wave_size_;  // probe tuples in the current wave; thread 0 only
  TaskStats tasks_;     // seeding counts over all waves; thread 0 only
};

}  // namespace

StatusOr<JoinResult> RunRadixJoin(const JoinPlan& plan,
                                  numa::NumaSystem* system,
                                  const JoinConfig& config,
                                  ConstTupleSpan build, ConstTupleSpan probe) {
  switch (plan.table) {
    case RadixTable::kChained:
      return RadixJoinRun<hash::ChainedHashTable<hash::RadixShiftHash>>(
                 system, config, plan, build, probe)
          .Execute();
    case RadixTable::kLinear:
      return RadixJoinRun<hash::LinearProbingTable<hash::RadixShiftHash>>(
                 system, config, plan, build, probe)
          .Execute();
    case RadixTable::kArray:
      return RadixJoinRun<hash::ArrayTable>(system, config, plan, build,
                                            probe)
          .Execute();
  }
  MMJOIN_CHECK(false && "unknown radix table");
  return JoinResult{};
}

}  // namespace mmjoin::join::internal
