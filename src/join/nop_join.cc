// NOP and NOPA (paper Sections 3.2 and 5.2).
//
// No-partitioning joins build one global hash table concurrently (NOP: the
// lock-free CAS linear probing table of Lang et al.; NOPA: a plain array for
// dense key domains), then every thread probes its chunk of S. The table is
// interleaved page-wise over all NUMA nodes for balanced memory bandwidth.

#include <memory>
#include <type_traits>
#include <vector>

#include "hash/array_table.h"
#include "hash/linear_probing_table.h"
#include "join/internal.h"
#include "numa/system.h"
#include "thread/thread_team.h"

namespace mmjoin::join::internal {

template <typename Table>
StatusOr<JoinResult> RunNopJoin(numa::NumaSystem* system,
                                const JoinConfig& config, ConstTupleSpan build,
                                ConstTupleSpan probe, uint64_t key_domain) {
  const int num_threads = config.num_threads;

  // NOP has no partition phase; the partition failpoint covers its
  // (degenerate) working-memory setup so `alloc.partition` fails every
  // algorithm uniformly.
  if (PartitionAllocFailpoint()) return InjectedAllocError("partition");
  if (BuildAllocFailpoint()) return InjectedAllocError("build");

  // Working memory is allocated and prefaulted before timing starts: the
  // paper assumes a buffer manager has faulted pages in already
  // (Section 5.1, "Memory Allocation Locality"). NOPA's array covers
  // `key_domain`, the domain RunJoin planned with.
  auto table = [&] {
    constexpr auto kPlacement = numa::Placement::kInterleavedPages;
    if constexpr (std::is_same_v<Table, hash::ArrayTable>) {
      return std::make_unique<Table>(system, key_domain, /*key_shift=*/0,
                                     kPlacement);
    } else {
      return std::make_unique<Table>(system, build.size(), kPlacement);
    }
  }();
  RunClock clock(num_threads);

  std::vector<ThreadStats> stats(num_threads);
  MatchSink* sink = config.sink;
  JoinAbort abort;

  const Status dispatch_status = ExecutorOf(config).Dispatch(
      num_threads, [&](const thread::WorkerContext& ctx) {
        const int tid = ctx.thread_id;
        thread::Barrier& barrier = *ctx.barrier;
        const int node = system->topology().NodeOfThread(tid, num_threads);

        {
          obs::PhaseScope scope(clock.profiler(), tid,
                                obs::JoinPhase::kBuild);
          // Build: insert this thread's chunk of R into the global table.
          const thread::Range r_range =
              thread::ChunkRange(build.size(), num_threads, tid);
          system->CountRead(node, build.data() + r_range.begin,
                            r_range.size() * sizeof(Tuple));
          for (std::size_t i = r_range.begin; i < r_range.end; ++i) {
            table->InsertConcurrent(build[i]);
          }
          // Random writes into the interleaved table: one line per insert.
          system->CountWrite(node, table->raw_data(),
                             r_range.size() * kCacheLineSize);
        }

        // Probe-phase scratch would be acquired here; check the failpoint
        // before the barrier (everyone must arrive), unwind after it.
        if (tid == 0 && ProbeAllocFailpoint()) {
          abort.Set(InjectedAllocError("probe"));
        }
        barrier.ArriveAndWait();
        if (abort.IsSet()) return;
        if (tid == 0) clock.MarkBuildEnd();

        obs::PhaseScope scope(clock.profiler(), tid, obs::JoinPhase::kProbe);
        // Probe this thread's chunk of S.
        const thread::Range s_range =
            thread::ChunkRange(probe.size(), num_threads, tid);
        system->CountRead(node, probe.data() + s_range.begin,
                          s_range.size() * sizeof(Tuple));
        ProbeRange(*table, probe.data(), s_range.begin, s_range.end,
                   config.build_unique, sink, tid, &stats[tid]);
        // Random reads from the interleaved table: one line per probe.
        system->CountRead(node, table->raw_data(),
                          s_range.size() * kCacheLineSize);
      });
  MMJOIN_RETURN_IF_ERROR(dispatch_status);
  if (abort.IsSet()) return abort.status();

  JoinResult result = ReduceStats(stats.data(), num_threads);
  clock.Finish(&result);
  return result;
}

template StatusOr<JoinResult> RunNopJoin<NopLinearTable>(
    numa::NumaSystem*, const JoinConfig&, ConstTupleSpan, ConstTupleSpan,
    uint64_t);
template StatusOr<JoinResult> RunNopJoin<hash::ArrayTable>(
    numa::NumaSystem*, const JoinConfig&, ConstTupleSpan, ConstTupleSpan,
    uint64_t);

}  // namespace mmjoin::join::internal
