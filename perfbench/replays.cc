#include "replays.h"

#include <algorithm>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "hash/array_table.h"
#include "hash/chained_table.h"
#include "hash/concise_table.h"
#include "hash/hash_functions.h"
#include "hash/linear_probing_table.h"
#include "partition/chunked.h"
#include "partition/model.h"
#include "partition/radix.h"
#include "sort/bitonic.h"
#include "sort/multiway_merge.h"
#include "util/bits.h"
#include "util/timer.h"

namespace perfbench {

namespace {

using namespace mmjoin;

constexpr int kRepeats = 3;
// Probe-side prefix the global-size hash replay looks up.
constexpr uint64_t kHashProbeTuples = 2'000'000;
// Radix partitions the partition-size hash replay builds and probes.
constexpr uint32_t kHashPartitions = 16;
constexpr uint64_t kSortTuples = 4'000'000;
constexpr int kSortRuns = 4;

double Mtps(uint64_t tuples, int64_t ns) {
  return static_cast<double>(tuples) * 1e3 / static_cast<double>(ns);
}

// Every tuple of partition p sits in [offsets[p], offsets[p+1]).
bool GlobalLayoutValid(const partition::PartitionLayout& layout,
                       const Tuple* output, partition::RadixFn fn,
                       uint64_t size) {
  if (layout.offsets.back() != size) return false;
  for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
    for (uint64_t i = layout.offsets[p]; i < layout.offsets[p + 1]; ++i) {
      if (fn(output[i].key) != p) return false;
    }
  }
  return true;
}

bool ChunkedLayoutValid(const partition::ChunkedLayout& layout,
                        const Tuple* output, partition::RadixFn fn,
                        uint64_t size) {
  uint64_t total = 0;
  for (int c = 0; c < layout.num_chunks; ++c) {
    for (uint32_t p = 0; p < layout.num_partitions; ++p) {
      const uint64_t begin = layout.FragmentOffset(c, p);
      const uint64_t fragment = layout.FragmentSize(c, p);
      for (uint64_t i = begin; i < begin + fragment; ++i) {
        if (fn(output[i].key) != p) return false;
      }
      total += fragment;
    }
  }
  return total == size;
}

struct HashTiming {
  int64_t build_ns = 0;
  int64_t probe_ns = 0;
  uint64_t built = 0;
  uint64_t probed = 0;
  uint64_t matches = 0;
};

template <typename Table>
void TimeTable(Table& table, std::span<const Tuple> build,
               std::span<const Tuple> probe, HashTiming* timing) {
  int64_t start = NowNanos();
  if constexpr (std::is_same_v<Table, hash::ConciseHashTable>) {
    table.BuildSerial(build);
  } else {
    for (const Tuple& tuple : build) table.InsertSerial(tuple);
  }
  timing->build_ns += NowNanos() - start;
  start = NowNanos();
  uint64_t matches = 0;
  for (const Tuple& tuple : probe) {
    matches += table.ProbeUnique(tuple.key, [](Tuple) {});
  }
  timing->probe_ns += NowNanos() - start;
  timing->built += build.size();
  timing->probed += probe.size();
  timing->matches += matches;
}

// Every probe key references a build key, so every lookup must hit.
void ReportHash(const std::string& name, const HashTiming& timing,
                Report* report) {
  const bool ok = timing.matches == timing.probed && timing.built > 0 &&
                  timing.probed > 0;
  report->CountOp(ok);
  if (!ok) return;
  report->Sample(name + ".build_ns_per_tuple",
                 static_cast<double>(timing.build_ns) /
                     static_cast<double>(timing.built));
  report->Sample(name + ".probe_ns_per_tuple",
                 static_cast<double>(timing.probe_ns) /
                     static_cast<double>(timing.probed));
}

}  // namespace

uint32_t PredictedBits(const workload::Relation& build, int threads) {
  return partition::PredictRadixBits(build.size(), partition::kLinearSpace,
                                     threads,
                                     partition::DetectHostCacheSpec());
}

void RunPartitionReplay(core::Joiner& joiner, const workload::Relation& probe,
                        uint32_t bits, Report* report, SpanLog* spans) {
  SpanLog::Scope segment(spans, "replay.partition");
  numa::NumaSystem* system = joiner.system();
  thread::Executor* executor = joiner.executor();
  const int threads = joiner.num_threads();
  const uint64_t n = probe.size();
  partition::RadixOptions options;
  options.fn = partition::RadixFn{0, bits};
  options.num_threads = threads;
  numa::NumaBuffer<Tuple> global_out(system, n,
                                     numa::Placement::kInterleavedPages);
  numa::NumaBuffer<Tuple> chunked_out(system, n,
                                      numa::Placement::kChunkedRoundRobin);

  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (const bool swwcb : {true, false}) {
      options.use_swwcb = swwcb;
      SpanLog::Scope span(spans, swwcb ? "partition.global.swwcb"
                                       : "partition.global.plain");
      const int64_t start = NowNanos();
      partition::GlobalRadixPartitioner partitioner(
          system, options, probe.cspan(), TupleSpan(global_out.data(), n));
      const Status status =
          executor->Dispatch(threads, [&](const thread::WorkerContext& ctx) {
            partitioner.BuildHistogram(ctx.thread_id);
            ctx.barrier->ArriveAndWait();
            if (ctx.thread_id == 0) partitioner.ComputeOffsets();
            ctx.barrier->ArriveAndWait();
            partitioner.Scatter(ctx.thread_id, ctx.node);
          });
      const int64_t ns = NowNanos() - start;
      const bool ok = status.ok() && GlobalLayoutValid(partitioner.layout(),
                                                       global_out.data(),
                                                       options.fn, n);
      report->CountOp(ok);
      if (ok) {
        report->Sample(swwcb ? "partition.global_swwcb_mtps"
                             : "partition.global_plain_mtps",
                       Mtps(n, ns));
      }
    }

    options.use_swwcb = true;
    SpanLog::Scope span(spans, "partition.chunked");
    const int64_t start = NowNanos();
    partition::ChunkedRadixPartitioner partitioner(
        system, options, probe.cspan(), TupleSpan(chunked_out.data(), n));
    const Status status =
        executor->Dispatch(threads, [&](const thread::WorkerContext& ctx) {
          partitioner.PartitionChunk(ctx.thread_id, ctx.node);
        });
    const int64_t ns = NowNanos() - start;
    const bool ok = status.ok() && ChunkedLayoutValid(partitioner.layout(),
                                                      chunked_out.data(),
                                                      options.fn, n);
    report->CountOp(ok);
    if (ok) report->Sample("partition.chunked_mtps", Mtps(n, ns));
  }
}

void RunHashReplay(numa::NumaSystem* system, const workload::Relation& build,
                   const workload::Relation& probe, uint32_t bits,
                   Report* report, SpanLog* spans) {
  SpanLog::Scope segment(spans, "replay.hash");
  const std::span<const Tuple> all_build = build.cspan();
  const std::span<const Tuple> probe_prefix =
      probe.cspan().first(std::min<uint64_t>(probe.size(), kHashProbeTuples));
  const uint64_t n = build.size();
  constexpr numa::Placement kGlobal = numa::Placement::kInterleavedPages;

  // The first kHashPartitions radix partitions of both inputs.
  const partition::RadixFn fn{0, bits};
  const uint32_t num_parts = std::min(fn.num_partitions(), kHashPartitions);
  std::vector<std::vector<Tuple>> build_parts(num_parts);
  std::vector<std::vector<Tuple>> probe_parts(num_parts);
  for (const Tuple& tuple : build.cspan()) {
    if (fn(tuple.key) < num_parts) build_parts[fn(tuple.key)].push_back(tuple);
  }
  for (const Tuple& tuple : probe.cspan()) {
    if (fn(tuple.key) < num_parts) probe_parts[fn(tuple.key)].push_back(tuple);
  }
  const uint64_t part_domain =
      CeilDiv(build.key_domain(), uint64_t{1} << bits);
  const hash::RadixShiftHash shift_hash{bits};

  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    {
      SpanLog::Scope span(spans, "hash.global");
      HashTiming linear, chained, array, concise;
      hash::LinearProbingTable<> linear_table(system, n, kGlobal);
      TimeTable(linear_table, all_build, probe_prefix, &linear);
      hash::ChainedHashTable<> chained_table(system, n, kGlobal);
      TimeTable(chained_table, all_build, probe_prefix, &chained);
      hash::ArrayTable array_table(system, build.key_domain(), 0, kGlobal);
      TimeTable(array_table, all_build, probe_prefix, &array);
      hash::ConciseHashTable concise_table(system, n, kGlobal);
      TimeTable(concise_table, all_build, probe_prefix, &concise);
      ReportHash("hash.linear", linear, report);
      ReportHash("hash.chained", chained, report);
      ReportHash("hash.array", array, report);
      ReportHash("hash.concise", concise, report);
    }
    {
      SpanLog::Scope span(spans, "hash.partition");
      HashTiming linear, chained, array;
      for (uint32_t p = 0; p < num_parts; ++p) {
        const std::span<const Tuple> part_build = build_parts[p];
        const std::span<const Tuple> part_probe = probe_parts[p];
        hash::LinearProbingTable<hash::RadixShiftHash> linear_table(
            system, part_build.size(), numa::Placement::kLocal, 0, shift_hash);
        TimeTable(linear_table, part_build, part_probe, &linear);
        hash::ChainedHashTable<hash::RadixShiftHash> chained_table(
            system, part_build.size(), numa::Placement::kLocal, 0, shift_hash);
        TimeTable(chained_table, part_build, part_probe, &chained);
        hash::ArrayTable array_table(system, part_domain, bits,
                                     numa::Placement::kLocal);
        TimeTable(array_table, part_build, part_probe, &array);
      }
      ReportHash("hash.linear.part", linear, report);
      ReportHash("hash.chained.part", chained, report);
      ReportHash("hash.array.part", array, report);
    }
  }
}

void RunSortReplay(const workload::Relation& probe, Report* report,
                   SpanLog* spans) {
  SpanLog::Scope segment(spans, "replay.sort");
  const uint64_t n = std::min<uint64_t>(probe.size(), kSortTuples) /
                     kSortRuns * kSortRuns;
  const uint64_t run_size = n / kSortRuns;
  std::vector<uint64_t> data(n);
  std::vector<uint64_t> scratch(n);
  std::vector<uint64_t> merged(n);
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (uint64_t i = 0; i < n; ++i) data[i] = PackTuple(probe.data()[i]);
    std::vector<sort::SortedRun> runs;
    bool ok = n > 0;
    int64_t start = NowNanos();
    {
      SpanLog::Scope span(spans, "sort.MergeSortPacked");
      for (int r = 0; r < kSortRuns; ++r) {
        sort::MergeSortPacked(data.data() + r * run_size, run_size,
                              scratch.data() + r * run_size);
      }
    }
    const int64_t run_gen_ns = NowNanos() - start;
    for (int r = 0; r < kSortRuns; ++r) {
      ok = ok && sort::IsSortedPacked(data.data() + r * run_size, run_size);
      runs.push_back(sort::SortedRun{data.data() + r * run_size, run_size});
    }
    start = NowNanos();
    {
      SpanLog::Scope span(spans, "sort.MultiwayMerge");
      sort::MultiwayMerge(runs, merged.data());
    }
    const int64_t merge_ns = NowNanos() - start;
    ok = ok && sort::IsSortedPacked(merged.data(), n);
    report->CountOp(ok);
    if (!ok) continue;
    report->Sample("sort.run_gen_mtps", Mtps(n, run_gen_ns));
    report->Sample("sort.merge_mtps", Mtps(n, merge_ns));
  }
}

}  // namespace perfbench
