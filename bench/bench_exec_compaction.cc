// Dynamic chunk compaction sweep: join selectivity x density threshold.
//
// Runs scan(S) -> HashJoinProbe(R) -> count/checksum aggregate on the
// exec:: pipeline. Probe keys are uniform over [0, |R| / selectivity), so a
// `selectivity` fraction of probe tuples find a match. With a radix join,
// each partition task flushes its (partial) match chunk at the task
// boundary -- at low selectivity the chunks crossing the post-join
// boundary are mostly empty slots. The compactor gathers them when their
// density falls below the threshold; this harness measures how many chunks
// (and dead chunk-slots) actually cross the sink boundary at each
// (selectivity, threshold) point.
//
//   ./bench_exec_compaction [--build=1000000] [--probe=4000000]
//       [--threads=N] [--bits=11] [--repeat=3] [--json=PATH]

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/operators.h"
#include "exec/pipeline.h"

namespace {

using namespace mmjoin;

constexpr double kSelectivities[] = {0.01, 0.05, 0.10, 0.25, 0.50, 1.00};
constexpr double kThresholds[] = {0.0, 0.25, 0.50, 1.00};

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv, bench::BenchFlags({"bits"}));
  const bench::BenchEnv env = bench::BenchEnv::FromCli(
      cli, /*default_build=*/1'000'000, /*default_probe=*/4'000'000);
  const auto radix_bits = static_cast<uint32_t>(cli.GetInt("bits", 11));
  bench::PrintBanner(
      "exec",
      "Dynamic chunk compaction: join selectivity x density threshold "
      "(CPRL probe, chunks crossing the post-join sink boundary)",
      env);

  numa::NumaSystem system(env.nodes, env.pages);
  workload::Relation build =
      workload::MakeDenseBuild(&system, env.build_size, env.seed).value();

  TablePrinter table({"selectivity", "threshold", "matches", "sink_chunks",
                      "sink_density", "rows_compacted", "flushes",
                      "total_ms"});

  for (const double selectivity : kSelectivities) {
    // Uniform keys over [0, |R| / selectivity): a `selectivity` fraction
    // hits the dense build domain [0, |R|).
    const auto domain = static_cast<uint64_t>(
        static_cast<double>(env.build_size) / selectivity);
    workload::Relation probe =
        workload::MakeUniformProbe(&system, env.probe_size, domain,
                                   env.seed + 1)
            .value();

    for (const double threshold : kThresholds) {
      for (int repeat = 0; repeat < env.repeat; ++repeat) {
        exec::TupleScan scan(probe.cspan());
        exec::HashJoinProbe::Spec spec;
        spec.algorithm = join::Algorithm::kCPRL;
        spec.build = build.cspan();
        spec.key_domain = domain;
        spec.config.radix_bits = radix_bits;
        exec::HashJoinProbe join_probe(spec);
        exec::CountAggregate aggregate(
            {exec::kJoinBuildPayloadCol, exec::kJoinProbePayloadCol});
        exec::Pipeline pipeline(&scan, {&join_probe}, &aggregate);

        exec::PipelineConfig config;
        config.num_threads = env.threads;
        config.compaction_threshold = threshold;
        const exec::PipelineStats stats =
            pipeline.Run(&system, config).value();

        // The aggregate recomputes the join checksum from the chunks that
        // crossed the boundary -- a correctness cross-check of the whole
        // compaction path.
        if (aggregate.rows() != stats.join_matches ||
            aggregate.checksum() != stats.join_result.checksum) {
          std::fprintf(stderr,
                       "[mmjoin] bench: chunk stream disagrees with join "
                       "(%llu/%llu rows, %llu/%llu checksum)\n",
                       static_cast<unsigned long long>(aggregate.rows()),
                       static_cast<unsigned long long>(stats.join_matches),
                       static_cast<unsigned long long>(aggregate.checksum()),
                       static_cast<unsigned long long>(
                           stats.join_result.checksum));
          return 1;
        }

        const double sink_density =
            stats.sink_chunks == 0
                ? 0.0
                : static_cast<double>(stats.sink_rows) /
                      (static_cast<double>(stats.sink_chunks) *
                       exec::kChunkCapacity);
        if (repeat == env.repeat - 1) {
          table.Row(selectivity, threshold, stats.join_matches,
                    stats.sink_chunks, sink_density, stats.rows_compacted,
                    stats.compaction_flushes, stats.total_ns / 1e6);
        }

        join::JoinResult record = stats.join_result;
        record.times.total_ns = stats.total_ns;  // pipeline end-to-end
        char extra[256];
        std::snprintf(
            extra, sizeof(extra),
            "\"selectivity\":%.2f,\"compaction_threshold\":%.2f,"
            "\"sink_chunks\":%llu,\"sink_rows\":%llu,"
            "\"chunks_emitted\":%llu,\"rows_compacted\":%llu,"
            "\"compaction_flushes\":%llu",
            selectivity, threshold,
            static_cast<unsigned long long>(stats.sink_chunks),
            static_cast<unsigned long long>(stats.sink_rows),
            static_cast<unsigned long long>(stats.chunks_emitted),
            static_cast<unsigned long long>(stats.rows_compacted),
            static_cast<unsigned long long>(stats.compaction_flushes));
        bench::AppendBenchRecord("CPRL", repeat, env.build_size,
                                 env.probe_size, env.threads, record, extra);
      }
    }
  }
  table.Print();
  std::printf(
      "\nReading the table: at a fixed selectivity, higher thresholds gather "
      "sparse chunks before the sink boundary -- sink_chunks drops and "
      "sink_density approaches 1. threshold 0 never compacts; threshold 1 "
      "buffers every partial chunk.\n");
  bench::PrintExecutorStats();
  return 0;
}
