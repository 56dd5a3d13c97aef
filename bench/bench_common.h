// Shared helpers for the per-figure experiment harnesses.

#ifndef MMJOIN_BENCH_BENCH_COMMON_H_
#define MMJOIN_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/mmjoin.h"
#include "util/cli.h"
#include "util/table_printer.h"

namespace mmjoin::bench {

// Common experiment parameters, overridable from the command line:
//   --build=N --probe=N --threads=N --nodes=N --seed=N --pages=huge|small
//   --repeat=N (median-of-N timing)
//   --json=PATH (or MMJOIN_BENCH_JSON): machine-readable results, one JSON
//     object per line -- a `mmjoin.bench.v1` record per repeat plus one
//     final `mmjoin.metrics.v1` record (schema: docs/OBSERVABILITY.md)
//   --trace=PATH (or MMJOIN_TRACE): enables observability and writes a
//     Chrome trace-event file (load in Perfetto) at exit
struct BenchEnv {
  uint64_t build_size;
  uint64_t probe_size;
  int threads;
  int nodes;
  int repeat;
  uint64_t seed;
  mem::PagePolicy pages;
  std::string json_path;   // empty = no JSON output
  std::string trace_path;  // empty = observability off

  static BenchEnv FromCli(const CommandLine& cli, uint64_t default_build,
                          uint64_t default_probe, int default_threads = 4);
};

// The flag names a harness declares to CommandLine: the BenchEnv set above
// plus the harness's own `extra` names.
std::vector<std::string> BenchFlags(std::vector<std::string> extra = {});

// Prints the standard harness banner: which paper artifact this reproduces
// and with which scaled-down parameters.
void PrintBanner(const char* artifact, const char* description,
                 const BenchEnv& env);

// Appends one `mmjoin.bench.v1` JSON line to the --json sink opened by
// PrintBanner (no-op when none is open). `extra_json` is spliced verbatim
// into the record (prefixed with a comma when non-empty) for
// harness-specific fields on top of the required schema -- e.g.
// `"selectivity":0.01,"sink_chunks":42`. RunMedian calls this per repeat;
// harnesses that time something other than a bare join (the exec pipeline
// sweeps) call it directly.
void AppendBenchRecord(const char* algorithm, int repeat_index,
                       uint64_t build_size, uint64_t probe_size, int threads,
                       const join::JoinResult& result,
                       const std::string& extra_json = "");

// Runs `algorithm` `env.repeat` times on the given workload and returns the
// run with the median total time (first run warms the data). All repeats run
// on the process-wide persistent pool (unless `config.executor` names
// another one) -- repeated joins spawn zero threads.
join::JoinResult RunMedian(join::Algorithm algorithm,
                           numa::NumaSystem* system,
                           const join::JoinConfig& config,
                           const workload::Relation& build,
                           const workload::Relation& probe, int repeat);

// Prints the process pool's reuse counters (threads spawned vs. dispatches
// run). Harnesses call this at exit to document that the whole run created
// worker threads once. Also finalizes the observability artifacts the
// banner opened: flushes the bench JSON sink (appending the final metrics
// record) and writes the Chrome trace file when those were requested.
void PrintExecutorStats();

}  // namespace mmjoin::bench

#endif  // MMJOIN_BENCH_BENCH_COMMON_H_
