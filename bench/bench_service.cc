// Multi-tenant service throughput: lanes x mixed job sizes.
//
// Drives one JoinService with a burst of jobs from several tenants -- half
// small uniform joins, half full-size Zipf-skewed joins, algorithms
// round-robined across CPRL / PRO / NOP -- and reports jobs/sec and the
// p95 job latency (submit -> completion, queue wait included). The sweep
// compares a single lane (pure serial execution, the pre-service baseline)
// against --lanes concurrent lanes; `peak_running` in each row is the
// concurrency witness that at least two joins really overlapped.
//
//   ./bench_service [--build=200000] [--probe=800000] [--threads=4]
//       [--lanes=3] [--jobs=24] [--zipf=0.85] [--repeat=3] [--json=PATH]
//
// JSON rows use algorithm="SERVICE" with build/probe set to the tuples
// processed across ALL jobs in the burst, so `mtps` reads as aggregate
// service throughput.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "service/join_service.h"
#include "util/timer.h"

namespace {

using namespace mmjoin;

constexpr join::Algorithm kAlgorithms[] = {
    join::Algorithm::kCPRL, join::Algorithm::kPRO, join::Algorithm::kNOP};
constexpr int kNumAlgorithms = 3;

}  // namespace

int main(int argc, char** argv) {
  const CommandLine cli(argc, argv,
                         bench::BenchFlags({"jobs", "lanes", "zipf"}));
  const bench::BenchEnv env = bench::BenchEnv::FromCli(
      cli, /*default_build=*/200'000, /*default_probe=*/800'000);
  const int max_lanes = std::max(1, static_cast<int>(cli.GetInt("lanes", 3)));
  const int num_jobs = std::max(2, static_cast<int>(cli.GetInt("jobs", 24)));
  const double zipf = cli.GetDouble("zipf", 0.85);
  bench::PrintBanner(
      "service",
      "Multi-tenant JoinService: jobs/sec and p95 latency for a mixed "
      "small/large + Zipf job burst, one lane vs. concurrent lanes",
      env);

  TablePrinter table({"lanes", "jobs", "wall_ms", "jobs_per_sec",
                      "p95_latency_ms", "peak_running", "rejected"});

  std::vector<int> lane_counts = {1};
  if (max_lanes > 1) lane_counts.push_back(max_lanes);
  for (const int lanes : lane_counts) {

    service::ServiceOptions options;
    options.joiner.num_nodes = env.nodes;
    options.joiner.num_threads = env.threads;
    options.joiner.page_policy = env.pages;
    options.num_lanes = lanes;
    options.max_queue_depth = static_cast<std::size_t>(num_jobs) * 2;
    options.default_quota.max_concurrent_jobs = num_jobs;
    auto service_or = service::JoinService::Create(options);
    if (!service_or.ok()) {
      std::fprintf(stderr, "service start failed: %s\n",
                   service_or.status().ToString().c_str());
      return 1;
    }
    service::JoinService& service = *service_or.value();

    // Small jobs join a quarter-size uniform workload; large jobs the full
    // Zipf-skewed one. Both relation pairs live on the service's system.
    const uint64_t small_build = std::max<uint64_t>(env.build_size / 4, 1024);
    const uint64_t small_probe = std::max<uint64_t>(env.probe_size / 4, 4096);
    workload::Relation build_large =
        workload::MakeDenseBuild(service.system(), env.build_size, env.seed)
            .value();
    workload::Relation probe_large =
        workload::MakeZipfProbe(service.system(), env.probe_size,
                                env.build_size, zipf, env.seed + 1)
            .value();
    workload::Relation build_small =
        workload::MakeDenseBuild(service.system(), small_build, env.seed + 2)
            .value();
    workload::Relation probe_small =
        workload::MakeUniformProbe(service.system(), small_probe, small_build,
                                   env.seed + 3)
            .value();

    for (int repeat = 0; repeat < std::max(1, env.repeat); ++repeat) {
      const int64_t start_ns = NowNanos();
      std::vector<service::JobId> ids;
      ids.reserve(num_jobs);
      uint64_t tuples_build = 0, tuples_probe = 0;
      for (int i = 0; i < num_jobs; ++i) {
        const bool large = (i % 2) == 0;
        service::JobSpec spec;
        spec.tenant = "tenant" + std::to_string(i % 3);
        spec.algorithm = kAlgorithms[i % kNumAlgorithms];
        spec.build = large ? &build_large : &build_small;
        spec.probe = large ? &probe_large : &probe_small;
        const StatusOr<service::JobId> id = service.SubmitJob(spec);
        if (!id.ok()) {
          std::fprintf(stderr, "submit failed: %s\n",
                       id.status().ToString().c_str());
          return 1;
        }
        ids.push_back(*id);
        tuples_build += spec.build->size();
        tuples_probe += spec.probe->size();
      }

      join::JoinResult aggregate;
      std::vector<int64_t> latencies;
      latencies.reserve(ids.size());
      for (const service::JobId id : ids) {
        const StatusOr<service::JobResult> result = service.Wait(id);
        if (!result.ok()) {
          std::fprintf(stderr, "job %llu failed: %s\n",
                       static_cast<unsigned long long>(id),
                       result.status().ToString().c_str());
          return 1;
        }
        aggregate.matches += result->join.matches;
        aggregate.checksum += result->join.checksum;
        latencies.push_back(result->queue_wait_ns + result->run_ns);
      }
      const int64_t wall_ns = NowNanos() - start_ns;
      aggregate.times.total_ns = wall_ns;

      std::sort(latencies.begin(), latencies.end());
      const int64_t p95_ns = latencies[std::min(
          latencies.size() - 1, (latencies.size() * 95) / 100)];
      const double jobs_per_sec =
          wall_ns > 0 ? static_cast<double>(num_jobs) * 1e9 /
                            static_cast<double>(wall_ns)
                      : 0.0;
      const service::ServiceStats stats = service.stats();

      table.Row(lanes, num_jobs, wall_ns / 1e6, jobs_per_sec, p95_ns / 1e6,
                stats.peak_running, stats.rejected);
      char extra[256];
      std::snprintf(extra, sizeof(extra),
                    "\"lanes\":%d,\"jobs\":%d,\"jobs_per_sec\":%.2f,"
                    "\"p95_latency_ns\":%lld,\"peak_running\":%d,"
                    "\"rejected\":%llu",
                    lanes, num_jobs, jobs_per_sec,
                    static_cast<long long>(p95_ns), stats.peak_running,
                    static_cast<unsigned long long>(stats.rejected));
      bench::AppendBenchRecord("SERVICE", repeat, tuples_build, tuples_probe,
                               env.threads, aggregate, extra);
    }

    const service::ServiceStats stats = service.stats();
    if (lanes > 1 && stats.peak_running < 2) {
      std::fprintf(stderr, "[service] WARNING: %d lanes never overlapped "
                           "(peak_running=%d)\n",
                   lanes, stats.peak_running);
    } else if (lanes > 1) {
      std::printf("[service] concurrency witness: peak_running=%d with %d "
                  "lanes\n",
                  stats.peak_running, lanes);
    }
    service.Shutdown();
  }

  table.Print();
  bench::PrintExecutorStats();
  return 0;
}
