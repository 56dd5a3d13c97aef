// run_service: stand up a JoinService and drive it with concurrent jobs
// from several tenants -- the multi-tenant counterpart of run_join.
//
//   ./run_service --tenants=3 --jobs=4 --lanes=2 --threads=4
//   ./run_service --build=1000000 --probe=4000000 --zipf=0.9
//   ./run_service --listen=9178          # serve /metrics while jobs run
//
// Each tenant submits `--jobs` joins (algorithms round-robined across the
// partition-based and no-partitioning families) from its own client thread,
// so admission control, lane multiplexing, and the per-job EXPLAIN windows
// are all exercised the way a real embedding would. With --listen the
// process stays alive after the drain so a scraper can poll
// http://host:PORT/metrics for the service.* counters; terminate with kill.

#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/mmjoin.h"
#include "obs/metrics.h"
#include "obs/stats_server.h"
#include "service/join_service.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace mmjoin;
  const CommandLine cli(argc, argv,
                        {"build", "jobs", "lanes", "listen", "nodes", "probe",
                         "seed", "tenant-jobs", "tenants", "threads", "zipf"});

  const int num_tenants = static_cast<int>(cli.GetInt("tenants", 3));
  const int jobs_per_tenant = static_cast<int>(cli.GetInt("jobs", 4));
  const uint64_t build_size = cli.GetInt("build", 200'000);
  const uint64_t probe_size = cli.GetInt("probe", 800'000);
  const double zipf = cli.GetDouble("zipf", 0.0);
  const uint64_t seed = cli.GetInt("seed", 42);
  const int listen_port = static_cast<int>(cli.GetInt("listen", -1));
  const bool listen = listen_port >= 0;

  obs::Enable();

  obs::StatsServer stats_server;
  if (listen) {
    const Status status = stats_server.Start(listen_port);
    if (!status.ok()) {
      std::fprintf(stderr, "stats server failed: %s\n",
                   status.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "[mmjoin] serving metrics on http://0.0.0.0:%d"
                         "/metrics\n",
                 stats_server.port());
  }

  service::ServiceOptions options;
  options.joiner.num_nodes = static_cast<int>(cli.GetInt("nodes", 4));
  options.joiner.num_threads = static_cast<int>(cli.GetInt("threads", 4));
  options.num_lanes = static_cast<int>(cli.GetInt("lanes", 2));
  options.default_quota.max_concurrent_jobs =
      static_cast<int>(cli.GetInt("tenant-jobs", 8));
  auto service_or = service::JoinService::Create(options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "service start failed: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  service::JoinService& service = *service_or.value();

  StatusOr<workload::Relation> build_or =
      workload::MakeDenseBuild(service.system(), build_size, seed);
  if (!build_or.ok()) {
    std::fprintf(stderr, "invalid build workload: %s\n",
                 build_or.status().ToString().c_str());
    return 1;
  }
  workload::Relation build = std::move(build_or).value();
  StatusOr<workload::Relation> probe_or =
      zipf > 0.0
          ? workload::MakeZipfProbe(service.system(), probe_size, build_size,
                                    zipf, seed + 1)
          : workload::MakeProbeFromBuild(service.system(), probe_size, build,
                                         seed + 1);
  if (!probe_or.ok()) {
    std::fprintf(stderr, "invalid probe workload: %s\n",
                 probe_or.status().ToString().c_str());
    return 1;
  }
  workload::Relation probe = std::move(probe_or).value();

  const join::Algorithm algorithms[] = {
      join::Algorithm::kCPRL, join::Algorithm::kPRO, join::Algorithm::kNOP,
      join::Algorithm::kNOPA, join::Algorithm::kCPRA};
  constexpr int kNumAlgorithms = 5;

  std::printf("join service: tenants=%d jobs/tenant=%d lanes=%d "
              "|R|=%llu |S|=%llu zipf=%.2f\n",
              num_tenants, jobs_per_tenant, service.num_lanes(),
              static_cast<unsigned long long>(build_size),
              static_cast<unsigned long long>(probe_size), zipf);

  // One client thread per tenant: submit, wait, report. A rejection
  // (queue full / over quota) is normal backpressure here -- the client
  // honors the retry-after hint and resubmits.
  std::mutex print_mutex;
  int failures = 0;
  std::vector<std::thread> clients;
  clients.reserve(num_tenants);
  for (int t = 0; t < num_tenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (int i = 0; i < jobs_per_tenant; ++i) {
        service::JobSpec spec;
        spec.tenant = tenant;
        spec.algorithm = algorithms[(t + i) % kNumAlgorithms];
        spec.build = &build;
        spec.probe = &probe;
        StatusOr<service::JobId> id = service.SubmitJob(spec);
        while (!id.ok() &&
               id.status().code() == StatusCode::kResourceExhausted) {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          id = service.SubmitJob(spec);
        }
        if (!id.ok()) {
          std::lock_guard<std::mutex> lock(print_mutex);
          std::fprintf(stderr, "%s submit failed: %s\n", tenant.c_str(),
                       id.status().ToString().c_str());
          ++failures;
          continue;
        }
        const StatusOr<service::JobResult> result = service.Wait(*id);
        std::lock_guard<std::mutex> lock(print_mutex);
        if (!result.ok()) {
          std::fprintf(stderr, "%s job %llu failed: %s\n", tenant.c_str(),
                       static_cast<unsigned long long>(*id),
                       result.status().ToString().c_str());
          ++failures;
          continue;
        }
        std::printf("  %-8s job=%-3llu %-5s lane=%d matches=%llu "
                    "wait=%.2fms run=%.2fms\n",
                    tenant.c_str(), static_cast<unsigned long long>(*id),
                    join::NameOf(spec.algorithm), result->lane,
                    static_cast<unsigned long long>(result->join.matches),
                    result->queue_wait_ns / 1e6, result->run_ns / 1e6);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  service.Shutdown();

  const service::ServiceStats stats = service.stats();
  std::printf("service stats: submitted=%llu completed=%llu failed=%llu "
              "rejected=%llu peak_running=%d\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.completed),
              static_cast<unsigned long long>(stats.failed),
              static_cast<unsigned long long>(stats.rejected),
              stats.peak_running);

  if (failures > 0) {
    // Exit code 2: jobs failed cleanly (reported Status, no crash) -- same
    // convention as run_join so CI can tell failure modes apart.
    return 2;
  }
  if (listen) {
    std::fflush(stdout);
    std::fprintf(stderr, "[mmjoin] jobs done; process stays up for metrics"
                         " (kill to exit)\n");
    for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
  }
  return 0;
}
