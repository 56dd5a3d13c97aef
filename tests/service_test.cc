// JoinService tests: admission control (queue backpressure, per-tenant
// concurrency caps, memory quotas), concurrent progress across lanes,
// per-job EXPLAIN attribution, and shutdown semantics -- plus the
// concurrency sweep's cornerstone: many client threads hammering one
// core::Joiner (and one JoinService) must produce results bit-identical
// to serial runs. Runs under TSan in CI.

#include <gtest/gtest.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/joiner.h"
#include "join/join_algorithm.h"
#include "join/reference.h"
#include "service/join_service.h"
#include "workload/generator.h"

namespace mmjoin::service {
namespace {

ServiceOptions SmallServiceOptions(int num_lanes = 2) {
  ServiceOptions options;
  options.joiner.num_nodes = 2;
  options.joiner.num_threads = 2;
  options.num_lanes = num_lanes;
  return options;
}

// A sink whose ConsumeChunk blocks every worker until Release(): holds a
// job mid-probe so tests can pin a lane deterministically.
class GateSink final : public join::MatchSink {
 public:
  void ConsumeChunk(int /*tid*/, const join::MatchChunk& /*chunk*/) override {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
  }

  void WaitUntilEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(JoinServiceTest, OptionsValidate) {
  ServiceOptions options = SmallServiceOptions();
  EXPECT_TRUE(options.Validate().ok());
  options.num_lanes = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = SmallServiceOptions();
  options.max_queue_depth = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = SmallServiceOptions();
  options.default_quota.max_concurrent_jobs = 0;
  EXPECT_FALSE(options.Validate().ok());
  options = SmallServiceOptions();
  options.default_quota.mem_budget_bytes = 1024;  // below kMinMemBudgetBytes
  EXPECT_FALSE(options.Validate().ok());
}

TEST(JoinServiceTest, RunsOneJobAndMatchesReference) {
  auto service = JoinService::Create(SmallServiceOptions()).value();
  workload::Relation build =
      workload::MakeDenseBuild(service->system(), 20000, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(service->system(), 80000, 20000, 2).value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());

  JobSpec spec;
  spec.algorithm = join::Algorithm::kCPRL;
  spec.build = &build;
  spec.probe = &probe;
  const JobId id = service->SubmitJob(spec).value();
  const JobResult result = service->Wait(id).value();

  EXPECT_EQ(result.id, id);
  EXPECT_EQ(result.tenant, "default");
  EXPECT_EQ(result.join.matches, expected.matches);
  EXPECT_EQ(result.join.checksum, expected.checksum);
  EXPECT_GE(result.queue_wait_ns, 0);
  EXPECT_GT(result.run_ns, 0);
  EXPECT_GE(result.lane, 0);
  // Per-job EXPLAIN: the window covers exactly this job, so the join.runs
  // delta is 1, not "every run since process start".
  EXPECT_EQ(result.explain.algorithm, "CPRL");
  ASSERT_NE(result.explain.counters.find("join.runs"),
            result.explain.counters.end());
  EXPECT_EQ(result.explain.counters.at("join.runs"), 1u);

  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST(JoinServiceTest, WaitOnUnknownIdIsNotFound) {
  auto service = JoinService::Create(SmallServiceOptions()).value();
  const auto result = service->Wait(12345);
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(JoinServiceTest, ConcurrentJobsProgressSimultaneously) {
  auto service = JoinService::Create(SmallServiceOptions(/*num_lanes=*/2))
                     .value();
  workload::Relation build =
      workload::MakeDenseBuild(service->system(), 5000, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(service->system(), 20000, 5000, 2).value();

  // Two jobs each blocked inside their own sink: both lanes must be
  // running them at the same time for both gates to report entry.
  GateSink gate_a, gate_b;
  JobSpec spec;
  spec.algorithm = join::Algorithm::kCPRL;
  spec.build = &build;
  spec.probe = &probe;
  spec.config.sink = &gate_a;
  const JobId job_a = service->SubmitJob(spec).value();
  spec.config.sink = &gate_b;
  const JobId job_b = service->SubmitJob(spec).value();

  gate_a.WaitUntilEntered();
  gate_b.WaitUntilEntered();
  EXPECT_GE(service->stats().peak_running, 2);
  gate_a.Release();
  gate_b.Release();
  EXPECT_TRUE(service->Wait(job_a).ok());
  EXPECT_TRUE(service->Wait(job_b).ok());
}

TEST(JoinServiceTest, FullQueueRejectsWithRetryAfter) {
  ServiceOptions options = SmallServiceOptions(/*num_lanes=*/1);
  options.max_queue_depth = 1;
  auto service = JoinService::Create(options).value();
  workload::Relation build =
      workload::MakeDenseBuild(service->system(), 2000, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(service->system(), 8000, 2000, 2).value();

  GateSink gate;
  JobSpec blocked;
  blocked.algorithm = join::Algorithm::kCPRL;
  blocked.build = &build;
  blocked.probe = &probe;
  blocked.config.sink = &gate;
  const JobId running = service->SubmitJob(blocked).value();
  gate.WaitUntilEntered();  // the lane popped it; the queue is empty again

  JobSpec spec;
  spec.algorithm = join::Algorithm::kCPRL;
  spec.build = &build;
  spec.probe = &probe;
  const JobId queued = service->SubmitJob(spec).value();  // fills the queue

  const auto rejected = service->SubmitJob(spec);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(rejected.status().message().find("retry after"),
            std::string::npos);
  EXPECT_EQ(service->stats().rejected, 1u);

  gate.Release();
  EXPECT_TRUE(service->Wait(running).ok());
  EXPECT_TRUE(service->Wait(queued).ok());
}

TEST(JoinServiceTest, TenantConcurrencyQuotaIsEnforced) {
  ServiceOptions options = SmallServiceOptions(/*num_lanes=*/1);
  auto service = JoinService::Create(options).value();
  TenantQuota one_job;
  one_job.max_concurrent_jobs = 1;
  ASSERT_TRUE(service->SetTenantQuota("capped", one_job).ok());

  workload::Relation build =
      workload::MakeDenseBuild(service->system(), 2000, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(service->system(), 8000, 2000, 2).value();

  GateSink gate;
  JobSpec spec;
  spec.tenant = "capped";
  spec.algorithm = join::Algorithm::kCPRL;
  spec.build = &build;
  spec.probe = &probe;
  spec.config.sink = &gate;
  const JobId running = service->SubmitJob(spec).value();
  gate.WaitUntilEntered();

  // Same tenant: over its cap. Another tenant: admitted (queued).
  JobSpec second = spec;
  second.config.sink = nullptr;
  const auto rejected = service->SubmitJob(second);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);
  second.tenant = "other";
  const JobId other = service->SubmitJob(second).value();

  // Quotas cannot change under a tenant with active jobs.
  EXPECT_EQ(service->SetTenantQuota("capped", one_job).code(),
            StatusCode::kFailedPrecondition);

  gate.Release();
  EXPECT_TRUE(service->Wait(running).ok());
  EXPECT_TRUE(service->Wait(other).ok());

  // Idle again: both the resubmission and the quota change succeed.
  EXPECT_TRUE(service->SetTenantQuota("capped", one_job).ok());
  const JobId again = service->SubmitJob(second).value();
  EXPECT_TRUE(service->Wait(again).ok());
}

TEST(JoinServiceTest, TenantMemoryQuotaRejectsOversizedJoin) {
  ServiceOptions options = SmallServiceOptions(/*num_lanes=*/1);
  auto service = JoinService::Create(options).value();
  TenantQuota tiny;
  tiny.mem_budget_bytes = join::JoinConfig::kMinMemBudgetBytes;  // 1 MiB
  ASSERT_TRUE(service->SetTenantQuota("tiny", tiny).ok());

  workload::Relation build =
      workload::MakeDenseBuild(service->system(), 200000, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(service->system(), 400000, 200000, 2).value();

  // NOP's hash table alone exceeds the tenant budget, and (unlike the
  // PR*/CPR* family) NOP cannot degrade -- the job must fail with
  // ResourceExhausted charged against the *tenant's* tracker.
  JobSpec spec;
  spec.tenant = "tiny";
  spec.algorithm = join::Algorithm::kNOP;
  spec.build = &build;
  spec.probe = &probe;
  const JobId id = service->SubmitJob(spec).value();
  const auto result = service->Wait(id);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service->stats().failed, 1u);

  // The failed join released every reservation: an in-budget join from the
  // same tenant still runs.
  workload::Relation small_build =
      workload::MakeDenseBuild(service->system(), 2000, 3).value();
  workload::Relation small_probe =
      workload::MakeUniformProbe(service->system(), 4000, 2000, 4).value();
  spec.build = &small_build;
  spec.probe = &small_probe;
  const JobId ok_id = service->SubmitJob(spec).value();
  EXPECT_TRUE(service->Wait(ok_id).ok());
}

TEST(JoinServiceTest, ShutdownDrainsAndRejectsNewWork) {
  ServiceOptions options = SmallServiceOptions();
  options.default_quota.max_concurrent_jobs = 16;  // quota is not under test
  auto service = JoinService::Create(options).value();
  workload::Relation build =
      workload::MakeDenseBuild(service->system(), 5000, 1).value();
  workload::Relation probe =
      workload::MakeUniformProbe(service->system(), 20000, 5000, 2).value();

  JobSpec spec;
  spec.algorithm = join::Algorithm::kCPRL;
  spec.build = &build;
  spec.probe = &probe;
  std::vector<JobId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(service->SubmitJob(spec).value());
  service->Shutdown();
  // Queued jobs were drained, not dropped; their results stay claimable.
  for (const JobId id : ids) EXPECT_TRUE(service->Wait(id).ok());
  const auto after = service->SubmitJob(spec);
  EXPECT_EQ(after.status().code(), StatusCode::kFailedPrecondition);
}

// The concurrency sweep's witness: mixed algorithms from many service
// clients must be bit-identical to the serial reference.
TEST(JoinServiceTest, MixedAlgorithmsFromManyThreadsMatchReference) {
  ServiceOptions options = SmallServiceOptions(/*num_lanes=*/3);
  options.default_quota.max_concurrent_jobs = 64;
  auto service = JoinService::Create(options).value();
  workload::Relation build =
      workload::MakeDenseBuild(service->system(), 20000, 1).value();
  workload::Relation probe =
      workload::MakeZipfProbe(service->system(), 80000, 20000, 0.8, 2).value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());

  const join::Algorithm algorithms[] = {
      join::Algorithm::kCPRL, join::Algorithm::kPRO, join::Algorithm::kNOP,
      join::Algorithm::kNOPA, join::Algorithm::kPRB};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 3; ++i) {
        JobSpec spec;
        spec.tenant = "client" + std::to_string(t);
        spec.algorithm = algorithms[(t * 3 + i) % 5];
        spec.build = &build;
        spec.probe = &probe;
        const auto id = service->SubmitJob(spec);
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        const auto result = service->Wait(*id);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->join.matches, expected.matches);
        EXPECT_EQ(result->join.checksum, expected.checksum);
      }
    });
  }
  for (auto& client : clients) client.join();
  const ServiceStats stats = service->stats();
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.failed, 0u);
}

// One Joiner shared by N raw client threads: Run serializes dispatches on
// the single pool, and every result must still be bit-identical to the
// serial run -- the regression test for the steal-metrics flush that used
// to race the next run's queue re-seed.
TEST(JoinServiceTest, SharedJoinerIsThreadSafeAndDeterministic) {
  core::JoinerOptions options;
  options.num_nodes = 2;
  options.num_threads = 4;
  core::Joiner joiner(options);
  workload::Relation build =
      workload::MakeDenseBuild(joiner.system(), 20000, 5).value();
  workload::Relation probe =
      workload::MakeUniformProbe(joiner.system(), 80000, 20000, 6).value();
  const join::JoinResult expected =
      join::ReferenceJoin(build.cspan(), probe.cspan());

  const join::Algorithm algorithms[] = {
      join::Algorithm::kCPRL, join::Algorithm::kPRO, join::Algorithm::kNOP};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 4; ++i) {
        const auto result =
            joiner.Run(algorithms[(t + i) % 3], build, probe);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->matches, expected.matches);
        EXPECT_EQ(result->checksum, expected.checksum);
      }
    });
  }
  for (auto& client : clients) client.join();
}

}  // namespace
}  // namespace mmjoin::service
