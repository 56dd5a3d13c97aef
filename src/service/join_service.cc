#include "service/join_service.h"

#include <string>
#include <utility>

#include "join/join_algorithm.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/log.h"
#include "util/timer.h"

namespace mmjoin::service {
namespace {

constexpr char kDefaultTenant[] = "default";

// Retry-after hint when no job has completed yet (nothing to base an
// estimate on): one scheduler quantum's worth of patience.
constexpr int64_t kDefaultRetryAfterMs = 100;

const std::string& TenantNameOf(const JobSpec& spec) {
  static const std::string kDefault(kDefaultTenant);
  return spec.tenant.empty() ? kDefault : spec.tenant;
}

Status ValidateQuota(const TenantQuota& quota) {
  if (quota.max_concurrent_jobs < 1) {
    return InvalidArgumentError("TenantQuota::max_concurrent_jobs must be >= 1");
  }
  if (quota.mem_budget_bytes != 0 &&
      quota.mem_budget_bytes < join::JoinConfig::kMinMemBudgetBytes) {
    return InvalidArgumentError(
        "TenantQuota::mem_budget_bytes below JoinConfig::kMinMemBudgetBytes "
        "(use 0 for unbounded)");
  }
  return OkStatus();
}

}  // namespace

Status ServiceOptions::Validate() const {
  Status joiner_status = joiner.Validate();
  if (!joiner_status.ok()) return joiner_status;
  if (num_lanes < 1 || num_lanes > 64) {
    return InvalidArgumentError("ServiceOptions::num_lanes must be in [1, 64]");
  }
  if (max_queue_depth < 1) {
    return InvalidArgumentError("ServiceOptions::max_queue_depth must be >= 1");
  }
  return ValidateQuota(default_quota);
}

StatusOr<std::unique_ptr<JoinService>> JoinService::Create(
    const ServiceOptions& options) {
  Status status = options.Validate();
  if (!status.ok()) return status;
  return std::unique_ptr<JoinService>(new JoinService(options));
}

JoinService::JoinService(const ServiceOptions& options)
    : options_(options), joiner_(std::make_unique<core::Joiner>(options.joiner)) {
  lanes_.resize(static_cast<size_t>(options.num_lanes));
  lanes_[0].executor = joiner_->executor();
  for (size_t i = 1; i < lanes_.size(); ++i) {
    lanes_[i].owned_executor = std::make_unique<thread::Executor>(
        options.joiner.num_threads, options.joiner.num_nodes);
    lanes_[i].executor = lanes_[i].owned_executor.get();
  }
  for (size_t i = 0; i < lanes_.size(); ++i) {
    const int index = static_cast<int>(i);
    // Scheduler lanes are control threads, not workers: each one *submits*
    // blocking Executor::Dispatch calls on behalf of a job, and dispatching
    // from inside an Executor worker closure deadlocks the pool -- so lanes
    // cannot themselves live on an Executor (raw-thread allowlisted).
    lanes_[i].thread = std::thread([this, index] { LaneLoop(index); });
  }
}

JoinService::~JoinService() { Shutdown(); }

Status JoinService::SetTenantQuota(const std::string& tenant,
                                   const TenantQuota& quota) {
  Status status = ValidateQuota(quota);
  if (!status.ok()) return status;
  const std::string name = tenant.empty() ? kDefaultTenant : tenant;
  MutexLock lock(mutex_);
  auto it = tenants_.find(name);
  if (it != tenants_.end() && it->second->active_jobs > 0) {
    return FailedPreconditionError(
        "tenant '" + name +
        "' has queued or running jobs; quotas can only change while idle");
  }
  auto state = std::make_unique<TenantState>();
  state->quota = quota;
  if (quota.mem_budget_bytes > 0) {
    state->tracker = std::make_unique<mem::BudgetTracker>(quota.mem_budget_bytes);
  }
  tenants_[name] = std::move(state);
  return OkStatus();
}

JoinService::TenantState* JoinService::TenantOf(const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it != tenants_.end()) return it->second.get();
  auto state = std::make_unique<TenantState>();
  state->quota = options_.default_quota;
  if (state->quota.mem_budget_bytes > 0) {
    state->tracker =
        std::make_unique<mem::BudgetTracker>(state->quota.mem_budget_bytes);
  }
  TenantState* raw = state.get();
  tenants_[tenant] = std::move(state);
  return raw;
}

int64_t JoinService::RetryAfterMsLocked() const {
  if (avg_job_ns_ <= 0) return kDefaultRetryAfterMs;
  const int64_t ms = avg_job_ns_ / 1000000;
  return ms < 1 ? 1 : ms;
}

StatusOr<JobId> JoinService::SubmitJob(const JobSpec& spec) {
  if (spec.build == nullptr || spec.probe == nullptr) {
    return InvalidArgumentError("JobSpec::build and probe must be non-null");
  }
  const std::string& tenant = TenantNameOf(spec);
  JobId id = 0;
  std::string reject_reason;
  int64_t retry_after_ms = 0;
  {
    MutexLock lock(mutex_);
    if (shutdown_) {
      return FailedPreconditionError("JoinService is shutting down");
    }
    TenantState* state = TenantOf(tenant);
    if (queue_.size() >= options_.max_queue_depth) {
      reject_reason = "admission queue full";
      retry_after_ms = RetryAfterMsLocked();
    } else if (state->active_jobs >= state->quota.max_concurrent_jobs) {
      reject_reason = "tenant over max_concurrent_jobs";
      retry_after_ms = RetryAfterMsLocked();
    } else {
      id = next_job_id_++;
      auto job = std::make_unique<Job>();
      job->id = id;
      job->spec = spec;
      job->spec.tenant = tenant;
      job->tracker = state->tracker.get();
      job->submit_ns = NowNanos();
      state->active_jobs += 1;
      queue_.push_back(job.get());
      stats_.submitted += 1;
      jobs_[id] = std::move(job);
      queue_cv_.NotifyOne();
    }
    if (id == 0) stats_.rejected += 1;
  }
  if (id == 0) {
    obs::MetricsRegistry::Get().AddCounter("service.jobs_rejected", 1);
    MMJOIN_LOG(kWarn, "service.reject")
        .Field("tenant", tenant)
        .Field("reason", reject_reason)
        .Field("retry_after_ms", retry_after_ms);
    return ResourceExhaustedError("job rejected (" + reject_reason +
                                  "); retry after " +
                                  std::to_string(retry_after_ms) + " ms");
  }
  obs::MetricsRegistry::Get().AddCounter("service.jobs_submitted", 1);
  MMJOIN_LOG(kDebug, "service.admit")
      .Field("job", id)
      .Field("tenant", tenant)
      .Field("algorithm", join::NameOf(spec.algorithm));
  return id;
}

StatusOr<JobResult> JoinService::Wait(JobId id) {
  std::unique_ptr<Job> job;
  {
    MutexLock lock(mutex_);
    for (;;) {
      auto it = jobs_.find(id);
      if (it == jobs_.end()) {
        return NotFoundError("unknown job id " + std::to_string(id) +
                             " (never submitted, or already waited on)");
      }
      if (it->second->done) {
        job = std::move(it->second);
        jobs_.erase(it);
        break;
      }
      done_cv_.Wait(mutex_);
    }
  }
  if (!job->status.ok()) return job->status;
  return std::move(job->result);
}

void JoinService::LaneLoop(int lane_index) {
  for (;;) {
    Job* job = nullptr;
    {
      MutexLock lock(mutex_);
      while (queue_.empty() && !shutdown_) queue_cv_.Wait(mutex_);
      if (queue_.empty()) return;  // shutdown with a drained queue
      job = queue_.front();
      queue_.pop_front();
      running_jobs_ += 1;
      if (running_jobs_ > stats_.peak_running) {
        stats_.peak_running = running_jobs_;
      }
    }
    job->result.queue_wait_ns = NowNanos() - job->submit_ns;
    RunJob(lane_index, job);
    const int64_t latency_ns = NowNanos() - job->submit_ns;
    const bool ok = job->status.ok();
    {
      MutexLock lock(mutex_);
      running_jobs_ -= 1;
      auto it = tenants_.find(job->spec.tenant);
      if (it != tenants_.end()) it->second->active_jobs -= 1;
      if (ok) {
        stats_.completed += 1;
      } else {
        stats_.failed += 1;
      }
      // EMA over recent completions feeds the retry-after hint.
      avg_job_ns_ = avg_job_ns_ == 0
                        ? latency_ns
                        : (avg_job_ns_ * 3 + latency_ns) / 4;
      job->done = true;
      done_cv_.NotifyAll();
    }
  }
}

void JoinService::RunJob(int lane_index, Job* job) {
  // Histogram pointers are stable for the registry's lifetime; cache them
  // so the steady state skips the registry mutex.
  static obs::Histogram* const wait_hist =
      obs::MetricsRegistry::Get().GetHistogram("service.queue_wait_ns");
  static obs::Histogram* const latency_hist =
      obs::MetricsRegistry::Get().GetHistogram("service.job_latency_ns");
  wait_hist->Record(static_cast<uint64_t>(job->result.queue_wait_ns));

  join::JoinConfig config = job->spec.config;
  config.num_threads = options_.joiner.num_threads;
  config.executor = lanes_[static_cast<size_t>(lane_index)].executor;
  config.budget = job->tracker;  // nullptr for unbounded tenants

  // Per-job EXPLAIN window: counter snapshots bracket this job only, not
  // the process lifetime (see core/explain.h for what overlapping lanes do
  // to the deltas). The steal matrix is the job's own, from its result.
  const std::map<std::string, uint64_t> counters_before =
      obs::MetricsRegistry::Get().SnapshotMap();

  const int64_t run_start_ns = NowNanos();
  StatusOr<join::JoinResult> result = [&] {
    obs::ObsScope span("service.job", obs::SpanKind::kRun);
    return join::RunJoin(job->spec.algorithm, joiner_->system(), config,
                         *job->spec.build, *job->spec.probe);
  }();
  const int64_t run_ns = NowNanos() - run_start_ns;
  const int64_t latency_ns = NowNanos() - job->submit_ns;
  latency_hist->Record(static_cast<uint64_t>(latency_ns));

  if (!result.ok()) {
    job->status = result.status();
    obs::MetricsRegistry::Get().AddCounter("service.jobs_failed", 1);
    MMJOIN_LOG(kDebug, "service.complete")
        .Field("job", job->id)
        .Field("tenant", job->spec.tenant)
        .Field("lane", lane_index)
        .Field("ok", false)
        .Field("status", result.status().ToString());
    return;
  }

  job->result.id = job->id;
  job->result.tenant = job->spec.tenant;
  job->result.join = *std::move(result);
  job->result.run_ns = run_ns;
  job->result.lane = lane_index;
  job->result.explain = core::BuildExplainReport(
      join::NameOf(job->spec.algorithm), job->result.join,
      job->spec.build->size(), job->spec.probe->size(),
      options_.joiner.num_threads, counters_before,
      obs::MetricsRegistry::Get().SnapshotMap());
  job->status = OkStatus();
  obs::MetricsRegistry::Get().AddCounter("service.jobs_completed", 1);
  MMJOIN_LOG(kDebug, "service.complete")
      .Field("job", job->id)
      .Field("tenant", job->spec.tenant)
      .Field("lane", lane_index)
      .Field("ok", true)
      .Field("matches", job->result.join.matches)
      .Field("run_ms", static_cast<double>(run_ns) / 1e6);
}

void JoinService::Shutdown() {
  std::vector<std::thread> to_join;
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
    queue_cv_.NotifyAll();
    // Move the threads out under the lock so concurrent Shutdown calls
    // cannot both join the same std::thread.
    for (Lane& lane : lanes_) {
      if (lane.thread.joinable()) to_join.push_back(std::move(lane.thread));
    }
  }
  for (std::thread& thread : to_join) thread.join();
}

ServiceStats JoinService::stats() const {
  MutexLock lock(mutex_);
  ServiceStats out = stats_;
  out.queue_depth = queue_.size();
  return out;
}

}  // namespace mmjoin::service
