// JoinService: a long-lived, multi-tenant front end that runs many join
// jobs concurrently on persistent worker pools.
//
// The paper's harness (and core::Joiner) runs one join at a time:
// Executor::Dispatch is serialized per pool, so a Joiner is a single-lane
// road no matter how many clients call Run. The service turns the same
// building blocks into a concurrent operator: it owns one core::Joiner
// (NumaSystem + validated options + lane 0's pool) plus `num_lanes - 1`
// additional executors, and a scheduler thread per lane pulls admitted
// jobs off a bounded FIFO queue and drives join::RunJoin on that lane's
// pool. Two lanes dispatch independently, so two jobs genuinely overlap --
// each still runs its phases barrier-synchronized on its own team.
//
// Admission control rejects instead of queuing unboundedly:
//   * a full admission queue (ServiceOptions::max_queue_depth) and
//   * a tenant at its concurrency cap (TenantQuota::max_concurrent_jobs)
// both return ResourceExhausted with a retry-after hint derived from the
// observed job latency. Per-tenant memory quotas are a mem::BudgetTracker
// per tenant threaded into every job's JoinConfig::budget: the join
// kernels charge their plan-level working set against it and degrade or
// reject (ResourceExhausted) when the tenant is over budget, exactly as a
// single budgeted join would (docs/ROBUSTNESS.md). A job of an unbounded
// tenant runs under its own JobSpec::config.mem_budget_bytes, if set; the
// service adds no default budget of its own.
//
// Fairness model: FIFO dispatch over the admission queue, bounded by the
// per-tenant caps -- a tenant can occupy at most max_concurrent_jobs of
// the queue+lanes at once, so no tenant can starve the others by
// submitting faster. docs/SERVICE.md covers the API, the admission
// policy, and the observability contract (service.* counters/histograms,
// service.admit/reject/complete log events, one trace span and one
// ExplainReport per job).

#ifndef MMJOIN_SERVICE_JOIN_SERVICE_H_
#define MMJOIN_SERVICE_JOIN_SERVICE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/explain.h"
#include "core/joiner.h"
#include "join/join_defs.h"
#include "mem/budget.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"
#include "workload/relation.h"

namespace mmjoin::service {

using JobId = uint64_t;

// Per-tenant admission limits. The default-constructed quota applies to
// tenants that were never configured explicitly.
struct TenantQuota {
  // Upper bound on a tenant's jobs that are queued or running at once;
  // submissions beyond it are rejected with ResourceExhausted.
  int max_concurrent_jobs = 4;
  // Byte budget shared by all of the tenant's concurrently running joins
  // (one mem::BudgetTracker per tenant). 0 = unbounded. Bounded quotas
  // must be >= join::JoinConfig::kMinMemBudgetBytes.
  uint64_t mem_budget_bytes = 0;
};

struct ServiceOptions {
  // NumaSystem shape and the per-lane team size (joiner.num_threads
  // threads per lane; the joiner's own pool serves lane 0).
  core::JoinerOptions joiner;
  // Scheduler lanes == jobs that can run simultaneously.
  int num_lanes = 2;
  // Bounded admission queue: jobs admitted but not yet picked up by a
  // lane. Submissions that would exceed it are rejected, never queued.
  std::size_t max_queue_depth = 64;
  // Quota for tenants without an explicit SetTenantQuota call.
  TenantQuota default_quota;

  Status Validate() const;
};

// One join request. The relations are borrowed: they must be allocated
// from this service's system() and stay alive until Wait(id) returned.
struct JobSpec {
  std::string tenant;  // "" maps to the "default" tenant
  join::Algorithm algorithm = join::Algorithm::kCPRL;
  const workload::Relation* build = nullptr;
  const workload::Relation* probe = nullptr;
  // Optional per-job knobs (radix_bits, sink, build_unique, ...).
  // num_threads, executor, and budget are always overridden by the
  // service; mem_budget_bytes only applies when the tenant is unbounded.
  join::JoinConfig config;
};

struct JobResult {
  JobId id = 0;
  std::string tenant;
  join::JoinResult join;
  // Per-job EXPLAIN: counters and the steal matrix are deltas over this
  // job's run window (see core/explain.h for the overlap semantics).
  core::ExplainReport explain;
  int64_t queue_wait_ns = 0;  // submit -> lane pickup
  int64_t run_ns = 0;         // lane pickup -> completion
  int lane = -1;
};

// Aggregate service accounting (mirrored into the service.* counters).
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  // Peak number of jobs that were *running* on lanes simultaneously --
  // the concurrency witness the service bench asserts on.
  int peak_running = 0;
  std::size_t queue_depth = 0;
};

class JoinService {
 public:
  // Validates options, builds the Joiner and the extra lane executors,
  // and starts one scheduler thread per lane.
  static StatusOr<std::unique_ptr<JoinService>> Create(
      const ServiceOptions& options);

  ~JoinService();  // Shutdown()s

  JoinService(const JoinService&) = delete;
  JoinService& operator=(const JoinService&) = delete;

  // The NumaSystem job relations must be allocated from.
  numa::NumaSystem* system() { return joiner_->system(); }
  core::Joiner* joiner() { return joiner_.get(); }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }

  // Installs or replaces a tenant's quota. Fails with FailedPrecondition
  // while the tenant has queued or running jobs (the memory quota is a
  // live BudgetTracker those jobs charge against).
  Status SetTenantQuota(const std::string& tenant, const TenantQuota& quota);

  // Admission: returns the job id, or ResourceExhausted (queue full /
  // tenant over its concurrency cap; the message carries a retry-after
  // hint in milliseconds) or FailedPrecondition (shutting down).
  StatusOr<JobId> SubmitJob(const JobSpec& spec);

  // Blocks until the job finished, then returns its result (or the
  // join's error status) and forgets the id. NotFound for ids never
  // submitted or already waited on.
  StatusOr<JobResult> Wait(JobId id);

  // Stops admission, drains every queued job, and joins the lanes.
  // Idempotent; results of drained jobs stay claimable via Wait.
  void Shutdown();

  ServiceStats stats() const;

 private:
  struct Job {
    JobId id = 0;
    JobSpec spec;
    // The tenant's budget tracker (nullptr = unbounded). Stable: the
    // TenantState owning it cannot be replaced while this job is active.
    mem::BudgetTracker* tracker = nullptr;
    int64_t submit_ns = 0;
    // done/status/result are written by the running lane and read by
    // Wait(), both under mutex_ (done_cv_ signals the transition).
    bool done = false;
    Status status;
    JobResult result;
  };

  struct Lane {
    // Lane 0 borrows the Joiner's pool; other lanes own theirs.
    thread::Executor* executor = nullptr;
    std::unique_ptr<thread::Executor> owned_executor;
    std::thread thread;
  };

  struct TenantState {
    TenantQuota quota;
    // Shared by the tenant's concurrent joins; thread-safe (CAS).
    std::unique_ptr<mem::BudgetTracker> tracker;
    int active_jobs = 0;  // queued + running, guarded by mutex_
  };

  explicit JoinService(const ServiceOptions& options);

  void LaneLoop(int lane_index);
  // Runs one job on `lane_index`'s executor; fills job->status/result.
  void RunJob(int lane_index, Job* job);
  TenantState* TenantOf(const std::string& tenant) MMJOIN_REQUIRES(mutex_);
  int64_t RetryAfterMsLocked() const MMJOIN_REQUIRES(mutex_);

  const ServiceOptions options_;
  std::unique_ptr<core::Joiner> joiner_;
  std::vector<Lane> lanes_;

  mutable Mutex mutex_;
  CondVar queue_cv_;  // signals lanes: work available or shutting down
  CondVar done_cv_;   // signals Wait(): some job completed
  std::deque<Job*> queue_ MMJOIN_GUARDED_BY(mutex_);
  std::map<JobId, std::unique_ptr<Job>> jobs_ MMJOIN_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<TenantState>> tenants_
      MMJOIN_GUARDED_BY(mutex_);
  JobId next_job_id_ MMJOIN_GUARDED_BY(mutex_) = 1;
  bool shutdown_ MMJOIN_GUARDED_BY(mutex_) = false;
  int running_jobs_ MMJOIN_GUARDED_BY(mutex_) = 0;
  ServiceStats stats_ MMJOIN_GUARDED_BY(mutex_);
  // Exponential moving average of recent job wall clock; seeds the
  // retry-after hint before the first completion.
  int64_t avg_job_ns_ MMJOIN_GUARDED_BY(mutex_) = 0;
};

}  // namespace mmjoin::service

#endif  // MMJOIN_SERVICE_JOIN_SERVICE_H_
