// The three kinds of traffic every workload runs, through the public API
// only: 13-algorithm joins through core::Joiner::Run, TPC-H Q19 through
// tpch::TryRunQ19, and a closed-loop job mix through
// service::JoinService::SubmitJob/Wait. Each timed operation is checked
// against an expected result computed once, before timing.

#ifndef PERFBENCH_SEGMENTS_H_
#define PERFBENCH_SEGMENTS_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/joiner.h"
#include "join/join_defs.h"
#include "mem/aligned_alloc.h"
#include "report.h"
#include "service/join_service.h"
#include "tpch/tables.h"
#include "util/status.h"
#include "workload/relation.h"

namespace perfbench {

// Every Joiner and the service allocate with the OS's own page policy
// (mem::PagePolicy::kDefault). With huge pages requested (kHuge), whole
// processes ran 20-35 % faster or slower than each other on a 4-vCPU VM
// with transparent huge pages in madvise mode: which allocations get huge
// pages, and what faulting them in costs, varies per process.
inline constexpr mmjoin::mem::PagePolicy kPagePolicy =
    mmjoin::mem::PagePolicy::kDefault;
inline constexpr const char* kPagePolicyName = "default";

// Sizes of the join and Q19 traffic in one workload. The service job sizes
// are the same in every workload.
struct Geometry {
  uint64_t join_build = 0;
  uint64_t join_probe = 0;
  double q19_scale_factor = 0.0;
};

// Everything the timed segments run on. Member order matters: relations
// and tables are destroyed before the Joiner and service they were
// allocated from.
struct State {
  // Serves the join and Q19 traffic: 4 threads, 4 software NUMA nodes,
  // kPagePolicy.
  std::unique_ptr<mmjoin::core::Joiner> joiner;
  mmjoin::workload::Relation build;
  mmjoin::workload::Relation probe;
  mmjoin::tpch::PartTable part;
  mmjoin::tpch::LineitemTable lineitem;
  // 2 lanes x 2 threads.
  std::unique_ptr<mmjoin::service::JoinService> service;
  mmjoin::workload::Relation small_build;
  mmjoin::workload::Relation small_probe;
  mmjoin::workload::Relation large_build;
  mmjoin::workload::Relation large_probe;
};

struct SetupTimes {
  double workload_gen_s = 0.0;
  double tpch_gen_s = 0.0;
  double cold_run_ms = 0.0;  // the first Joiner::Run of the process
};

// Creates the Joiner and the service, generates every input from `seed`,
// and makes one untimed warm-up call per configuration.
mmjoin::StatusOr<std::unique_ptr<State>> Setup(const Geometry& geometry,
                                               uint64_t seed,
                                               SetupTimes* times);

struct JoinExpectation {
  uint64_t matches = 0;
  uint64_t checksum = 0;
};

struct Expected {
  JoinExpectation join;
  JoinExpectation small_job;
  JoinExpectation large_job;
  double q19_revenue = 0.0;
};

// join::ReferenceJoin per join input and tpch::Q19Reference; not part of
// set-up time. `corrupt` perturbs every expected value (a self-check that a
// wrong expectation fails the run).
Expected ComputeExpected(State& state, bool corrupt);

// How long a segment runs: at least `min_rounds` full rounds, then until
// `seconds` have passed. A round is every configuration once.
struct Budget {
  double seconds = 0.0;
  int min_rounds = 1;
};

// `prefix` namespaces the sample names (the traced run measures the
// headline segment once untraced, under "untraced/"). A non-null `spans`
// marks the traced run: spans are recorded and the per-layer samples that
// come straight from the API's results are added.
void RunJoinSegment(State& state, const Expected& expected,
                    const Budget& budget, const std::string& prefix,
                    Report* report, SpanLog* spans);
void RunQ19Segment(State& state, const Expected& expected,
                   const Budget& budget, const std::string& prefix,
                   Report* report, SpanLog* spans);
// Closed loop: 4 clients over 2 tenants, each submitting a job and waiting
// for it before the next. Runs for `budget.seconds` and until `min_small`
// small and `min_large` large jobs completed, so that the reported
// percentiles have enough samples beyond them.
void RunServiceSegment(State& state, const Expected& expected, uint64_t seed,
                       const Budget& budget, int min_small, int min_large,
                       const std::string& prefix, Report* report,
                       SpanLog* spans);

// Traced run only: each service job kind run alone through Joiner::Run on
// a team the size of one lane, so that service overhead = latency - solo.
void RunServiceSolo(State& state, const Expected& expected, Report* report,
                    SpanLog* spans);

}  // namespace perfbench

#endif  // PERFBENCH_SEGMENTS_H_
