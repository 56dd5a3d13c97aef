#include "segments.h"

#include <atomic>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "join/reference.h"
#include "tpch/generator.h"
#include "tpch/q19.h"
#include "util/timer.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using namespace mmjoin;

constexpr join::Algorithm kQ19Joins[] = {
    join::Algorithm::kNOP, join::Algorithm::kNOPA, join::Algorithm::kCPRL,
    join::Algorithm::kCPRA};
constexpr tpch::Q19Strategy kQ19Strategies[] = {tpch::Q19Strategy::kPipelined,
                                                tpch::Q19Strategy::kJoinIndex};
constexpr join::Algorithm kServiceAlgorithms[] = {
    join::Algorithm::kCPRL, join::Algorithm::kPRO, join::Algorithm::kNOP};

// Service job mix: 3 small uniform jobs per large Zipf-skewed one.
constexpr uint64_t kSmallBuild = 50'000;
constexpr uint64_t kSmallProbe = 200'000;
constexpr uint64_t kLargeBuild = 200'000;
constexpr uint64_t kLargeProbe = 800'000;
constexpr double kLargeZipfTheta = 0.85;
constexpr int kServiceClients = 4;
constexpr int kServiceLanes = 2;
constexpr int kThreadsPerLane = 2;

const char* StrategyName(tpch::Q19Strategy strategy) {
  return strategy == tpch::Q19Strategy::kPipelined ? "pipelined" : "joinindex";
}

std::string Q19ConfigName(join::Algorithm algorithm,
                          tpch::Q19Strategy strategy) {
  return std::string(join::NameOf(algorithm)) + "." + StrategyName(strategy);
}

double MillisSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-6;
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNanos() - start_ns) * 1e-9;
}

bool Matches(const join::JoinResult& result, const JoinExpectation& expected) {
  return result.matches == expected.matches &&
         result.checksum == expected.checksum;
}

// Same tolerance as examples/tpch_q19.cc: the parallel aggregation sums
// floats in a different order than the serial reference.
bool RevenueMatches(double revenue, double expected) {
  return std::abs(revenue - expected) < std::abs(expected) * 1e-9 + 1e-6;
}

JoinExpectation ExpectationOf(const join::JoinResult& result) {
  return JoinExpectation{result.matches, result.checksum};
}

Status SubmitAndWait(service::JoinService& service,
                     const service::JobSpec& spec) {
  MMJOIN_ASSIGN_OR_RETURN(const service::JobId id, service.SubmitJob(spec));
  return service.Wait(id).status();
}

// Runs at least budget.min_rounds rounds, then more until the budget's
// seconds have passed.
template <typename Round>
void RunRounds(const Budget& budget, Round&& round) {
  const int64_t deadline =
      NowNanos() + static_cast<int64_t>(budget.seconds * 1e9);
  for (int rounds = 0; rounds < budget.min_rounds || NowNanos() < deadline;
       ++rounds) {
    round();
  }
}

}  // namespace

StatusOr<std::unique_ptr<State>> Setup(const Geometry& geometry,
                                       uint64_t seed, SetupTimes* times) {
  auto state = std::make_unique<State>();
  core::JoinerOptions joiner_options;
  joiner_options.page_policy = kPagePolicy;
  MMJOIN_ASSIGN_OR_RETURN(state->joiner, core::Joiner::Create(joiner_options));
  numa::NumaSystem* system = state->joiner->system();

  int64_t start = NowNanos();
  MMJOIN_ASSIGN_OR_RETURN(
      state->build,
      workload::MakeDenseBuild(system, geometry.join_build, seed));
  MMJOIN_ASSIGN_OR_RETURN(
      state->probe, workload::MakeUniformProbe(system, geometry.join_probe,
                                               geometry.join_build, seed + 1));
  times->workload_gen_s = SecondsSince(start);

  start = NowNanos();
  tpch::GeneratorOptions tpch_options;
  tpch_options.scale_factor = geometry.q19_scale_factor;
  tpch_options.seed = seed + 2;
  state->part = tpch::GeneratePart(system, tpch_options);
  state->lineitem = tpch::GenerateLineitem(system, tpch_options);
  times->tpch_gen_s = SecondsSince(start);

  service::ServiceOptions service_options;
  service_options.joiner.num_threads = kThreadsPerLane;
  service_options.joiner.page_policy = kPagePolicy;
  service_options.num_lanes = kServiceLanes;
  MMJOIN_ASSIGN_OR_RETURN(state->service,
                          service::JoinService::Create(service_options));
  numa::NumaSystem* service_system = state->service->system();
  start = NowNanos();
  MMJOIN_ASSIGN_OR_RETURN(
      state->small_build,
      workload::MakeDenseBuild(service_system, kSmallBuild, seed + 3));
  MMJOIN_ASSIGN_OR_RETURN(
      state->small_probe,
      workload::MakeUniformProbe(service_system, kSmallProbe, kSmallBuild,
                                 seed + 4));
  MMJOIN_ASSIGN_OR_RETURN(
      state->large_build,
      workload::MakeDenseBuild(service_system, kLargeBuild, seed + 5));
  MMJOIN_ASSIGN_OR_RETURN(
      state->large_probe,
      workload::MakeZipfProbe(service_system, kLargeProbe, kLargeBuild,
                              kLargeZipfTheta, seed + 6));
  times->workload_gen_s += SecondsSince(start);

  // One untimed warm-up call per configuration.
  bool first = true;
  for (const join::Algorithm algorithm : join::AllAlgorithms()) {
    start = NowNanos();
    MMJOIN_RETURN_IF_ERROR(
        state->joiner->Run(algorithm, state->build, state->probe).status());
    if (first) times->cold_run_ms = MillisSince(start);
    first = false;
  }
  for (const join::Algorithm algorithm : kQ19Joins) {
    for (const tpch::Q19Strategy strategy : kQ19Strategies) {
      MMJOIN_RETURN_IF_ERROR(
          tpch::TryRunQ19(system, state->lineitem, state->part, algorithm,
                          state->joiner->num_threads(), strategy,
                          state->joiner->executor())
              .status());
    }
  }
  for (const join::Algorithm algorithm : kServiceAlgorithms) {
    for (const bool large : {false, true}) {
      service::JobSpec spec;
      spec.algorithm = algorithm;
      spec.build = large ? &state->large_build : &state->small_build;
      spec.probe = large ? &state->large_probe : &state->small_probe;
      MMJOIN_RETURN_IF_ERROR(SubmitAndWait(*state->service, spec));
    }
  }
  return state;
}

Expected ComputeExpected(State& state, bool corrupt) {
  thread::Executor* executor = state.joiner->executor();
  Expected expected;
  expected.join = ExpectationOf(
      join::ReferenceJoin(state.build.cspan(), state.probe.cspan(), executor));
  expected.small_job = ExpectationOf(join::ReferenceJoin(
      state.small_build.cspan(), state.small_probe.cspan(), executor));
  expected.large_job = ExpectationOf(join::ReferenceJoin(
      state.large_build.cspan(), state.large_probe.cspan(), executor));
  expected.q19_revenue = tpch::Q19Reference(state.lineitem, state.part);
  if (corrupt) {
    for (JoinExpectation* join :
         {&expected.join, &expected.small_job, &expected.large_job}) {
      ++join->checksum;
    }
    expected.q19_revenue = expected.q19_revenue * 1.001 + 1.0;
  }
  return expected;
}

void RunJoinSegment(State& state, const Expected& expected,
                    const Budget& budget, const std::string& prefix,
                    Report* report, SpanLog* spans) {
  SpanLog::Scope segment(spans, prefix + "segment.join");
  RunRounds(budget, [&] {
    for (const join::Algorithm algorithm : join::AllAlgorithms()) {
      const std::string name = join::NameOf(algorithm);
      SpanLog::Scope span(spans, "core.Joiner::Run." + name);
      const int64_t start = NowNanos();
      const StatusOr<join::JoinResult> result =
          state.joiner->Run(algorithm, state.build, state.probe);
      const double ms = MillisSince(start);
      const bool ok = result.ok() && Matches(*result, expected.join);
      report->CountOp(ok);
      if (!ok) continue;
      report->Sample(prefix + "core.run_ms." + name, ms);
      if (spans == nullptr) continue;
      const join::PhaseTimes& times = result->times;
      const std::pair<const char*, int64_t> phases[] = {
          {"join.partition_ms.", times.partition_ns},
          {"join.build_ms.", times.build_ns},
          {"join.probe_ms.", times.probe_ns}};
      for (const auto& [phase, ns] : phases) {
        if (ns > 0) {
          report->Sample(phase + name, static_cast<double>(ns) * 1e-6);
        }
      }
    }
  });
}

void RunQ19Segment(State& state, const Expected& expected,
                   const Budget& budget, const std::string& prefix,
                   Report* report, SpanLog* spans) {
  SpanLog::Scope segment(spans, prefix + "segment.q19");
  int64_t filter_ns = 0;
  int64_t total_ns = 0;
  RunRounds(budget, [&] {
    for (const join::Algorithm algorithm : kQ19Joins) {
      for (const tpch::Q19Strategy strategy : kQ19Strategies) {
        const std::string config = Q19ConfigName(algorithm, strategy);
        SpanLog::Scope span(spans, "tpch.TryRunQ19." + config);
        const int64_t start = NowNanos();
        const StatusOr<tpch::Q19Result> result = tpch::TryRunQ19(
            state.joiner->system(), state.lineitem, state.part, algorithm,
            state.joiner->num_threads(), strategy, state.joiner->executor());
        const double ms = MillisSince(start);
        const bool ok = result.ok() && RevenueMatches(result->revenue,
                                                      expected.q19_revenue);
        report->CountOp(ok);
        if (!ok) continue;
        report->Sample(prefix + "tpch.query_ms." + config, ms);
        filter_ns += result->filter_ns;
        total_ns += result->total_ns;
      }
    }
  });
  if (spans != nullptr && total_ns > 0) {
    report->Set("tpch.filter_share", static_cast<double>(filter_ns) /
                                         static_cast<double>(total_ns));
  }
}

void RunServiceSegment(State& state, const Expected& expected, uint64_t seed,
                       const Budget& budget, int min_small, int min_large,
                       const std::string& prefix, Report* report,
                       SpanLog* spans) {
  SpanLog::Scope segment(spans, prefix + "segment.service");
  service::JoinService& service = *state.service;
  std::atomic<int> small_done{0};
  std::atomic<int> large_done{0};
  const int64_t start = NowNanos();
  const int64_t soft_end = start + static_cast<int64_t>(budget.seconds * 1e9);
  // Gives up on the sample minimums well inside the run's time limit; the
  // percentile check in stats.py then fails the run.
  const int64_t hard_end =
      start + static_cast<int64_t>((3 * budget.seconds + 10) * 1e9);

  auto client = [&](int client_index) {
    std::mt19937_64 rng(seed * 7919 + static_cast<uint64_t>(client_index));
    service::JobSpec spec;
    spec.tenant = client_index % 2 == 0 ? "tenant0" : "tenant1";
    for (uint64_t job = 0;; ++job) {
      const int64_t now = NowNanos();
      if (now >= hard_end) break;
      // A failed run has no percentiles to fill: stop on time.
      if (now >= soft_end &&
          (report->failed() > 0 || (small_done.load() >= min_small &&
                                    large_done.load() >= min_large))) {
        break;
      }
      const bool large = rng() % 4 == 0;
      spec.algorithm = kServiceAlgorithms[job % 3];
      spec.build = large ? &state.large_build : &state.small_build;
      spec.probe = large ? &state.large_probe : &state.small_probe;
      const char* kind = large ? "large" : "small";
      SpanLog::Scope span(spans, std::string("service.job.") + kind,
                          segment.id());

      const int64_t submit_ns = NowNanos();
      const StatusOr<service::JobId> id = service.SubmitJob(spec);
      const int64_t submitted_ns = NowNanos();
      if (!id.ok()) {
        report->CountOp(false);
        continue;
      }
      const StatusOr<service::JobResult> result = service.Wait(*id);
      const double latency_ms = MillisSince(submit_ns);
      const bool ok =
          result.ok() && Matches(result->join, large ? expected.large_job
                                                     : expected.small_job);
      report->CountOp(ok);
      if (!ok) continue;
      (large ? large_done : small_done).fetch_add(1);
      report->Sample(prefix + "service." + kind + "_job_ms", latency_ms);
      if (spans == nullptr) continue;
      report->Sample("service.submit_us",
                     static_cast<double>(submitted_ns - submit_ns) * 1e-3);
      report->Sample("service.queue_wait_ms",
                     static_cast<double>(result->queue_wait_ns) * 1e-6);
      report->Sample("service.run_ms",
                     static_cast<double>(result->run_ns) * 1e-6);
    }
  };
  std::vector<std::thread> clients;
  for (int i = 0; i < kServiceClients; ++i) clients.emplace_back(client, i);
  for (std::thread& thread : clients) thread.join();

  report->Add(prefix + "service.jobs", small_done.load() + large_done.load());
  report->Add(prefix + "service.wall_s", SecondsSince(start));
  if (spans != nullptr) {
    const service::ServiceStats stats = service.stats();
    report->Set("service.peak_running", stats.peak_running);
    report->Set("service.rejected", static_cast<double>(stats.rejected));
  }
}

void RunServiceSolo(State& state, const Expected& expected, Report* report,
                    SpanLog* spans) {
  SpanLog::Scope segment(spans, "segment.service_solo");
  core::Joiner& joiner = *state.service->joiner();
  constexpr int kRepeats = 3;
  for (int repeat = 0; repeat < kRepeats; ++repeat) {
    for (const join::Algorithm algorithm : kServiceAlgorithms) {
      for (const bool large : {false, true}) {
        const char* kind = large ? "large" : "small";
        SpanLog::Scope span(spans,
                            std::string("core.Joiner::Run.solo.") + kind);
        const int64_t start = NowNanos();
        const workload::Relation& build =
            large ? state.large_build : state.small_build;
        const workload::Relation& probe =
            large ? state.large_probe : state.small_probe;
        const StatusOr<join::JoinResult> result =
            joiner.Run(algorithm, build, probe);
        const double ms = MillisSince(start);
        const bool ok = result.ok() &&
                        Matches(*result, large ? expected.large_job
                                               : expected.small_job);
        report->CountOp(ok);
        if (ok) report->Sample(std::string("service.solo_ms.") + kind, ms);
      }
    }
  }
}

}  // namespace perfbench
