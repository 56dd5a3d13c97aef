#include "obs/phase_profile.h"

#include <algorithm>

#include "obs/metrics.h"

namespace mmjoin::obs {
namespace {

// Per-phase latency distributions, fed with one sample per participating
// thread per run so the spread (skew) is visible, not just the mean.
// Pointers cached once: registry lookup locks, Record does not.
Histogram* PhaseLatencyHistogram(int phase) {
  static Histogram* const histograms[kNumJoinPhases] = {
      MetricsRegistry::Get().GetHistogram("join.phase_ns.partition.pass1"),
      MetricsRegistry::Get().GetHistogram("join.phase_ns.partition.pass2"),
      MetricsRegistry::Get().GetHistogram("join.phase_ns.build"),
      MetricsRegistry::Get().GetHistogram("join.phase_ns.probe"),
      MetricsRegistry::Get().GetHistogram("join.phase_ns.sort"),
      MetricsRegistry::Get().GetHistogram("join.phase_ns.merge"),
      MetricsRegistry::Get().GetHistogram("join.phase_ns.materialize"),
  };
  return histograms[phase];
}

}  // namespace

const char* JoinPhaseName(JoinPhase phase) {
  switch (phase) {
    case JoinPhase::kPartitionPass1:
      return "partition.pass1";
    case JoinPhase::kPartitionPass2:
      return "partition.pass2";
    case JoinPhase::kBuild:
      return "build";
    case JoinPhase::kProbe:
      return "probe";
    case JoinPhase::kSort:
      return "sort";
    case JoinPhase::kMerge:
      return "merge";
    case JoinPhase::kMaterialize:
      return "materialize";
  }
  return "unknown";
}

SpanKind JoinPhaseSpanKind(JoinPhase phase) {
  switch (phase) {
    case JoinPhase::kPartitionPass1:
    case JoinPhase::kPartitionPass2:
      return SpanKind::kPartition;
    case JoinPhase::kBuild:
      return SpanKind::kBuild;
    case JoinPhase::kProbe:
      return SpanKind::kProbe;
    case JoinPhase::kSort:
      return SpanKind::kSort;
    case JoinPhase::kMerge:
      return SpanKind::kMerge;
    case JoinPhase::kMaterialize:
      return SpanKind::kMaterialize;
  }
  return SpanKind::kOther;
}

JoinPhaseProfiler::JoinPhaseProfiler(int num_threads)
    : accums_(static_cast<std::size_t>(std::max(num_threads, 1))) {}

void JoinPhaseProfiler::Accumulate(int tid, JoinPhase phase, int64_t ns,
                                   const CounterDelta& delta) {
  if (tid < 0 || tid >= static_cast<int>(accums_.size())) return;
  ThreadAccum& accum = accums_[static_cast<std::size_t>(tid)];
  accum.ns[static_cast<int>(phase)] += ns;
  accum.counters[static_cast<int>(phase)] += delta;
}

PhaseProfile JoinPhaseProfiler::Finish() const {
  PhaseProfile profile;
  for (int p = 0; p < kNumJoinPhases; ++p) {
    PhaseStat& stat = profile.phases[p];
    for (const ThreadAccum& accum : accums_) {
      const int64_t ns = accum.ns[p];
      if (ns == 0 && !accum.counters[p].valid) continue;
      if (stat.threads == 0) {
        stat.min_ns = ns;
        stat.max_ns = ns;
      } else {
        stat.min_ns = std::min(stat.min_ns, ns);
        stat.max_ns = std::max(stat.max_ns, ns);
      }
      ++stat.threads;
      stat.total_ns += ns;
      stat.counters += accum.counters[p];
      if (ns > 0) {
        PhaseLatencyHistogram(p)->Record(static_cast<uint64_t>(ns));
      }
    }
  }
  return profile;
}

void PhaseScope::End() {
  const int64_t end_ns = NowNanos();
  CounterDelta delta;
  if (have_counters_) {
    CounterSample end_sample;
    if (PerfCounters::ThreadLocal()->Read(&end_sample)) {
      delta = Subtract(end_sample, start_sample_);
    }
  }
  profiler_.Accumulate(tid_, phase_, end_ns - start_ns_, delta);
  if (observed_) {
    TraceRecorder::Get().Record(JoinPhaseName(phase_),
                                JoinPhaseSpanKind(phase_), start_ns_, end_ns);
  }
}

}  // namespace mmjoin::obs
