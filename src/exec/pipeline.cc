#include "exec/pipeline.h"

#include <cstring>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/macros.h"
#include "util/timer.h"

namespace mmjoin::exec {
namespace {

// Per-worker execution state of one pipeline segment: the output chunk and
// boundary compactor of every transform operator, plus the sink-boundary
// compactor. Strictly single-owner -- one instance per worker thread,
// allocated before the dispatch; Drain() runs on the owner (or
// single-threaded after the parallel region).
class SegmentWorker {
 public:
  SegmentWorker(std::vector<Operator*> ops, Sink* sink, int input_columns,
                double threshold)
      : ops_(std::move(ops)), sink_(sink) {
    int width = input_columns;
    out_.reserve(ops_.size());
    boundary_.reserve(ops_.size());
    for (Operator* op : ops_) {
      if (op->is_filter()) {
        out_.push_back(nullptr);
        boundary_.push_back(nullptr);
      } else {
        boundary_.push_back(std::make_unique<ChunkCompactor>(width, threshold));
        width = op->output_columns();
        out_.push_back(std::make_unique<DataChunk>(width));
      }
    }
    sink_boundary_ = std::make_unique<ChunkCompactor>(width, threshold);
  }

  void CountSource(uint32_t rows) {
    ++source_chunks_;
    source_rows_ += rows;
  }

  // Pushes one chunk through the whole segment. The chunk's storage may be
  // reused by the caller afterwards.
  void Push(int tid, DataChunk* chunk) { RunFrom(tid, chunk, 0); }

  // Flushes every compactor buffer through the remainder of the segment.
  // Boundaries drain upstream-first so freed rows can still buffer (and be
  // compacted) further down.
  void Drain(int tid) {
    for (std::size_t i = 0; i < boundary_.size(); ++i) {
      if (boundary_[i] != nullptr) {
        boundary_[i]->Flush([&](DataChunk* dense) { ApplyOp(tid, dense, i); });
      }
    }
    sink_boundary_->Flush([&](DataChunk* dense) { AppendSink(tid, dense); });
  }

  // Folds this worker's accounting into the run-level stats.
  void FoldInto(PipelineStats* stats) const {
    stats->source_rows += source_rows_;
    stats->source_chunks += source_chunks_;
    stats->sink_chunks += sink_chunks_;
    stats->sink_rows += sink_rows_;
    const auto fold = [stats](const ChunkCompactor& c) {
      stats->boundary_chunks_in += c.stats().chunks_in;
      stats->boundary_rows_in += c.stats().rows_in;
      stats->chunks_emitted += c.stats().chunks_emitted;
      stats->rows_compacted += c.stats().rows_compacted;
      stats->compaction_flushes += c.stats().compaction_flushes;
      // Chunk fill ratio at this compaction boundary, in percent of
      // kChunkCapacity; one sample per (worker, boundary) with traffic.
      if (c.stats().chunks_in > 0) {
        static obs::Histogram* const fill =
            obs::MetricsRegistry::Get().GetHistogram("exec.chunk_fill_pct");
        fill->Record(c.stats().rows_in * 100 /
                     (c.stats().chunks_in * kChunkCapacity));
      }
    };
    for (const auto& b : boundary_) {
      if (b != nullptr) fold(*b);
    }
    fold(*sink_boundary_);
  }

 private:
  void RunFrom(int tid, DataChunk* chunk, std::size_t i) {
    for (; i < ops_.size(); ++i) {
      Operator* op = ops_[i];
      if (op->is_filter()) {
        obs::ObsScope scope(op->name(), obs::SpanKind::kOther);
        op->Apply(tid, chunk);
        if (chunk->Empty()) return;
        continue;
      }
      // Transform boundary: the compactor forwards the chunk (or a gathered
      // dense buffer) into the operator; downstream continues inside the
      // emit callback, so nothing more to do at this level.
      boundary_[i]->Push(chunk,
                         [&](DataChunk* dense) { ApplyOp(tid, dense, i); });
      return;
    }
    sink_boundary_->Push(chunk,
                         [&](DataChunk* dense) { AppendSink(tid, dense); });
  }

  void ApplyOp(int tid, DataChunk* dense, std::size_t i) {
    Operator* op = ops_[i];
    DataChunk* out = out_[i].get();
    OpResult result;
    do {
      out->Reset();
      {
        obs::ObsScope scope(op->name(), obs::SpanKind::kOther);
        result = op->Process(tid, *dense, out);
      }
      if (!out->Empty()) RunFrom(tid, out, i + 1);
    } while (result == OpResult::kHaveMoreOutput);
  }

  void AppendSink(int tid, DataChunk* dense) {
    obs::ObsScope scope(sink_->name(), obs::SpanKind::kMaterialize);
    sink_->Append(tid, *dense);
    ++sink_chunks_;
    sink_rows_ += dense->ActiveRows();
  }

  // read-only segment slice (empty slots never hit)
  std::vector<Operator*> ops_;
  Sink* sink_;
  // single-owner: all of the below belongs to this worker's thread.
  std::vector<std::unique_ptr<DataChunk>> out_;
  std::vector<std::unique_ptr<ChunkCompactor>> boundary_;
  std::unique_ptr<ChunkCompactor> sink_boundary_;
  uint64_t source_rows_ = 0;
  uint64_t source_chunks_ = 0;
  uint64_t sink_chunks_ = 0;
  uint64_t sink_rows_ = 0;
};

// Bridges the join's match stream into the post-join segment: converts each
// MatchChunk into a 3-column DataChunk (three memcpys) and pushes it through
// the per-thread SegmentWorker inside the join's worker threads.
class SegmentMatchSink final : public join::MatchSink {
 public:
  SegmentMatchSink(std::vector<std::unique_ptr<SegmentWorker>>* workers,
                   int num_threads)
      : workers_(workers) {
    static_assert(join::MatchChunk::kCapacity == kChunkCapacity,
                  "MatchChunk -> DataChunk conversion must not overflow");
    convert_.reserve(static_cast<std::size_t>(num_threads));
    for (int i = 0; i < num_threads; ++i) {
      convert_.push_back(std::make_unique<DataChunk>(3));
    }
  }

  void ConsumeChunk(int tid, const join::MatchChunk& chunk) override {
    MMJOIN_DCHECK(tid >= 0 && tid < static_cast<int>(convert_.size()));
    DataChunk& out = *convert_[static_cast<std::size_t>(tid)];
    out.Reset();
    const std::size_t bytes =
        static_cast<std::size_t>(chunk.size) * sizeof(uint32_t);
    std::memcpy(out.column(kJoinKeyCol), chunk.key, bytes);
    std::memcpy(out.column(kJoinBuildPayloadCol), chunk.build_payload, bytes);
    std::memcpy(out.column(kJoinProbePayloadCol), chunk.probe_payload, bytes);
    out.set_size(chunk.size);
    (*workers_)[static_cast<std::size_t>(tid)]->Push(tid, &out);
  }

 private:
  // per-thread: each join worker dereferences only its own tid's slot
  std::vector<std::unique_ptr<SegmentWorker>>* workers_;
  // per-thread conversion chunks indexed by tid; sized before the join
  // dispatch, each touched only by worker `tid`
  std::vector<std::unique_ptr<DataChunk>> convert_;
};

std::vector<std::unique_ptr<SegmentWorker>> MakeSegmentWorkers(
    const std::vector<Operator*>& ops, std::size_t begin, std::size_t end,
    Sink* sink, int input_columns, double threshold, int num_threads) {
  std::vector<Operator*> slice(ops.begin() + static_cast<std::ptrdiff_t>(begin),
                               ops.begin() + static_cast<std::ptrdiff_t>(end));
  std::vector<std::unique_ptr<SegmentWorker>> workers;
  workers.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers.push_back(std::make_unique<SegmentWorker>(slice, sink,
                                                      input_columns,
                                                      threshold));
  }
  return workers;
}

// Runs source -> ops[begin, end) -> sink morsel-wise on the executor.
// Workers drain their own compactors before leaving the dispatch; the
// caller still owns sink->Finish().
Status RunScanSegment(Source* source, const std::vector<Operator*>& ops,
                      std::size_t begin, std::size_t end, Sink* sink,
                      thread::Executor* executor, int num_threads,
                      double threshold,
                      std::vector<std::unique_ptr<SegmentWorker>>* workers) {
  source->Open(num_threads);
  for (std::size_t i = begin; i < end; ++i) ops[i]->Open(num_threads);
  sink->Open(num_threads);
  *workers = MakeSegmentWorkers(ops, begin, end, sink,
                                source->output_columns(), threshold,
                                num_threads);
  std::vector<std::unique_ptr<DataChunk>> source_chunks;
  source_chunks.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    source_chunks.push_back(
        std::make_unique<DataChunk>(source->output_columns()));
  }
  return executor->Dispatch(
      num_threads, [&](const thread::WorkerContext& ctx) {
        const int tid = ctx.thread_id;
        SegmentWorker& worker = *(*workers)[static_cast<std::size_t>(tid)];
        DataChunk& chunk = *source_chunks[static_cast<std::size_t>(tid)];
        while (true) {
          bool got;
          {
            obs::ObsScope scope(source->name(), obs::SpanKind::kOther);
            got = source->NextChunk(tid, &chunk);
          }
          if (!got) break;
          worker.CountSource(chunk.size());
          worker.Push(tid, &chunk);
        }
        worker.Drain(tid);
      });
}

void FlushExecMetrics(const PipelineStats& stats) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Get();
  registry.AddCounter("exec.pipelines", 1);
  registry.AddCounter("exec.boundary_chunks_in", stats.boundary_chunks_in);
  registry.AddCounter("exec.boundary_rows_in", stats.boundary_rows_in);
  registry.AddCounter("exec.chunks_emitted", stats.chunks_emitted);
  registry.AddCounter("exec.rows_compacted", stats.rows_compacted);
  registry.AddCounter("exec.compaction_flushes", stats.compaction_flushes);
}

}  // namespace

Pipeline::Pipeline(Source* source, std::vector<Operator*> ops, Sink* sink)
    : source_(source), ops_(std::move(ops)), sink_(sink) {
  MMJOIN_CHECK(source_ != nullptr);
  MMJOIN_CHECK(sink_ != nullptr);
  for (Operator* op : ops_) MMJOIN_CHECK(op != nullptr);
}

StatusOr<PipelineStats> Pipeline::Run(numa::NumaSystem* system,
                                      const PipelineConfig& config) {
  if (config.num_threads < 1) {
    return InvalidArgumentError("Pipeline needs num_threads >= 1");
  }
  if (config.compaction_threshold > 1.0) {
    return InvalidArgumentError("compaction_threshold must be <= 1");
  }
  thread::Executor* executor = config.executor != nullptr
                                   ? config.executor
                                   : &thread::GlobalExecutor();
  const double threshold = config.ResolvedThreshold();
  const int num_threads = config.num_threads;

  HashJoinProbe* join_op = nullptr;
  std::size_t join_pos = ops_.size();
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (auto* probe = dynamic_cast<HashJoinProbe*>(ops_[i])) {
      if (join_op != nullptr) {
        return InvalidArgumentError(
            "at most one HashJoinProbe per pipeline; chain pipelines "
            "through a join index for bushy plans");
      }
      join_op = probe;
      join_pos = i;
    }
  }

  obs::ObsScope pipeline_scope("exec.pipeline", obs::SpanKind::kRun);
  PipelineStats stats;
  const int64_t start_ns = NowNanos();

  if (join_op == nullptr) {
    std::vector<std::unique_ptr<SegmentWorker>> workers;
    MMJOIN_RETURN_IF_ERROR(RunScanSegment(source_, ops_, 0, ops_.size(),
                                          sink_, executor, num_threads,
                                          threshold, &workers));
    MMJOIN_RETURN_IF_ERROR(sink_->Finish());
    for (const auto& worker : workers) worker->FoldInto(&stats);
    stats.total_ns = NowNanos() - start_ns;
    FlushExecMetrics(stats);
    return stats;
  }

  // Stage A: scan .. pre-join operators, materialized as the probe relation
  // (the join is a pipeline breaker -- it needs the full probe side),
  // spread round-robin over the nodes.
  TupleMaterialize probe_mat(system, numa::Placement::kChunkedRoundRobin);
  std::vector<std::unique_ptr<SegmentWorker>> pre_workers;
  {
    obs::ObsScope scope("exec.stage.scan", obs::SpanKind::kOther);
    MMJOIN_RETURN_IF_ERROR(RunScanSegment(source_, ops_, 0, join_pos,
                                          &probe_mat, executor, num_threads,
                                          threshold, &pre_workers));
    MMJOIN_RETURN_IF_ERROR(probe_mat.Finish());
  }
  for (const auto& worker : pre_workers) worker->FoldInto(&stats);
  // sink_chunks/sink_rows report the *final* sink boundary only; the
  // pre-segment's sink was the probe materializer (covered by
  // pre_join_rows), so reset before the post segment folds in.
  stats.sink_chunks = 0;
  stats.sink_rows = 0;
  stats.pre_join_rows = probe_mat.size();
  const int64_t mid_ns = NowNanos();
  stats.pre_join_ns = mid_ns - start_ns;

  // Stage B: the join runs with its own parallelism; the post-join segment
  // executes inside the join's worker threads, fed via ConsumeChunk.
  for (std::size_t i = join_pos + 1; i < ops_.size(); ++i) {
    ops_[i]->Open(num_threads);
  }
  sink_->Open(num_threads);
  std::vector<std::unique_ptr<SegmentWorker>> post_workers =
      MakeSegmentWorkers(ops_, join_pos + 1, ops_.size(), sink_,
                         join_op->output_columns(), threshold, num_threads);
  SegmentMatchSink match_sink(&post_workers, num_threads);
  StatusOr<join::JoinResult> join_result = [&] {
    obs::ObsScope scope("exec.stage.join", obs::SpanKind::kOther);
    return join_op->Execute(system, probe_mat.span(), &match_sink, executor,
                            num_threads);
  }();
  if (!join_result.ok()) return join_result.status();
  {
    obs::ObsScope scope("exec.stage.drain", obs::SpanKind::kOther);
    for (int tid = 0; tid < num_threads; ++tid) {
      post_workers[static_cast<std::size_t>(tid)]->Drain(tid);
    }
    MMJOIN_RETURN_IF_ERROR(sink_->Finish());
  }
  for (const auto& worker : post_workers) worker->FoldInto(&stats);
  stats.has_join = true;
  stats.join_result = *join_result;
  stats.join_matches = join_result->matches;
  const int64_t end_ns = NowNanos();
  stats.join_ns = end_ns - mid_ns;
  stats.total_ns = end_ns - start_ns;
  FlushExecMetrics(stats);
  return stats;
}

}  // namespace mmjoin::exec
