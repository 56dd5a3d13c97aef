// Operator contract of the vectorized pipeline (docs/PIPELINE.md).
//
// A pipeline is Source -> [Operator...] -> Sink, executed morsel-wise: each
// worker thread repeatedly pulls one chunk from the source and pushes it
// through the operator chain into the sink, so a chunk stays hot in cache
// across the whole segment. Three operator shapes exist:
//
//   Source     produces chunks from a base table / index (thread-safe
//              cursor; called concurrently with distinct tids).
//   Operator   either narrows the selection vector in place (is_filter())
//              or transforms an input chunk into an output chunk, possibly
//              over several calls (OpResult::kHaveMoreOutput).
//   Sink       absorbs finished chunks into per-thread state; Finish()
//              reduces single-threaded after the run and returns a Status.
//
// exec::HashJoinProbe is declared with this interface but executed
// specially: the wrapped join algorithm drives probe parallelism itself, so
// the Pipeline driver splits the chain at the join and feeds the downstream
// segment from the join's MatchSink (see pipeline.h).
//
// Every per-thread mutable state lives in slots indexed by tid and sized
// in Open(num_threads) before the parallel region -- operators need no
// locks of their own.

#ifndef MMJOIN_EXEC_OPERATOR_H_
#define MMJOIN_EXEC_OPERATOR_H_

#include <cstdint>

#include "exec/data_chunk.h"
#include "util/status.h"

namespace mmjoin::exec {

class Source {
 public:
  virtual ~Source() = default;
  virtual const char* name() const = 0;
  virtual int output_columns() const = 0;

  // Total rows the source will scan (for stats; 0 when unknown).
  virtual uint64_t TotalRows() const { return 0; }

  // Per-run initialization (reset cursors). Single-threaded.
  virtual void Open(int num_threads) {}

  // Fills `chunk` with the next morsel; false when the source is drained.
  // Thread-safe: workers race on an internal cursor.
  virtual bool NextChunk(int tid, DataChunk* chunk) = 0;
};

enum class OpResult {
  kNeedMoreInput,   // output chunk complete for this input; pull next
  kHaveMoreOutput,  // call Process again with the same input chunk
};

class Operator {
 public:
  virtual ~Operator() = default;
  // Static-lifetime string; doubles as the obs trace span name.
  virtual const char* name() const = 0;
  virtual int output_columns() const = 0;

  // Filters narrow the selection vector in place via Apply; transforms
  // produce fresh chunks via Process.
  virtual bool is_filter() const { return false; }

  // Per-run initialization (size per-thread state). Single-threaded.
  virtual void Open(int num_threads) {}

  // Filter path: refine chunk->selection in place. Only called when
  // is_filter().
  virtual void Apply(int tid, DataChunk* chunk) {}

  // Transform path: consume `in` (selection applied), write physical rows
  // into `out` (already Reset by the driver). Return kHaveMoreOutput to be
  // re-invoked with the same input (e.g. a probe that overflowed `out`).
  virtual OpResult Process(int tid, const DataChunk& in, DataChunk* out) {
    return OpResult::kNeedMoreInput;
  }
};

class Sink {
 public:
  virtual ~Sink() = default;
  virtual const char* name() const = 0;

  // Per-run initialization (size per-thread state). Single-threaded.
  virtual void Open(int num_threads) {}

  // Absorb one chunk (selection applied). Called concurrently with
  // distinct tids; implementations key all mutable state off tid.
  virtual void Append(int tid, const DataChunk& chunk) = 0;

  // Single-threaded reduction after every worker drained. A failure (e.g.
  // an allocation fault) fails the pipeline run with this Status.
  virtual Status Finish() { return OkStatus(); }
};

// Selection-vector refinement shared by every filter implementation:
// keeps the logical rows for which `pred(chunk, physical_row)` holds.
// `pred` is inlined per filter subclass -- no per-row virtual calls.
template <typename Pred>
MMJOIN_ALWAYS_INLINE void RefineSelection(DataChunk* chunk, Pred&& pred) {
  const uint32_t active = chunk->ActiveRows();
  uint32_t* sel = chunk->mutable_selection();
  uint32_t kept = 0;
  if (chunk->has_selection()) {
    for (uint32_t i = 0; i < active; ++i) {
      const uint32_t row = sel[i];
      sel[kept] = row;
      kept += pred(*chunk, row) ? 1 : 0;
    }
  } else {
    for (uint32_t row = 0; row < active; ++row) {
      sel[kept] = row;
      kept += pred(*chunk, row) ? 1 : 0;
    }
  }
  chunk->SetSelectionSize(kept);
}

}  // namespace mmjoin::exec

#endif  // MMJOIN_EXEC_OPERATOR_H_
