#include "exec/operators.h"

#include <cstring>

#include "util/macros.h"

namespace mmjoin::exec {

bool TupleScan::NextChunk(int tid, DataChunk* chunk) {
  (void)tid;
  const uint64_t total = tuples_.size();
  const uint64_t begin =
      cursor_.fetch_add(kChunkCapacity, std::memory_order_relaxed);
  if (begin >= total) return false;
  const uint32_t n = static_cast<uint32_t>(
      total - begin < kChunkCapacity ? total - begin : kChunkCapacity);
  chunk->Reset();
  uint32_t* keys = chunk->column(kScanKeyCol);
  uint32_t* payloads = chunk->column(kScanPayloadCol);
  const Tuple* src = tuples_.data() + begin;
  for (uint32_t i = 0; i < n; ++i) {
    keys[i] = src[i].key;
    payloads[i] = src[i].payload;
  }
  chunk->set_size(n);
  return true;
}

bool JoinIndexScan::NextChunk(int tid, DataChunk* chunk) {
  (void)tid;
  const uint64_t total = index_->size();
  const uint64_t begin =
      cursor_.fetch_add(kChunkCapacity, std::memory_order_relaxed);
  if (begin >= total) return false;
  const uint32_t n = static_cast<uint32_t>(
      total - begin < kChunkCapacity ? total - begin : kChunkCapacity);
  chunk->Reset();
  uint32_t* keys = chunk->column(kJoinKeyCol);
  uint32_t* build = chunk->column(kJoinBuildPayloadCol);
  uint32_t* probe = chunk->column(kJoinProbePayloadCol);
  const join::MatchedPair* src = index_->data() + begin;
  for (uint32_t i = 0; i < n; ++i) {
    keys[i] = src[i].key;
    build[i] = src[i].build_payload;
    probe[i] = src[i].probe_payload;
  }
  chunk->set_size(n);
  return true;
}

StatusOr<join::JoinResult> HashJoinProbe::Execute(
    numa::NumaSystem* system, ConstTupleSpan probe, join::MatchSink* sink,
    thread::Executor* executor, int num_threads) const {
  join::JoinConfig config = spec_.config;
  config.num_threads = num_threads;
  config.executor = executor;
  config.sink = sink;
  return join::RunJoin(spec_.algorithm, system, config, spec_.build, probe,
                       spec_.key_domain);
}

void CountAggregate::Append(int tid, const DataChunk& chunk) {
  MMJOIN_DCHECK(tid >= 0 && tid < static_cast<int>(slots_.size()));
  Slot& slot = slots_[static_cast<std::size_t>(tid)];
  const uint32_t active = chunk.ActiveRows();
  slot.rows += active;
  for (const int c : checksum_columns_) {
    const uint32_t* col = chunk.column(c);
    uint64_t sum = 0;
    if (!chunk.has_selection()) {
      for (uint32_t i = 0; i < active; ++i) sum += col[i];
    } else {
      const uint32_t* sel = chunk.selection();
      for (uint32_t i = 0; i < active; ++i) sum += col[sel[i]];
    }
    slot.checksum += sum;
  }
}

uint64_t CountAggregate::rows() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.rows;
  return total;
}

uint64_t CountAggregate::checksum() const {
  uint64_t total = 0;
  for (const Slot& slot : slots_) total += slot.checksum;
  return total;
}

void JoinIndexMaterialize::Append(int tid, const DataChunk& chunk) {
  MMJOIN_DCHECK(tid >= 0 && tid < static_cast<int>(per_thread_.size()));
  MMJOIN_DCHECK(chunk.num_columns() >= 3);
  std::vector<join::MatchedPair>& local =
      per_thread_[static_cast<std::size_t>(tid)];
  const uint32_t active = chunk.ActiveRows();
  const uint32_t* keys = chunk.column(kJoinKeyCol);
  const uint32_t* build = chunk.column(kJoinBuildPayloadCol);
  const uint32_t* probe = chunk.column(kJoinProbePayloadCol);
  const std::size_t base = local.size();
  local.resize(base + active);
  for (uint32_t i = 0; i < active; ++i) {
    const uint32_t row = chunk.RowAt(i);
    local[base + i] = join::MatchedPair{keys[row], build[row], probe[row]};
  }
}

uint64_t JoinIndexMaterialize::size() const {
  uint64_t total = 0;
  for (const auto& local : per_thread_) total += local.size();
  return total;
}

std::vector<join::MatchedPair> JoinIndexMaterialize::Gather() {
  std::vector<join::MatchedPair> all;
  all.reserve(size());
  for (auto& local : per_thread_) {
    all.insert(all.end(), local.begin(), local.end());
    local.clear();
    local.shrink_to_fit();
  }
  return all;
}

void TupleMaterialize::Append(int tid, const DataChunk& chunk) {
  MMJOIN_DCHECK(tid >= 0 && tid < static_cast<int>(per_thread_.size()));
  MMJOIN_DCHECK(chunk.num_columns() >= 2);
  std::vector<Tuple>& local = per_thread_[static_cast<std::size_t>(tid)];
  const uint32_t active = chunk.ActiveRows();
  const uint32_t* keys = chunk.column(kScanKeyCol);
  const uint32_t* payloads = chunk.column(kScanPayloadCol);
  const std::size_t base = local.size();
  local.resize(base + active);
  for (uint32_t i = 0; i < active; ++i) {
    const uint32_t row = chunk.RowAt(i);
    local[base + i] = Tuple{keys[row], payloads[row]};
  }
}

Status TupleMaterialize::Finish() {
  uint64_t total = 0;
  for (const auto& local : per_thread_) total += local.size();
  MMJOIN_ASSIGN_OR_RETURN(gathered_, numa::NumaBuffer<Tuple>::TryCreate(
                                         system_, total, placement_));
  count_ = total;
  uint64_t offset = 0;
  for (auto& local : per_thread_) {
    if (!local.empty()) {
      std::memcpy(gathered_.data() + offset, local.data(),
                  local.size() * sizeof(Tuple));
      offset += local.size();
    }
    local.clear();
    local.shrink_to_fit();
  }
  return OkStatus();
}

}  // namespace mmjoin::exec
