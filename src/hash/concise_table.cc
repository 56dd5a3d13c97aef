#include "hash/concise_table.h"

#include <algorithm>

namespace mmjoin::hash {

ConciseHashTable::ConciseHashTable(numa::NumaSystem* system,
                                   uint64_t num_tuples,
                                   numa::Placement placement, int home_node,
                                   IdentityHash hasher)
    : hasher_(hasher),
      num_tuples_(num_tuples),
      num_buckets_(BucketsFor(num_tuples)),
      bucket_mask_(num_buckets_ - 1),
      groups_(system, num_buckets_ / 64, placement, home_node),
      array_(system, SlotsFor(num_tuples), placement, home_node) {
  for (auto& group : groups_) {
    group.bits = 0;
    group.prefix = 0;
  }
}

ConciseHashTable::BuildRegion ConciseHashTable::RegionForThread(
    int tid, int num_threads) const {
  const uint64_t num_groups = num_buckets_ / 64;
  const uint64_t per_thread = CeilDiv(num_groups, num_threads);
  const uint64_t begin_group =
      std::min<uint64_t>(per_thread * tid, num_groups);
  const uint64_t end_group =
      std::min<uint64_t>(begin_group + per_thread, num_groups);
  return BuildRegion{begin_group * 64, end_group * 64};
}

void ConciseHashTable::MarkBits(ConstTupleSpan tuples, BuildRegion region,
                                uint64_t* bucket_of,
                                std::vector<Tuple>* overflow) {
  const bool full_range =
      region.begin_bucket == 0 && region.end_bucket == num_buckets_;
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const Tuple t = tuples[i];
    const uint64_t h = hasher_(t.key) & bucket_mask_;
    MMJOIN_DCHECK(h >= region.begin_bucket && h < region.end_bucket);
    bucket_of[i] = kOverflowBucket;
    for (int j = 0; j < kProbeThreshold; ++j) {
      uint64_t bucket = h + j;
      if (full_range) {
        bucket &= bucket_mask_;
      } else if (bucket >= region.end_bucket) {
        // The probe chain would cross into another thread's region; spill.
        break;
      }
      uint64_t& bits = groups_[bucket >> 6].bits;
      const uint64_t bit = uint64_t{1} << (bucket & 63);
      if ((bits & bit) == 0) {
        bits |= bit;
        bucket_of[i] = bucket;
        break;
      }
    }
    if (bucket_of[i] == kOverflowBucket) overflow->push_back(t);
  }
}

void ConciseHashTable::FinalizePrefix() {
  uint64_t running = 0;
  for (auto& group : groups_) {
    MMJOIN_CHECK(running <= 0xFFFFFFFFull);
    group.prefix = static_cast<uint32_t>(running);
    running += static_cast<uint64_t>(std::popcount(group.bits));
  }
  MMJOIN_CHECK(running <= num_tuples_);
}

void ConciseHashTable::SetOverflow(std::vector<Tuple> overflow) {
  overflow_.clear();
  overflow_.reserve(overflow.size());
  for (const Tuple t : overflow) overflow_.push_back(PackTuple(t));
  std::sort(overflow_.begin(), overflow_.end());
}

void ConciseHashTable::Place(ConstTupleSpan tuples,
                             const uint64_t* bucket_of) {
  for (std::size_t i = 0; i < tuples.size(); ++i) {
    const uint64_t bucket = bucket_of[i];
    if (bucket == kOverflowBucket) continue;
    const Group& group = groups_[bucket >> 6];
    const uint64_t rank =
        group.prefix +
        PopcountBelow(group.bits, static_cast<uint32_t>(bucket & 63));
    MMJOIN_DCHECK(rank < array_.size());
    array_[rank] = tuples[i];
  }
}

void ConciseHashTable::BuildSerial(ConstTupleSpan tuples) {
  MMJOIN_CHECK(tuples.size() == num_tuples_);
  std::vector<uint64_t> bucket_of(tuples.size());
  std::vector<Tuple> overflow;
  MarkBits(tuples, BuildRegion{0, num_buckets_}, bucket_of.data(), &overflow);
  FinalizePrefix();
  SetOverflow(std::move(overflow));
  Place(tuples, bucket_of.data());
}

}  // namespace mmjoin::hash
