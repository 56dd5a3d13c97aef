// Concise Hash Table (CHT) of Barber et al., PVLDB 2014 (paper Section 3.2).
//
// A CHT is a bulk-loaded, read-only linear probing table that stores the n
// build tuples in a dense array (zero empty slots) and replaces the sparse
// slot directory with a bitmap of 8*n buckets plus interleaved prefix
// population counts. A lookup tests the bucket bit and, when set, computes
// the tuple's dense array position as the bitmap rank of the bucket.
// Insertions probe at most kProbeThreshold buckets before spilling to a
// small overflow table.
//
// The build is a three-phase protocol so CHTJ can load the table in parallel
// from hash-partitioned inputs, each thread owning a disjoint bucket region
// (no synchronization, paper Section 3.2):
//   1. MarkBits   (parallel over disjoint regions)
//   2. FinalizePrefix + SetOverflow (single-threaded, O(n/8))
//   3. Place      (parallel)

#ifndef MMJOIN_HASH_CONCISE_TABLE_H_
#define MMJOIN_HASH_CONCISE_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hash/hash_functions.h"
#include "numa/system.h"
#include "util/bits.h"
#include "util/macros.h"
#include "util/types.h"

namespace mmjoin::hash {

class ConciseHashTable {
 public:
  static constexpr int kProbeThreshold = 2;
  static constexpr uint64_t kOverflowBucket = ~uint64_t{0};

  // 64 bitmap bits + their prefix rank, physically interleaved like the
  // paper's CHT.
  struct Group {
    uint64_t bits;
    uint32_t prefix;  // number of set bits in all preceding groups
    uint32_t unused;
  };
  static_assert(sizeof(Group) == 16);

  struct BuildRegion {
    uint64_t begin_bucket;  // multiples of 64 (group-aligned)
    uint64_t end_bucket;
  };

  // Table for exactly `num_tuples` build tuples; bucket count is the next
  // power of two of 8 * num_tuples.
  ConciseHashTable(numa::NumaSystem* system, uint64_t num_tuples,
                   numa::Placement placement, int home_node = 0,
                   IdentityHash hasher = IdentityHash{});

  // Bitmap buckets and dense-array slots for `num_tuples`, and the bytes
  // the constructor allocates for them. The overflow table is a heap vector
  // filled by the build.
  static uint64_t BucketsFor(uint64_t num_tuples) {
    return NextPowerOfTwo(std::max<uint64_t>(num_tuples * 8, 64));
  }
  static uint64_t SlotsFor(uint64_t num_tuples) {
    return std::max<uint64_t>(num_tuples, 1);
  }
  static uint64_t BytesFor(uint64_t num_tuples) {
    return numa::NumaBuffer<Group>::BytesFor(BucketsFor(num_tuples) / 64) +
           numa::NumaBuffer<Tuple>::BytesFor(SlotsFor(num_tuples));
  }

  ConciseHashTable(const ConciseHashTable&) = delete;
  ConciseHashTable& operator=(const ConciseHashTable&) = delete;

  uint64_t num_buckets() const { return num_buckets_; }
  uint64_t num_tuples() const { return num_tuples_; }

  // Group-aligned bucket region for thread `tid` of `num_threads`.
  BuildRegion RegionForThread(int tid, int num_threads) const;

  // Phase 1. Marks bitmap bits for `tuples`, all of which must hash into
  // `region` (CHTJ pre-partitions by hash prefix to guarantee this). Writes
  // the chosen bucket of tuple i into bucket_of[i] (kOverflowBucket when the
  // probe chain left the region or exceeded the threshold; those tuples are
  // appended to `overflow`). Thread-safe across disjoint regions.
  void MarkBits(ConstTupleSpan tuples, BuildRegion region,
                uint64_t* bucket_of, std::vector<Tuple>* overflow);

  // Phase 2a. Computes prefix ranks; single-threaded.
  void FinalizePrefix();

  // Phase 2b. Installs the merged overflow tuples (sorted internally).
  void SetOverflow(std::vector<Tuple> overflow);

  // Phase 3. Writes each tuple to its dense-array position. Thread-safe:
  // ranks are unique per bucket.
  void Place(ConstTupleSpan tuples, const uint64_t* bucket_of);

  // Convenience single-threaded build over the full bucket range.
  void BuildSerial(ConstTupleSpan tuples);

  // Calls `emit(build_tuple)` for each match; returns the match count.
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t Probe(uint32_t key, Emit&& emit) const {
    uint64_t matches = 0;
    const uint64_t h = hasher_(key) & bucket_mask_;
    for (int j = 0; j < kProbeThreshold; ++j) {
      const uint64_t bucket = (h + j) & bucket_mask_;
      const Group& group = groups_[bucket >> 6];
      const uint32_t offset = static_cast<uint32_t>(bucket & 63);
      if ((group.bits & (uint64_t{1} << offset)) == 0) {
        // Empty bucket terminates the probe chain: any tuple placed later in
        // the chain would have found this bucket free at insert time.
        break;
      }
      const uint64_t rank = group.prefix + PopcountBelow(group.bits, offset);
      const Tuple t = array_[rank];
      if (t.key == key) {
        emit(t);
        ++matches;
      }
    }
    if (MMJOIN_UNLIKELY(!overflow_.empty())) {
      matches += ProbeOverflow(key, emit);
    }
    return matches;
  }

  // Probe for unique build sides: stops at the first match; the overflow
  // table is consulted only when the bitmap chain had none.
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t ProbeUnique(uint32_t key, Emit&& emit) const {
    const uint64_t h = hasher_(key) & bucket_mask_;
    for (int j = 0; j < kProbeThreshold; ++j) {
      const uint64_t bucket = (h + j) & bucket_mask_;
      const Group& group = groups_[bucket >> 6];
      const uint32_t offset = static_cast<uint32_t>(bucket & 63);
      if ((group.bits & (uint64_t{1} << offset)) == 0) break;
      const uint64_t rank = group.prefix + PopcountBelow(group.bits, offset);
      const Tuple t = array_[rank];
      if (t.key == key) {
        emit(t);
        return 1;
      }
    }
    if (MMJOIN_UNLIKELY(!overflow_.empty())) {
      uint64_t found = 0;
      ProbeOverflow(key, [&](Tuple t) {
        if (found == 0) emit(t);
        ++found;
      });
      return found != 0 ? 1 : 0;
    }
    return 0;
  }

  uint64_t overflow_size() const { return overflow_.size(); }

 private:
  template <typename Emit>
  uint64_t ProbeOverflow(uint32_t key, Emit&& emit) const {
    // `overflow_` holds PackTuple values sorted by key (key in high bits):
    // binary search the first candidate, then scan.
    uint64_t matches = 0;
    const uint64_t lo = PackTuple(Tuple{key, 0});
    std::size_t left = 0, right = overflow_.size();
    while (left < right) {
      const std::size_t mid = (left + right) / 2;
      if (overflow_[mid] < lo) {
        left = mid + 1;
      } else {
        right = mid;
      }
    }
    for (std::size_t i = left; i < overflow_.size(); ++i) {
      const Tuple t = UnpackTuple(overflow_[i]);
      if (t.key != key) break;
      emit(t);
      ++matches;
    }
    return matches;
  }

  IdentityHash hasher_;
  uint64_t num_tuples_;
  uint64_t num_buckets_;
  uint64_t bucket_mask_;
  numa::NumaBuffer<Group> groups_;
  numa::NumaBuffer<Tuple> array_;
  std::vector<uint64_t> overflow_;  // packed tuples, sorted by key
};

}  // namespace mmjoin::hash

#endif  // MMJOIN_HASH_CONCISE_TABLE_H_
