// Array join table (paper Section 5.2).
//
// For dense, unique key domains (auto-increment primary keys) the hash table
// degenerates to a plain array: the key is the index, the cell stores the
// payload. A validity bitmap distinguishes empty cells (payloads may take
// any value, and the domain may contain holes -- Appendix C). Used by NOPA
// (global array, concurrent build) and PRA/CPRA (per-partition arrays,
// serial build, keys shifted right by the radix bits).

#ifndef MMJOIN_HASH_ARRAY_TABLE_H_
#define MMJOIN_HASH_ARRAY_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "numa/system.h"
#include "util/bits.h"
#include "util/macros.h"
#include "util/types.h"

namespace mmjoin::hash {

class ArrayTable {
 public:
  // Holds keys whose value right-shifted by `key_shift` falls in
  // [0, domain_size). For the global NOPA table key_shift is 0 and
  // domain_size covers the whole key domain; for a radix partition p with B
  // radix bits, key_shift = B and domain_size = ceil(domain / 2^B).
  ArrayTable(numa::NumaSystem* system, uint64_t domain_size,
             uint32_t key_shift, numa::Placement placement, int home_node = 0)
      : key_shift_(key_shift),
        domain_size_(SlotsFor(domain_size)),
        payloads_(system, domain_size_, placement, home_node),
        valid_(system, CeilDiv(domain_size_, 64), placement, home_node) {
    Clear();
  }

  // Key slots for `domain_size` (at least one), and the bytes a table
  // constructed for them allocates: payloads plus the validity bitmap.
  static uint64_t SlotsFor(uint64_t domain_size) {
    return std::max<uint64_t>(domain_size, 1);
  }
  static uint64_t BytesFor(uint64_t domain_size) {
    const uint64_t slots = SlotsFor(domain_size);
    return numa::NumaBuffer<uint32_t>::BytesFor(slots) +
           numa::NumaBuffer<std::atomic<uint64_t>>::BytesFor(
               CeilDiv(slots, 64));
  }

  ArrayTable(const ArrayTable&) = delete;
  ArrayTable& operator=(const ArrayTable&) = delete;

  void Clear() {
    for (uint64_t i = 0; i < valid_.size(); ++i) {
      valid_[i].store(0, std::memory_order_relaxed);
    }
  }

  // Shrinks the active domain for scratch reuse across join tasks.
  void Reset(uint64_t domain_size, uint32_t key_shift) {
    MMJOIN_CHECK(domain_size <= payloads_.size());
    domain_size_ = SlotsFor(domain_size);
    key_shift_ = key_shift;
    const uint64_t words = CeilDiv(domain_size_, 64);
    for (uint64_t i = 0; i < words; ++i) {
      valid_[i].store(0, std::memory_order_relaxed);
    }
  }

  MMJOIN_ALWAYS_INLINE uint64_t IndexOf(uint32_t key) const {
    const uint64_t index = key >> key_shift_;
    MMJOIN_DCHECK(index < domain_size_);
    return index;
  }

  // Serial insert (per-partition arrays).
  MMJOIN_ALWAYS_INLINE void InsertSerial(Tuple t) {
    const uint64_t index = IndexOf(t.key);
    payloads_[index] = t.payload;
    valid_[index >> 6].store(
        valid_[index >> 6].load(std::memory_order_relaxed) |
            (uint64_t{1} << (index & 63)),
        std::memory_order_relaxed);
  }

  // Concurrent insert: distinct keys write distinct cells; only the bitmap
  // words are shared and use an atomic OR.
  MMJOIN_ALWAYS_INLINE void InsertConcurrent(Tuple t) {
    const uint64_t index = IndexOf(t.key);
    payloads_[index] = t.payload;
    valid_[index >> 6].fetch_or(uint64_t{1} << (index & 63),
                                std::memory_order_release);
  }

  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t Probe(uint32_t key, Emit&& emit) const {
    const uint64_t index = key >> key_shift_;
    // Bounds check: probe keys outside the build domain are legitimate
    // (general foreign inputs) and simply miss.
    if (MMJOIN_UNLIKELY(index >= domain_size_)) return 0;
    if ((valid_[index >> 6].load(std::memory_order_acquire) &
         (uint64_t{1} << (index & 63))) == 0) {
      return 0;
    }
    emit(Tuple{key, payloads_[index]});
    return 1;
  }

  // Array cells hold at most one entry, so the unique probe is identical.
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t ProbeUnique(uint32_t key, Emit&& emit) const {
    return Probe(key, emit);
  }

  // Base address of the payload array (for NUMA traffic attribution).
  const void* raw_data() const { return payloads_.data(); }

 private:
  uint32_t key_shift_;
  uint64_t domain_size_;
  numa::NumaBuffer<uint32_t> payloads_;
  numa::NumaBuffer<std::atomic<uint64_t>> valid_;
};

}  // namespace mmjoin::hash

#endif  // MMJOIN_HASH_ARRAY_TABLE_H_
