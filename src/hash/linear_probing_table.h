// Lock-free linear probing hash table (the NOP table of Lang et al.,
// IMDM 2013, paper Section 3.2).
//
// Slots are single 64-bit words packing <key, payload>; concurrent inserts
// claim an empty slot with one compare-and-swap of the whole word (Lang CAS
// the key and then wrote the payload separately; a whole-slot CAS is the
// same protocol with the two steps fused, since slots are never overwritten
// or removed). Build keys need not be unique: duplicates occupy separate
// slots and probes scan to the first empty slot.

#ifndef MMJOIN_HASH_LINEAR_PROBING_TABLE_H_
#define MMJOIN_HASH_LINEAR_PROBING_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "hash/hash_functions.h"
#include "mem/aligned_alloc.h"
#include "numa/system.h"
#include "util/bits.h"
#include "util/macros.h"
#include "util/types.h"

namespace mmjoin::hash {

inline constexpr uint64_t kEmptySlot = PackTuple(Tuple{kEmptyKey, 0});

template <typename Hash = IdentityHash>
class LinearProbingTable {
 public:
  // Table for up to `expected_tuples` entries at load factor <= 0.5 (the
  // standard choice for linear probing; Lang et al. size the global NOP
  // table the same way). Memory comes from `system` with `placement` --
  // interleaved across all nodes for the global NOP table, node-local for
  // per-partition tables.
  LinearProbingTable(numa::NumaSystem* system, uint64_t expected_tuples,
                     numa::Placement placement, int home_node = 0,
                     Hash hasher = Hash{})
      : hasher_(hasher),
        capacity_(SlotsFor(expected_tuples)),
        mask_(capacity_ - 1),
        slots_(system, capacity_, placement, home_node) {
    Clear();
  }

  // Slots for `expected_tuples` at load factor <= 0.5, and the bytes a table
  // constructed for them allocates.
  static uint64_t SlotsFor(uint64_t expected_tuples) {
    return NextPowerOfTwo(std::max<uint64_t>(expected_tuples * 2, 16));
  }
  static uint64_t BytesFor(uint64_t expected_tuples) {
    return numa::NumaBuffer<std::atomic<uint64_t>>::BytesFor(
        SlotsFor(expected_tuples));
  }

  // Non-copyable (owns NUMA memory).
  LinearProbingTable(const LinearProbingTable&) = delete;
  LinearProbingTable& operator=(const LinearProbingTable&) = delete;

  void Clear() {
    for (uint64_t i = 0; i < capacity_; ++i) {
      slots_[i].store(kEmptySlot, std::memory_order_relaxed);
    }
  }

  // Shrinks the active table to fit `expected_tuples` (load factor <= 0.5)
  // and clears it. Lets per-thread scratch tables be reused across join
  // tasks without reallocating: partition joins size the scratch for the
  // largest partition and Reset() per co-partition.
  void Reset(uint64_t expected_tuples) {
    const uint64_t wanted = SlotsFor(expected_tuples);
    MMJOIN_CHECK(wanted <= slots_.size());
    capacity_ = wanted;
    mask_ = capacity_ - 1;
    Clear();
  }

  // Thread-safe insert (lock-free, CAS loop over probe sequence).
  MMJOIN_ALWAYS_INLINE void InsertConcurrent(Tuple t) {
    MMJOIN_DCHECK(t.key != kEmptyKey);
    const uint64_t packed = PackTuple(t);
    uint64_t slot = hasher_(t.key) & mask_;
    while (true) {
      uint64_t expected = kEmptySlot;
      if (slots_[slot].load(std::memory_order_relaxed) == kEmptySlot &&
          slots_[slot].compare_exchange_strong(expected, packed,
                                               std::memory_order_release,
                                               std::memory_order_relaxed)) {
        return;
      }
      slot = (slot + 1) & mask_;
    }
  }

  // Single-threaded insert (per-partition builds in PRL/CPRL).
  MMJOIN_ALWAYS_INLINE void InsertSerial(Tuple t) {
    MMJOIN_DCHECK(t.key != kEmptyKey);
    uint64_t slot = hasher_(t.key) & mask_;
    while (slots_[slot].load(std::memory_order_relaxed) != kEmptySlot) {
      slot = (slot + 1) & mask_;
    }
    slots_[slot].store(PackTuple(t), std::memory_order_relaxed);
  }

  // Calls `emit(build_tuple)` for every entry whose key equals `key`.
  // Returns the number of matches. Scans to the first empty slot, the
  // correct semantics when build keys may repeat.
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t Probe(uint32_t key, Emit&& emit) const {
    uint64_t matches = 0;
    uint64_t slot = hasher_(key) & mask_;
    while (true) {
      const uint64_t packed = slots_[slot].load(std::memory_order_acquire);
      if (packed == kEmptySlot) return matches;
      const Tuple t = UnpackTuple(packed);
      if (t.key == key) {
        emit(t);
        ++matches;
      }
      slot = (slot + 1) & mask_;
    }
  }

  // Probe for unique (primary-key) build sides: stops at the first match.
  // This is the variant the NOP literature uses -- with the identity hash on
  // a dense key domain the table is one contiguous occupied cluster, so
  // scanning to the next empty slot would degenerate to O(n) per probe.
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t ProbeUnique(uint32_t key, Emit&& emit) const {
    uint64_t slot = hasher_(key) & mask_;
    while (true) {
      const uint64_t packed = slots_[slot].load(std::memory_order_acquire);
      if (packed == kEmptySlot) return 0;
      const Tuple t = UnpackTuple(packed);
      if (t.key == key) {
        emit(t);
        return 1;
      }
      slot = (slot + 1) & mask_;
    }
  }

  uint64_t capacity() const { return capacity_; }
  // Base address of the slot array (for NUMA traffic attribution).
  const void* raw_data() const { return slots_.data(); }

 private:
  Hash hasher_;
  uint64_t capacity_;
  uint64_t mask_;
  numa::NumaBuffer<std::atomic<uint64_t>> slots_;
};

}  // namespace mmjoin::hash

#endif  // MMJOIN_HASH_LINEAR_PROBING_TABLE_H_
