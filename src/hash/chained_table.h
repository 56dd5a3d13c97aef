// Cache-conscious bucket-chained hash table (the PRB/PRO table of Balkesen
// et al., ICDE 2013, paper Section 3.1).
//
// Buckets are 32-byte records holding up to two tuples inline, a chain
// pointer, and an in-bucket latch byte -- the "single array for both locks
// and tuples, no head pointers" layout that made Balkesen's reimplementation
// of Blanas' NOP cache-efficient. Overflow buckets come from a bump
// allocator so chains stay pointer-stable. Per-partition builds are
// single-threaded (InsertSerial); the latch path supports concurrent builds
// for completeness and tests.

#ifndef MMJOIN_HASH_CHAINED_TABLE_H_
#define MMJOIN_HASH_CHAINED_TABLE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "hash/hash_functions.h"
#include "numa/system.h"
#include "util/bits.h"
#include "util/macros.h"
#include "util/types.h"

namespace mmjoin::hash {

template <typename Hash = IdentityHash>
class ChainedHashTable {
 public:
  struct Bucket {
    std::atomic<uint8_t> latch;
    uint8_t count;
    uint8_t padding[6];
    Tuple tuples[2];
    Bucket* next;
  };
  static_assert(sizeof(Bucket) == 32, "two buckets per cache line");

  // Sized for `expected_tuples` at ~2 tuples per bucket (Balkesen's
  // default). Overflow pool worst-cases at expected_tuples/2 extra buckets.
  ChainedHashTable(numa::NumaSystem* system, uint64_t expected_tuples,
                   numa::Placement placement, int home_node = 0,
                   Hash hasher = Hash{})
      : hasher_(hasher),
        num_buckets_(BucketsFor(expected_tuples)),
        mask_(num_buckets_ - 1),
        buckets_(system, num_buckets_, placement, home_node),
        overflow_(system, OverflowBucketsFor(expected_tuples), placement,
                  home_node) {
    Clear();
  }

  // Directory and overflow-pool buckets for `expected_tuples`, and the bytes
  // a table constructed for them allocates.
  static uint64_t BucketsFor(uint64_t expected_tuples) {
    return NextPowerOfTwo(std::max<uint64_t>(CeilDiv(expected_tuples, 2), 8));
  }
  static uint64_t OverflowBucketsFor(uint64_t expected_tuples) {
    return CeilDiv(expected_tuples, 2) + 1;
  }
  static uint64_t BytesFor(uint64_t expected_tuples) {
    return numa::NumaBuffer<Bucket>::BytesFor(BucketsFor(expected_tuples)) +
           numa::NumaBuffer<Bucket>::BytesFor(
               OverflowBucketsFor(expected_tuples));
  }

  ChainedHashTable(const ChainedHashTable&) = delete;
  ChainedHashTable& operator=(const ChainedHashTable&) = delete;

  void Clear() {
    for (uint64_t i = 0; i < num_buckets_; ++i) {
      buckets_[i].latch.store(0, std::memory_order_relaxed);
      buckets_[i].count = 0;
      buckets_[i].next = nullptr;
    }
    overflow_used_.store(0, std::memory_order_relaxed);
  }

  // Shrinks the active directory to fit `expected_tuples` and clears it
  // (scratch-table reuse across join tasks).
  void Reset(uint64_t expected_tuples) {
    const uint64_t wanted = BucketsFor(expected_tuples);
    MMJOIN_CHECK(wanted <= buckets_.size());
    MMJOIN_CHECK(OverflowBucketsFor(expected_tuples) <= overflow_.size());
    num_buckets_ = wanted;
    mask_ = num_buckets_ - 1;
    Clear();
  }

  // Single-threaded insert.
  MMJOIN_ALWAYS_INLINE void InsertSerial(Tuple t) {
    Bucket* bucket = &buckets_[hasher_(t.key) & mask_];
    while (bucket->count == 2) {
      if (bucket->next == nullptr) {
        bucket->next = AllocateOverflow();
      }
      bucket = bucket->next;
    }
    bucket->tuples[bucket->count++] = t;
  }

  // Thread-safe insert: spin on the head bucket's latch byte.
  void InsertConcurrent(Tuple t) {
    Bucket* head = &buckets_[hasher_(t.key) & mask_];
    Lock(head);
    Bucket* bucket = head;
    while (bucket->count == 2) {
      if (bucket->next == nullptr) bucket->next = AllocateOverflow();
      bucket = bucket->next;
    }
    bucket->tuples[bucket->count] = t;
    // Publish the tuple before the count so concurrent probes never read a
    // half-written slot.
    std::atomic_thread_fence(std::memory_order_release);
    bucket->count++;
    Unlock(head);
  }

  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t Probe(uint32_t key, Emit&& emit) const {
    uint64_t matches = 0;
    const Bucket* bucket = &buckets_[hasher_(key) & mask_];
    do {
      const int count = bucket->count;
      for (int i = 0; i < count; ++i) {
        if (bucket->tuples[i].key == key) {
          emit(bucket->tuples[i]);
          ++matches;
        }
      }
      bucket = bucket->next;
    } while (bucket != nullptr);
    return matches;
  }

  // Probe for unique (primary-key) build sides: stops at the first match.
  template <typename Emit>
  MMJOIN_ALWAYS_INLINE uint64_t ProbeUnique(uint32_t key, Emit&& emit) const {
    const Bucket* bucket = &buckets_[hasher_(key) & mask_];
    do {
      const int count = bucket->count;
      for (int i = 0; i < count; ++i) {
        if (bucket->tuples[i].key == key) {
          emit(bucket->tuples[i]);
          return 1;
        }
      }
      bucket = bucket->next;
    } while (bucket != nullptr);
    return 0;
  }

  uint64_t num_buckets() const { return num_buckets_; }
  // Base address of the bucket array (for NUMA traffic attribution).
  const void* raw_data() const { return buckets_.data(); }
  uint64_t overflow_buckets_used() const {
    return overflow_used_.load(std::memory_order_relaxed);
  }

 private:
  Bucket* AllocateOverflow() {
    const uint64_t index =
        overflow_used_.fetch_add(1, std::memory_order_relaxed);
    MMJOIN_CHECK(index < overflow_.size());
    Bucket* bucket = &overflow_[index];
    bucket->count = 0;
    bucket->next = nullptr;
    return bucket;
  }

  static void Lock(Bucket* bucket) {
    uint8_t expected = 0;
    while (!bucket->latch.compare_exchange_weak(expected, 1,
                                                std::memory_order_acquire,
                                                std::memory_order_relaxed)) {
      expected = 0;
    }
  }
  static void Unlock(Bucket* bucket) {
    bucket->latch.store(0, std::memory_order_release);
  }

  Hash hasher_;
  uint64_t num_buckets_;
  uint64_t mask_;
  numa::NumaBuffer<Bucket> buckets_;
  numa::NumaBuffer<Bucket> overflow_;
  std::atomic<uint64_t> overflow_used_{0};
};

}  // namespace mmjoin::hash

#endif  // MMJOIN_HASH_CHAINED_TABLE_H_
