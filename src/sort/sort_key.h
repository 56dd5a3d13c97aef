// Sort keys and merge-path searches shared by the merge kernel
// (bitonic.cc) and the merge tree (multiway_merge.cc). Internal to
// src/sort/.
//
// Words are stored either in signed order (kBias = 0: MWAY's biased words)
// or as unsigned packed tuples (kBias = 2^63); Key<kBias> maps both onto
// the signed order the AVX2 compares use.

#ifndef MMJOIN_SORT_SORT_KEY_H_
#define MMJOIN_SORT_SORT_KEY_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/macros.h"

namespace mmjoin::sort::internal {

inline constexpr uint64_t kSignBias = uint64_t{1} << 63;

template <uint64_t kBias>
MMJOIN_ALWAYS_INLINE int64_t Key(uint64_t word) {
  return static_cast<int64_t>(word ^ kBias);
}

// Number of words of the sorted [p, p + n) whose key is <= `key`.
template <uint64_t kBias>
std::size_t CountNotAbove(const uint64_t* p, std::size_t n, int64_t key) {
  return static_cast<std::size_t>(
      std::upper_bound(p, p + n, key,
                       [](int64_t k, uint64_t word) {
                         return k < Key<kBias>(word);
                       }) -
      p);
}

// How many of the k smallest words of a ∪ b (k <= na + nb) come from a: a
// binary search for the merge-path split of two sorted runs.
template <uint64_t kBias>
std::size_t SplitSmallest(const uint64_t* a, std::size_t na,
                          const uint64_t* b, std::size_t nb, std::size_t k) {
  std::size_t lo = k > nb ? k - nb : 0;
  std::size_t hi = std::min(k, na);
  while (lo < hi) {
    const std::size_t i = lo + (hi - lo) / 2;
    if (Key<kBias>(a[i]) < Key<kBias>(b[k - i - 1])) {
      lo = i + 1;
    } else {
      hi = i;
    }
  }
  return lo;
}

}  // namespace mmjoin::sort::internal

#endif  // MMJOIN_SORT_SORT_KEY_H_
