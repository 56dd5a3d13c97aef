// SIMD bitonic merge kernels for packed <key, payload> tuples.
//
// MWAY (Balkesen et al., PVLDB 2013; paper Section 3.3) sorts with merge
// networks vectorized over SIMD registers. Tuples are packed into one
// 64-bit word with the key in the upper half (PackTuple), so ordering the
// packed words orders by key. Every entry point has a scalar fallback so the
// library runs on any ISA.
//
// The AVX2 merge kernel is an 8+8 bitonic merge over 4x64-bit vectors: two
// vectors of the merged stream stay in flight, each step loads the next
// 8-block from the input with the smaller head (picked with a compare mask,
// not a branch), merges the 16 words in registers and stores the lower 8.
// When an input has less than a block left, the in-flight words and that
// remainder are merged scalar and the result is merged into the other
// input's remainder by binary search and memcpy. Run generation
// (MergeSortSigned / MergeSortPacked) seeds 16-word runs with an in-register
// sorting network and merges them bottom-up with the same kernel.
//
// AVX2 has no unsigned 64-bit compare, so the kernels compare in signed
// order. Packed tuples are unsigned; biasing a word by XOR 2^63 (flipping
// its sign bit) maps unsigned order onto signed order. The *Signed entry
// points take words that are already biased (MWAY biases each tuple once,
// when it packs it); the *Packed entry points take unsigned words and bias
// on the fly.

#ifndef MMJOIN_SORT_BITONIC_H_
#define MMJOIN_SORT_BITONIC_H_

#include <cstddef>
#include <cstdint>

namespace mmjoin::sort {

// True when the AVX2 kernels are compiled in.
bool HasSimdMerge();

// Merges two sorted (by signed int64 order) arrays into `out`
// (non-overlapping). Uses the AVX2 bitonic merge network when available.
void MergeSignedRuns(const int64_t* a, std::size_t na, const int64_t* b,
                     std::size_t nb, int64_t* out);

// MergeSignedRuns for packed tuples in unsigned order.
void MergePackedRuns(const uint64_t* a, std::size_t na, const uint64_t* b,
                     std::size_t nb, uint64_t* out);

// Sorts 16 signed 64-bit values in-register with an AVX2 bitonic sorting
// network (4 vectors of 4 lanes); falls back to insertion sort without
// AVX2. Exposed for testing; run generation uses it for its seed runs.
void SortNetwork16Signed(int64_t* data);

// Sorts `data` in signed order using run generation + iterative merging
// through `scratch` (same size); the result is left in `data`.
void MergeSortSigned(int64_t* data, std::size_t n, int64_t* scratch);

// Sorts `data` (packed tuples, unsigned order) like MergeSortSigned,
// biasing the words before and after. Stable ordering of equal keys is NOT
// guaranteed (joins do not need it).
void MergeSortPacked(uint64_t* data, std::size_t n, uint64_t* scratch);

// Convenience: true if packed array is non-decreasing (unsigned order).
bool IsSortedPacked(const uint64_t* data, std::size_t n);

}  // namespace mmjoin::sort

#endif  // MMJOIN_SORT_BITONIC_H_
