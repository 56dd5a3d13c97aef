#include "sort/bitonic.h"

#include <algorithm>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "sort/sort_key.h"
#include "util/macros.h"

namespace mmjoin::sort {
namespace {

using internal::Key;
using internal::kSignBias;

constexpr std::size_t kRunSize = 64;  // insertion-sorted seed runs

// Scalar merge of a run of at most 15 words into another run: the loop
// ends with the short run, and the rest of the long one is one copy.
template <uint64_t kBias>
void MergeShortIntoLong(const uint64_t* shrt, std::size_t ns,
                        const uint64_t* lng, std::size_t nl, uint64_t* out) {
  std::size_t is = 0, il = 0;
  while (is < ns && il < nl) {
    const bool take_short = Key<kBias>(shrt[is]) <= Key<kBias>(lng[il]);
    *out++ = take_short ? shrt[is] : lng[il];
    is += take_short;
    il += !take_short;
  }
  out = std::copy_n(shrt + is, ns - is, out);
  std::copy_n(lng + il, nl - il, out);
}

// One merge of two sorted runs: a[0, na) and b[0, nb) into `out`.
struct MergeJob {
  const uint64_t* a;
  std::size_t na;
  const uint64_t* b;
  std::size_t nb;
  uint64_t* out;
};

#if defined(__AVX2__)

// Lane-wise a, b = min(a, b), max(a, b): the lanes where a > b swap, by
// XOR with the masked difference. Five single-uop instructions; a pair of
// vblendvpd costs more on current cores (2-3 uops each), and
// _mm256_blendv_epi8 on a 64-bit mask costs an extra vpcmpgtb in GCC.
MMJOIN_ALWAYS_INLINE void MinMax(__m256i& a, __m256i& b) {
  const __m256i gt = _mm256_cmpgt_epi64(a, b);
  const __m256i diff = _mm256_and_si256(_mm256_xor_si256(a, b), gt);
  a = _mm256_xor_si256(a, diff);
  b = _mm256_xor_si256(b, diff);
}

// Reverses the 4 lanes of a vector.
MMJOIN_ALWAYS_INLINE __m256i Reverse4(__m256i v) {
  return _mm256_permute4x64_epi64(v, _MM_SHUFFLE(0, 1, 2, 3));
}

// Cleans two bitonic 4-sequences, one per vector, into ascending order.
// The distance-2 and distance-1 stages compare lanes of the same vector;
// 128-bit and 64-bit interleaves move each pair into two vectors, so a
// stage is one vertical MinMax for both vectors.
MMJOIN_ALWAYS_INLINE void BitonicClean4x2(__m256i& x, __m256i& y) {
  // Distance 2: (x0 x1 y0 y1) against (x2 x3 y2 y3).
  __m256i lo = _mm256_permute2x128_si256(x, y, 0x20);
  __m256i hi = _mm256_permute2x128_si256(x, y, 0x31);
  MinMax(lo, hi);
  // Distance 1: the pairs are now adjacent lanes of lo and of hi.
  __m256i even = _mm256_unpacklo_epi64(lo, hi);
  __m256i odd = _mm256_unpackhi_epi64(lo, hi);
  MinMax(even, odd);
  // even = (x0' x2' y0' y2'), odd = (x1' x3' y1' y3'): interleave back.
  lo = _mm256_unpacklo_epi64(even, odd);
  hi = _mm256_unpackhi_epi64(even, odd);
  x = _mm256_permute2x128_si256(lo, hi, 0x20);
  y = _mm256_permute2x128_si256(lo, hi, 0x31);
}

// Merges two ascending 4-vectors into an ascending 8-sequence:
// lo = elements 0..3, hi = elements 4..7.
MMJOIN_ALWAYS_INLINE void BitonicMerge8(__m256i a, __m256i b, __m256i* lo,
                                        __m256i* hi) {
  // Reverse b to form a bitonic 8-sequence, then one cross stage + cleanup.
  b = Reverse4(b);
  MinMax(a, b);
  BitonicClean4x2(a, b);
  *lo = a;
  *hi = b;
}

// Cleans a bitonic 8-sequence spanning (x0, x1) into ascending order.
MMJOIN_ALWAYS_INLINE void BitonicClean8(__m256i& x0, __m256i& x1) {
  MinMax(x0, x1);
  BitonicClean4x2(x0, x1);
}

// Merges the ascending 8-sequences (a0, a1) and (b0, b1): afterwards
// (a0, a1) holds the lower 8 of the 16 elements and (b0, b1) the upper 8,
// both ascending. Reverse the second sequence, one cross stage, then clean
// both bitonic halves.
MMJOIN_ALWAYS_INLINE void BitonicMerge16(__m256i& a0, __m256i& a1,
                                         __m256i& b0, __m256i& b1) {
  __m256i r0 = Reverse4(b1);
  __m256i r1 = Reverse4(b0);
  MinMax(a0, r0);
  MinMax(a1, r1);
  BitonicClean8(a0, a1);
  BitonicClean8(r0, r1);
  b0 = r0;
  b1 = r1;
}

// Transposes a 4x4 matrix of 64-bit lanes held in four vectors.
MMJOIN_ALWAYS_INLINE void Transpose4x4(__m256i& v0, __m256i& v1, __m256i& v2,
                                       __m256i& v3) {
  const __m256i t0 = _mm256_unpacklo_epi64(v0, v1);
  const __m256i t1 = _mm256_unpackhi_epi64(v0, v1);
  const __m256i t2 = _mm256_unpacklo_epi64(v2, v3);
  const __m256i t3 = _mm256_unpackhi_epi64(v2, v3);
  v0 = _mm256_permute2x128_si256(t0, t2, 0x20);
  v1 = _mm256_permute2x128_si256(t1, t3, 0x20);
  v2 = _mm256_permute2x128_si256(t0, t2, 0x31);
  v3 = _mm256_permute2x128_si256(t1, t3, 0x31);
}

void SortNetwork16Avx2(int64_t* data) {
  __m256i v0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data));
  __m256i v1 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + 4));
  __m256i v2 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + 8));
  __m256i v3 =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + 12));

  // Stage 1: sort the 4 "columns" with a 4-element sorting network applied
  // lane-wise across the vectors.
  MinMax(v0, v1);
  MinMax(v2, v3);
  MinMax(v0, v2);
  MinMax(v1, v3);
  MinMax(v1, v2);

  // Stage 2: transpose -> each vector is a sorted 4-run.
  Transpose4x4(v0, v1, v2, v3);

  // Stage 3: merge 4+4 -> two sorted 8-sequences.
  __m256i a0, a1, b0, b1;
  BitonicMerge8(v0, v1, &a0, &a1);
  BitonicMerge8(v2, v3, &b0, &b1);

  // Stage 4: merge 8+8 -> 16.
  BitonicMerge16(a0, a1, b0, b1);

  _mm256_storeu_si256(reinterpret_cast<__m256i*>(data), a0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + 4), a1);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + 8), b0);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(data + 12), b1);
}

// Maps 4 stored words to signed sort keys and back (an XOR with the bias,
// which is its own inverse).
template <uint64_t kBias>
MMJOIN_ALWAYS_INLINE __m256i FlipBias(__m256i v) {
  if constexpr (kBias == 0) return v;
  return _mm256_xor_si256(v, _mm256_set1_epi64x(static_cast<int64_t>(kBias)));
}

template <uint64_t kBias>
MMJOIN_ALWAYS_INLINE __m256i LoadKeys(const uint64_t* p) {
  return FlipBias<kBias>(
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

template <uint64_t kBias>
MMJOIN_ALWAYS_INLINE void StoreKeys(uint64_t* p, __m256i keys) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), FlipBias<kBias>(keys));
}

// One step of the 8+8 streaming merge: merges the 8-block at `src` with
// the in-flight (v0, v1), stores the lower 8 at `out` and keeps the upper 8
// in flight.
template <uint64_t kBias>
MMJOIN_ALWAYS_INLINE void MergeBlock(__m256i& v0, __m256i& v1,
                                     const uint64_t* src, uint64_t* out) {
  __m256i w0 = LoadKeys<kBias>(src);
  __m256i w1 = LoadKeys<kBias>(src + 4);
  BitonicMerge16(v0, v1, w0, w1);
  StoreKeys<kBias>(out, v0);
  StoreKeys<kBias>(out + 4, v1);
  v0 = w0;
  v1 = w1;
}

// One 8+8 streaming bitonic merge of a job whose inputs both hold at
// least a block (8 words). Two vectors of the merged stream are in flight;
// each step loads the next block from whichever input has the smaller head,
// merges it with the in-flight 8 and stores the lower 8.
template <uint64_t kBias>
class BlockMerge {
 public:
  explicit BlockMerge(const MergeJob& job)
      : a_(job.a + 8),
        a_end_(job.a + job.na),
        b_(job.b),
        b_end_(job.b + job.nb),
        out_(job.out),
        v0_(LoadKeys<kBias>(job.a)),
        v1_(LoadKeys<kBias>(job.a + 4)) {}

  MMJOIN_ALWAYS_INLINE bool CanStep() const {
    return a_end_ - a_ >= 8 && b_end_ - b_ >= 8;
  }

  MMJOIN_ALWAYS_INLINE void Step() {
    // Pick the block with the smaller head without a branch: the compare
    // becomes an all-ones or all-zero mask that selects the pointer.
    const uintptr_t take_a = uintptr_t{0} - static_cast<uintptr_t>(
                                                Key<kBias>(*a_) <=
                                                Key<kBias>(*b_));
    const auto* src = reinterpret_cast<const uint64_t*>(
        (reinterpret_cast<uintptr_t>(a_) & take_a) |
        (reinterpret_cast<uintptr_t>(b_) & ~take_a));
    a_ += 8 & take_a;
    b_ += 8 & ~take_a;
    MergeBlock<kBias>(v0_, v1_, src, out_);
    out_ += 8;
  }

  // Runs the merge to its end.
  void Finish() {
    while (CanStep()) Step();
    // Everything stored so far precedes the 8 in-flight words and both
    // inputs' remainders; at least one remainder is shorter than a block.
    const bool a_short = a_end_ - a_ < 8;
    const uint64_t* shrt = a_short ? a_ : b_;
    const uint64_t* shrt_end = a_short ? a_end_ : b_end_;
    const uint64_t* lng = a_short ? b_ : a_;
    const uint64_t* lng_end = a_short ? b_end_ : a_end_;
    if (shrt == shrt_end) {
      // Only the long input is left: keep merging its blocks in while they
      // interleave with the in-flight 8 (whose largest is lane 3 of v1).
      while (lng_end - lng >= 8 &&
             Key<kBias>(*lng) < _mm256_extract_epi64(v1_, 3)) {
        MergeBlock<kBias>(v0_, v1_, lng, out_);
        out_ += 8;
        lng += 8;
      }
      if (lng == lng_end ||
          Key<kBias>(*lng) >= _mm256_extract_epi64(v1_, 3)) {
        StoreKeys<kBias>(out_, v0_);
        StoreKeys<kBias>(out_ + 4, v1_);
        std::copy(lng, lng_end, out_ + 8);
        return;
      }
    }
    // Merge the in-flight 8 with the short remainder (at most 15 words),
    // then that with the long one.
    uint64_t pending[8];
    StoreKeys<kBias>(pending, v0_);
    StoreKeys<kBias>(pending + 4, v1_);
    uint64_t head[15];
    std::size_t ip = 0, ih = 0;
    while (ip < 8 && shrt < shrt_end) {
      head[ih++] = Key<kBias>(*shrt) < Key<kBias>(pending[ip])
                       ? *shrt++
                       : pending[ip++];
    }
    while (ip < 8) head[ih++] = pending[ip++];
    while (shrt < shrt_end) head[ih++] = *shrt++;
    MergeShortIntoLong<kBias>(head, ih, lng,
                              static_cast<std::size_t>(lng_end - lng), out_);
  }

 private:
  const uint64_t* a_;
  const uint64_t* a_end_;
  const uint64_t* b_;
  const uint64_t* b_end_;
  uint64_t* out_;
  __m256i v0_;
  __m256i v1_;
};

// True when both inputs hold a block, so BlockMerge can run the job.
bool Blockable(const MergeJob& job) { return job.na >= 8 && job.nb >= 8; }

template <uint64_t kBias>
void MergeOne(const MergeJob& job) {
  if (Blockable(job)) {
    BlockMerge<kBias>(job).Finish();
  } else if (job.na <= job.nb) {
    MergeShortIntoLong<kBias>(job.a, job.na, job.b, job.nb, job.out);
  } else {
    MergeShortIntoLong<kBias>(job.b, job.nb, job.a, job.na, job.out);
  }
}

// Runs two independent merges with their steps interleaved. One merge step
// waits on the previous step's in-flight vectors, so a single merge is
// bound by that latency; two chains fill each other's stalls.
template <uint64_t kBias>
void MergeTwo(const MergeJob& x, const MergeJob& y) {
  if (!Blockable(x) || !Blockable(y)) {
    MergeOne<kBias>(x);
    MergeOne<kBias>(y);
    return;
  }
  BlockMerge<kBias> mx(x);
  BlockMerge<kBias> my(y);
  while (mx.CanStep() && my.CanStep()) {
    mx.Step();
    my.Step();
  }
  mx.Finish();
  my.Finish();
}

#else

template <uint64_t kBias>
void MergeOne(const MergeJob& job) {
  std::merge(job.a, job.a + job.na, job.b, job.b + job.nb, job.out,
             [](uint64_t x, uint64_t y) {
               return Key<kBias>(x) < Key<kBias>(y);
             });
}

template <uint64_t kBias>
void MergeTwo(const MergeJob& x, const MergeJob& y) {
  MergeOne<kBias>(x);
  MergeOne<kBias>(y);
}

#endif  // __AVX2__

// Merges shorter than this run as one chain: splitting costs a binary
// search and a second tail.
constexpr std::size_t kSplitMergeWords = 256;

// Merges one pair of runs, split at the merge path's midpoint into two
// independent halves when it is long enough.
template <uint64_t kBias>
void MergeRuns(const MergeJob& job) {
  const std::size_t total = job.na + job.nb;
  if (total < kSplitMergeWords) {
    MergeOne<kBias>(job);
    return;
  }
  const std::size_t half = total / 2;
  const std::size_t ia =
      internal::SplitSmallest<kBias>(job.a, job.na, job.b, job.nb, half);
  const std::size_t ib = half - ia;
  MergeTwo<kBias>({job.a, ia, job.b, ib, job.out},
                  {job.a + ia, job.na - ia, job.b + ib, job.nb - ib,
                   job.out + half});
}

void InsertionSortSigned(int64_t* data, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    const int64_t v = data[i];
    std::size_t j = i;
    while (j > 0 && data[j - 1] > v) {
      data[j] = data[j - 1];
      --j;
    }
    data[j] = v;
  }
}

}  // namespace

bool HasSimdMerge() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

void SortNetwork16Signed(int64_t* data) {
#if defined(__AVX2__)
  SortNetwork16Avx2(data);
#else
  InsertionSortSigned(data, 16);
#endif
}

void MergeSignedRuns(const int64_t* a, std::size_t na, const int64_t* b,
                     std::size_t nb, int64_t* out) {
  MergeRuns<0>({reinterpret_cast<const uint64_t*>(a), na,
                reinterpret_cast<const uint64_t*>(b), nb,
                reinterpret_cast<uint64_t*>(out)});
}

void MergePackedRuns(const uint64_t* a, std::size_t na, const uint64_t* b,
                     std::size_t nb, uint64_t* out) {
  MergeRuns<kSignBias>({a, na, b, nb, out});
}

void MergeSortSigned(int64_t* data, std::size_t n, int64_t* scratch) {
  if (n <= 1) return;

  // Seed runs: 16-element in-register sorting networks where AVX2 is
  // available (full 16-blocks only), insertion sort otherwise/on tails.
  std::size_t seed_width = kRunSize;
#if defined(__AVX2__)
  seed_width = 16;
  const std::size_t full_blocks = n / 16 * 16;
  for (std::size_t begin = 0; begin < full_blocks; begin += 16) {
    SortNetwork16Avx2(data + begin);
  }
  if (full_blocks < n) {
    InsertionSortSigned(data + full_blocks, n - full_blocks);
  }
#else
  for (std::size_t begin = 0; begin < n; begin += kRunSize) {
    InsertionSortSigned(data + begin, std::min(kRunSize, n - begin));
  }
#endif

  // Iterative bottom-up merging, ping-ponging between data and scratch.
  // The merges of one pass are independent, so they run two at a time.
  uint64_t* src = reinterpret_cast<uint64_t*>(data);
  uint64_t* dst = reinterpret_cast<uint64_t*>(scratch);
  for (std::size_t width = seed_width; width < n; width *= 2) {
    const auto job = [&](std::size_t begin) {
      const std::size_t mid = std::min(begin + width, n);
      const std::size_t end = std::min(begin + 2 * width, n);
      return MergeJob{src + begin, mid - begin, src + mid, end - mid,
                      dst + begin};
    };
    std::size_t begin = 0;
    for (; begin + 2 * width < n; begin += 4 * width) {
      MergeTwo<0>(job(begin), job(begin + 2 * width));
    }
    if (begin < n) MergeRuns<0>(job(begin));
    std::swap(src, dst);
  }
  if (src != reinterpret_cast<uint64_t*>(data)) {
    std::memcpy(data, src, n * sizeof(int64_t));
  }
}

void MergeSortPacked(uint64_t* data, std::size_t n, uint64_t* scratch) {
  // Bias to signed order for the AVX2 compares, and back afterwards.
  for (std::size_t i = 0; i < n; ++i) data[i] ^= kSignBias;
  MergeSortSigned(reinterpret_cast<int64_t*>(data), n,
                  reinterpret_cast<int64_t*>(scratch));
  for (std::size_t i = 0; i < n; ++i) data[i] ^= kSignBias;
}

bool IsSortedPacked(const uint64_t* data, std::size_t n) {
  for (std::size_t i = 1; i < n; ++i) {
    if (data[i - 1] > data[i]) return false;
  }
  return true;
}

}  // namespace mmjoin::sort
