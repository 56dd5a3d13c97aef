// Tests for the sort-merge substrate: SIMD bitonic merge kernels, packed
// merge sort, and the multiway merge tree.

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "sort/bitonic.h"
#include "sort/multiway_merge.h"
#include "util/rng.h"
#include "util/types.h"

namespace mmjoin::sort {
namespace {

std::vector<uint64_t> RandomPacked(std::size_t n, uint64_t seed,
                                   bool full_range = false) {
  Rng rng(seed);
  std::vector<uint64_t> data(n);
  for (auto& v : data) {
    // Keys below kEmptyKey; optionally exercise the full 32-bit key range
    // (sign-bit handling in the SIMD kernels).
    const uint32_t key =
        full_range ? static_cast<uint32_t>(rng.NextBelow(0xFFFFFFFFull))
                   : static_cast<uint32_t>(rng.NextBelow(1u << 20));
    v = PackTuple(Tuple{key, static_cast<uint32_t>(rng.Next())});
  }
  return data;
}

TEST(MergeSignedRuns, AgainstStdMerge) {
  Rng rng(1);
  for (const auto& [na, nb] : std::vector<std::pair<int, int>>{
           {0, 0}, {1, 0}, {0, 1}, {1, 1}, {4, 4}, {5, 3},
           {16, 16}, {100, 7}, {1000, 1000}, {1023, 4096}}) {
    std::vector<int64_t> a(na), b(nb);
    for (auto& v : a) v = static_cast<int64_t>(rng.Next());
    for (auto& v : b) v = static_cast<int64_t>(rng.Next());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());

    std::vector<int64_t> expected(na + nb);
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());

    std::vector<int64_t> actual(na + nb);
    MergeSignedRuns(a.data(), a.size(), b.data(), b.size(), actual.data());
    ASSERT_EQ(actual, expected) << "na=" << na << " nb=" << nb;
  }
}

TEST(MergeSignedRuns, NegativeValues) {
  std::vector<int64_t> a = {-100, -50, 0, 50};
  std::vector<int64_t> b = {-75, -25, 25, 75, 100};
  std::vector<int64_t> out(9);
  MergeSignedRuns(a.data(), a.size(), b.data(), b.size(), out.data());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
}

TEST(MergeSignedRuns, DuplicateHeavy) {
  std::vector<int64_t> a(64, 7), b(64, 7);
  a[63] = 8;
  std::vector<int64_t> out(128);
  MergeSignedRuns(a.data(), a.size(), b.data(), b.size(), out.data());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end()));
  EXPECT_EQ(std::count(out.begin(), out.end(), 7), 127);
}

// Every (na, nb) up to 40: runs shorter than a block, exact multiples of
// the 8-word block, and the remainders the tail merges by hand.
TEST(MergeSignedRuns, EverySizeUpTo40AgainstStdMerge) {
  Rng rng(2);
  for (int na = 0; na <= 40; ++na) {
    for (int nb = 0; nb <= 40; ++nb) {
      std::vector<int64_t> a(na), b(nb);
      // A narrow value range, so runs interleave and repeat values.
      for (auto& v : a) v = static_cast<int64_t>(rng.NextBelow(64)) - 32;
      for (auto& v : b) v = static_cast<int64_t>(rng.NextBelow(64)) - 32;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      std::vector<int64_t> expected(na + nb);
      std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
      std::vector<int64_t> actual(na + nb);
      MergeSignedRuns(a.data(), a.size(), b.data(), b.size(), actual.data());
      ASSERT_EQ(actual, expected) << "na=" << na << " nb=" << nb;
    }
  }
}

TEST(MergeSignedRuns, ExtremesAndAllEqual) {
  std::vector<int64_t> a = {INT64_MIN, INT64_MIN, -1, 0, 0, 1, INT64_MAX,
                            INT64_MAX, INT64_MAX};
  std::vector<int64_t> b = {INT64_MIN, -2, 0, 2, 3, 4, 5, 6, 7, 8,
                            INT64_MAX};
  for (int order = 0; order < 2; ++order) {
    std::vector<int64_t> expected(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
    std::vector<int64_t> out(expected.size());
    MergeSignedRuns(a.data(), a.size(), b.data(), b.size(), out.data());
    EXPECT_EQ(out, expected);
    std::swap(a, b);
  }
  for (const int64_t value : {INT64_MIN, int64_t{0}, INT64_MAX}) {
    std::vector<int64_t> same_a(37, value), same_b(40, value);
    std::vector<int64_t> out(77);
    MergeSignedRuns(same_a.data(), same_a.size(), same_b.data(),
                    same_b.size(), out.data());
    EXPECT_EQ(out, std::vector<int64_t>(77, value));
  }
}

TEST(MergePackedRuns, UnsignedOrderAgainstStdMerge) {
  Rng rng(3);
  for (const auto& [na, nb] : std::vector<std::pair<int, int>>{
           {0, 5}, {7, 9}, {8, 8}, {33, 100}, {1000, 1001}}) {
    std::vector<uint64_t> a(na), b(nb);
    for (auto& v : a) v = rng.Next();
    for (auto& v : b) v = rng.Next();
    if (na > 2) a[0] = 0, a[1] = UINT64_MAX;
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::vector<uint64_t> expected(na + nb);
    std::merge(a.begin(), a.end(), b.begin(), b.end(), expected.begin());
    std::vector<uint64_t> out(na + nb);
    MergePackedRuns(a.data(), a.size(), b.data(), b.size(), out.data());
    ASSERT_EQ(out, expected) << "na=" << na << " nb=" << nb;
  }
}

TEST(MergeSortSigned, SortsLikeStdSort) {
  Rng rng(4);
  for (const std::size_t n : {0, 1, 17, 100, 256, 4099, 32768}) {
    std::vector<int64_t> data(n);
    for (auto& v : data) v = static_cast<int64_t>(rng.Next());
    if (n > 3) data[0] = INT64_MIN, data[1] = INT64_MAX, data[2] = 0;
    std::vector<int64_t> expected = data;
    std::sort(expected.begin(), expected.end());
    std::vector<int64_t> scratch(n);
    MergeSortSigned(data.data(), n, scratch.data());
    ASSERT_EQ(data, expected) << "n=" << n;
  }
}

class MergeSortPackedTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MergeSortPackedTest, SortsLikeStdSort) {
  const std::size_t n = GetParam();
  std::vector<uint64_t> data = RandomPacked(n, 17 + n);
  std::vector<uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());

  std::vector<uint64_t> scratch(n);
  MergeSortPacked(data.data(), n, scratch.data());
  EXPECT_EQ(data, expected);
  EXPECT_TRUE(IsSortedPacked(data.data(), n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MergeSortPackedTest,
                         ::testing::Values(0, 1, 2, 15, 16, 63, 64, 65, 127,
                                           1000, 4096, 65537));

TEST(MergeSortPacked, FullKeyRangeUnsignedOrder) {
  // Keys with the top bit set must sort above keys without it (unsigned
  // semantics despite the signed SIMD compares).
  std::vector<uint64_t> data = RandomPacked(4096, 23, /*full_range=*/true);
  std::vector<uint64_t> expected = data;
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> scratch(data.size());
  MergeSortPacked(data.data(), data.size(), scratch.data());
  EXPECT_EQ(data, expected);
}

TEST(MergeSortPacked, AlreadySortedAndReversed) {
  std::vector<uint64_t> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = i * 3;
  std::vector<uint64_t> scratch(data.size());
  MergeSortPacked(data.data(), data.size(), scratch.data());
  EXPECT_TRUE(IsSortedPacked(data.data(), data.size()));

  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (data.size() - i) * 3;
  }
  MergeSortPacked(data.data(), data.size(), scratch.data());
  EXPECT_TRUE(IsSortedPacked(data.data(), data.size()));
}

TEST(MultiwayMerge, SingleRunIsCopy) {
  std::vector<uint64_t> run = {1, 2, 3, 4, 5};
  std::vector<uint64_t> out(5);
  const SortedRun runs[] = {{run.data(), run.size()}};
  MultiwayMerge(std::span<const SortedRun>(runs, 1), out.data());
  EXPECT_EQ(out, run);
}

TEST(MultiwayMerge, TwoRunsUseSimdKernel) {
  std::vector<uint64_t> a = RandomPacked(1000, 31);
  std::vector<uint64_t> b = RandomPacked(777, 32);
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::vector<uint64_t> expected;
  expected.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(expected));
  std::vector<uint64_t> out(a.size() + b.size());
  const SortedRun runs[] = {{a.data(), a.size()}, {b.data(), b.size()}};
  MultiwayMerge(std::span<const SortedRun>(runs, 2), out.data());
  EXPECT_EQ(out, expected);
}

class MultiwayMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiwayMergeTest, ManyRunsAgainstStdSort) {
  const int k = GetParam();
  Rng rng(100 + k);
  std::vector<std::vector<uint64_t>> run_storage(k);
  std::vector<SortedRun> runs;
  std::vector<uint64_t> expected;
  for (int r = 0; r < k; ++r) {
    run_storage[r] = RandomPacked(1 + rng.NextBelow(2000), 500 + r);
    std::sort(run_storage[r].begin(), run_storage[r].end());
    expected.insert(expected.end(), run_storage[r].begin(),
                    run_storage[r].end());
    runs.push_back(SortedRun{run_storage[r].data(), run_storage[r].size()});
  }
  std::sort(expected.begin(), expected.end());

  std::vector<uint64_t> out(expected.size());
  MultiwayMerge(runs, out.data());
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(Ks, MultiwayMergeTest,
                         ::testing::Values(3, 4, 5, 8, 16, 33));

TEST(MultiwayMerge, EmptyRunsMixedIn) {
  std::vector<uint64_t> a = {1, 5, 9};
  std::vector<uint64_t> b;
  std::vector<uint64_t> c = {2, 3};
  const SortedRun runs[] = {
      {a.data(), a.size()}, {b.data(), 0}, {c.data(), c.size()}};
  std::vector<uint64_t> out(5);
  MultiwayMerge(std::span<const SortedRun>(runs, 3), out.data());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2, 3, 5, 9}));
}

// ~0 is an ordinary value: the largest packed tuple must come out last,
// not be taken for the end of its run.
TEST(MultiwayMerge, LargestValueIsMerged) {
  std::vector<uint64_t> a = {1, 5, UINT64_MAX};
  std::vector<uint64_t> b = {2, 3};
  std::vector<uint64_t> c = {4};
  const SortedRun runs[] = {
      {a.data(), a.size()}, {b.data(), b.size()}, {c.data(), c.size()}};
  std::vector<uint64_t> out(6, 42);
  MultiwayMerge(std::span<const SortedRun>(runs, 3), out.data());
  EXPECT_EQ(out, (std::vector<uint64_t>{1, 2, 3, 4, 5, UINT64_MAX}));
}

TEST(MultiwayMerge, ZeroAndMaxInEveryRun) {
  Rng rng(9);
  std::vector<std::vector<uint64_t>> storage(9);
  std::vector<SortedRun> runs;
  std::vector<uint64_t> expected;
  for (std::size_t r = 0; r < storage.size(); ++r) {
    storage[r] = {0, UINT64_MAX, UINT64_MAX};
    for (int i = 0; i < 50; ++i) storage[r].push_back(rng.Next());
    std::sort(storage[r].begin(), storage[r].end());
    expected.insert(expected.end(), storage[r].begin(), storage[r].end());
    runs.push_back(SortedRun{storage[r].data(), storage[r].size()});
  }
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> out(expected.size());
  MultiwayMerge(runs, out.data());
  EXPECT_EQ(out, expected);
}

// Runs of very different lengths (some empty, some far longer than a
// FIFO) at the fan-ins MWAY sees, including one past a power of two.
class MultiwayMergeUnevenTest : public ::testing::TestWithParam<int> {};

TEST_P(MultiwayMergeUnevenTest, UnevenAndEmptyRunsAgainstStdSort) {
  const int k = GetParam();
  Rng rng(700 + k);
  std::vector<std::vector<uint64_t>> storage(k);
  std::vector<SortedRun> runs;
  std::vector<uint64_t> expected;
  for (int r = 0; r < k; ++r) {
    const uint64_t pick = rng.NextBelow(8);
    const std::size_t size = pick == 0   ? 0
                             : pick == 1 ? 1 + rng.NextBelow(7)
                             : pick == 2 ? 3000 + rng.NextBelow(3000)
                                         : rng.NextBelow(600);
    storage[r] = RandomPacked(size, 900 + r, /*full_range=*/r % 2 == 0);
    std::sort(storage[r].begin(), storage[r].end());
    expected.insert(expected.end(), storage[r].begin(), storage[r].end());
    runs.push_back(SortedRun{storage[r].data(), storage[r].size()});
  }
  std::sort(expected.begin(), expected.end());
  std::vector<uint64_t> out(expected.size());
  MultiwayMerge(runs, out.data());
  EXPECT_EQ(out, expected);
}

INSTANTIATE_TEST_SUITE_P(Ks, MultiwayMergeUnevenTest,
                         ::testing::Values(3, 17, 77, 128, 129));

// MWAY's entry point: runs back to back in signed order, FIFOs from a
// caller's workspace. FIFOs as short as one word force a refill at every
// step, and the words include INT64_MIN / INT64_MAX (the biased forms of
// packed 0 and ~0).
TEST(MultiwayMergeSigned, BackToBackRunsWithShortFifos) {
  Rng rng(12);
  for (const std::size_t run_size : {1, 5, 64, 1000}) {
    for (const std::size_t num_runs : {1, 2, 3, 7, 33}) {
      for (const std::size_t fifo_words : {1, 7, 8, 64, 4096}) {
        const std::size_t n = run_size * num_runs - (run_size > 1 ? 1 : 0);
        std::vector<int64_t> data(n);
        for (auto& v : data) {
          v = static_cast<int64_t>(rng.NextBelow(200)) - 100;
        }
        if (n > 2) data[0] = INT64_MAX, data[n - 1] = INT64_MIN;
        for (std::size_t begin = 0; begin < n; begin += run_size) {
          std::sort(data.begin() + begin,
                    data.begin() + std::min(n, begin + run_size));
        }
        std::vector<int64_t> expected = data;
        std::sort(expected.begin(), expected.end());
        const std::size_t runs = (n + run_size - 1) / run_size;
        std::vector<uint64_t> workspace(
            MergeWorkspaceWords(runs, fifo_words));
        std::vector<int64_t> out(n);
        MultiwayMergeSigned(data.data(), n, run_size, out.data(), workspace,
                            fifo_words);
        ASSERT_EQ(out, expected) << "run_size=" << run_size
                                 << " runs=" << runs
                                 << " fifo=" << fifo_words;
      }
    }
  }
}

TEST(MergeFifoWords, FifosFitTheCacheWithinTheirBounds) {
  for (const std::size_t num_runs : {2, 3, 16, 77, 306, 5000}) {
    for (const uint64_t cache_bytes :
         {uint64_t{256} << 10, uint64_t{2} << 20, uint64_t{75} << 20}) {
      const std::size_t run_size = std::size_t{1} << 15;
      const std::size_t words =
          MergeFifoWords(num_runs, run_size, cache_bytes);
      EXPECT_EQ(words & (words - 1), 0u) << "a power of two";
      EXPECT_GE(words, kMinFifoWords);
      EXPECT_LE(words, run_size / 2);
      if (words > kMinFifoWords && num_runs > 2) {
        EXPECT_LE((num_runs - 2) * words * sizeof(uint64_t), cache_bytes);
      }
      // MWAY's workspace is the partition's own memory: a tree over K
      // runs must need less than K - 1 runs hold.
      if (num_runs > 2) {
        EXPECT_LT(MergeWorkspaceWords(num_runs, words),
                  (num_runs - 1) * run_size);
      }
    }
  }
}

TEST(SortNetwork16, SortsAllPermutationStressCases) {
  Rng rng(77);
  for (int trial = 0; trial < 2000; ++trial) {
    int64_t data[16];
    for (auto& v : data) v = static_cast<int64_t>(rng.Next());
    int64_t expected[16];
    std::copy(data, data + 16, expected);
    std::sort(expected, expected + 16);
    SortNetwork16Signed(data);
    ASSERT_TRUE(std::equal(data, data + 16, expected)) << "trial " << trial;
  }
}

TEST(SortNetwork16, HandlesDuplicatesAndExtremes) {
  int64_t data[16] = {0, 0, -1, -1, INT64_MAX, INT64_MIN, 5, 5,
                      5, 0, INT64_MAX, INT64_MIN, 1, -1, 0, 5};
  int64_t expected[16];
  std::copy(data, data + 16, expected);
  std::sort(expected, expected + 16);
  SortNetwork16Signed(data);
  EXPECT_TRUE(std::equal(data, data + 16, expected));
}

TEST(SortNetwork16, AllZeroOneMasks) {
  // Exhaustive 0/1 inputs: a comparator network sorts all inputs iff it
  // sorts all 2^16 zero-one sequences (the 0-1 principle).
  for (uint32_t mask = 0; mask < (1u << 16); ++mask) {
    int64_t data[16];
    int ones = 0;
    for (int i = 0; i < 16; ++i) {
      data[i] = (mask >> i) & 1;
      ones += static_cast<int>(data[i]);
    }
    SortNetwork16Signed(data);
    for (int i = 0; i < 16; ++i) {
      ASSERT_EQ(data[i], i >= 16 - ones ? 1 : 0) << "mask=" << mask;
    }
  }
}

TEST(Simd, KernelAvailabilityMatchesBuild) {
#if defined(__AVX2__)
  EXPECT_TRUE(HasSimdMerge());
#else
  EXPECT_FALSE(HasSimdMerge());
#endif
}

}  // namespace
}  // namespace mmjoin::sort
