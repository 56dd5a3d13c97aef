// Unit tests for the mem module: aligned allocation, page policies, the
// retained-mapping list, non-temporal stores.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "mem/aligned_alloc.h"
#include "mem/nt_store.h"
#include "thread/executor.h"
#include "util/failpoint.h"
#include "util/macros.h"
#include "util/mutex.h"
#include "util/rng.h"
#include "util/types.h"

#if defined(MMJOIN_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace mmjoin::mem {
namespace {

constexpr std::size_t kMiB = 1 << 20;

TEST(AlignedAlloc, SmallAllocationAligned) {
  const StatusOr<void*> allocated =
      TryAllocateAligned(100, 64, PagePolicy::kDefault);
  ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
  void* p = *allocated;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  std::memset(p, 0xAB, 100);
  FreeAligned(p, 100);
}

TEST(AlignedAlloc, LargeAllocationAlignedAndWritable) {
  const std::size_t bytes = 8 << 20;  // mmap path
  const StatusOr<void*> allocated =
      TryAllocateAligned(bytes, 64, PagePolicy::kDefault);
  ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
  void* p = *allocated;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
  auto* c = static_cast<char*>(p);
  c[0] = 1;
  c[bytes - 1] = 2;
  EXPECT_EQ(c[0], 1);
  EXPECT_EQ(c[bytes - 1], 2);
  FreeAligned(p, bytes);
}

TEST(AlignedAlloc, HugePagePolicyAllocates) {
  const std::size_t bytes = 4 << 20;
  const StatusOr<void*> allocated =
      TryAllocateAligned(bytes, 64, PagePolicy::kHuge);
  ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
  void* p = *allocated;
  // Huge-page requests are aligned to the huge page size.
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugePageSize, 0u);
  std::memset(p, 0x5A, bytes);
  FreeAligned(p, bytes);
}

TEST(AlignedAlloc, SmallPagePolicyAllocates) {
  const std::size_t bytes = 4 << 20;
  const StatusOr<void*> allocated =
      TryAllocateAligned(bytes, 64, PagePolicy::kSmall);
  ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
  void* p = *allocated;
  std::memset(p, 0x5A, bytes);
  FreeAligned(p, bytes);
}

TEST(AlignedAlloc, ZeroBytesYieldsUsablePointer) {
  const StatusOr<void*> allocated =
      TryAllocateAligned(0, 64, PagePolicy::kDefault);
  ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
  void* p = *allocated;
  FreeAligned(p, 0);
}

TEST(RetainedMappings, SameSizeReallocationReusesTheMapping) {
  const std::size_t bytes = (3 << 20) + 100;
  void* first = TryAllocateAligned(bytes, 64, PagePolicy::kDefault).value();
  std::memset(first, 0x11, bytes);
  FreeAligned(first, bytes);

  const AllocStats before = GetAllocStats();
  void* second = TryAllocateAligned(bytes, 64, PagePolicy::kDefault).value();
  const AllocStats after = GetAllocStats();
  EXPECT_EQ(second, first);
  EXPECT_EQ(after.mmap_allocations, before.mmap_allocations);
  EXPECT_EQ(after.reused_mappings, before.reused_mappings + 1);
  EXPECT_LT(after.retained_bytes, before.retained_bytes);
  // Still caller-held bytes only: the reuse charges `bytes` again.
  EXPECT_EQ(after.current_bytes, before.current_bytes + bytes);
  FreeAligned(second, bytes);
}

TEST(RetainedMappings, MappedPlusRetainedNeverExceedsTheHighWaterMark) {
  const std::size_t sizes[] = {kMiB, 2 * kMiB, 3 * kMiB + 4096, 5 * kMiB,
                               8 * kMiB};
  const PagePolicy policies[] = {PagePolicy::kDefault, PagePolicy::kSmall,
                                 PagePolicy::kHuge};
  struct Live {
    void* ptr;
    std::size_t bytes;
  };
  std::vector<Live> live;
  Rng rng(0xA110Cu);
  const uint64_t reused_before = GetAllocStats().reused_mappings;
  for (int step = 0; step < 400; ++step) {
    if (live.size() < 6 && (live.empty() || rng.NextBelow(2) == 0)) {
      const std::size_t bytes = sizes[rng.NextBelow(std::size(sizes))];
      const PagePolicy policy = policies[rng.NextBelow(std::size(policies))];
      void* ptr = TryAllocateAligned(bytes, 64, policy).value();
      static_cast<char*>(ptr)[bytes - 1] = 1;
      live.push_back(Live{ptr, bytes});
    } else {
      const std::size_t victim = rng.NextBelow(live.size());
      FreeAligned(live[victim].ptr, live[victim].bytes);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
    }
    const AllocStats stats = GetAllocStats();
    ASSERT_LE(stats.mapped_bytes + stats.retained_bytes,
              stats.mapped_high_water)
        << "step " << step;
  }
  for (const Live& l : live) FreeAligned(l.ptr, l.bytes);
  const AllocStats stats = GetAllocStats();
  EXPECT_LE(stats.mapped_bytes + stats.retained_bytes,
            stats.mapped_high_water);
  EXPECT_GT(stats.reused_mappings, reused_before);
}

TEST(RetainedMappings, InjectedFailureFiresBeforeReuse) {
  const std::size_t bytes = (6 << 20) + 64;
  void* first = TryAllocateAligned(bytes, 64, PagePolicy::kSmall).value();
  FreeAligned(first, bytes);

  ASSERT_TRUE(failpoint::Configure("alloc.mmap=once").ok());
  const StatusOr<void*> failed =
      TryAllocateAligned(bytes, 64, PagePolicy::kSmall);
  failpoint::DeactivateAll();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(failed.status().message().find("alloc.mmap"), std::string::npos);

  const AllocStats before = GetAllocStats();
  void* again = TryAllocateAligned(bytes, 64, PagePolicy::kSmall).value();
  EXPECT_EQ(again, first);
  EXPECT_EQ(GetAllocStats().mmap_allocations, before.mmap_allocations);
  FreeAligned(again, bytes);
}

// A retained mapping goes only to a request with the same page policy. With
// a 2 MiB alignment every policy maps at the same alignment, so only the
// policy tells the freed mapping and the request apart; the request is 8
// bytes smaller than the freed mapping, so without the policy rule the freed
// mapping (the newest of its size) would be the best fit. Whatever other
// tests left on the list, a reuse must not hand back the freed mapping.
TEST(RetainedMappings, PagePoliciesAreNeverMixed) {
  const PagePolicy policies[] = {PagePolicy::kDefault, PagePolicy::kSmall,
                                 PagePolicy::kHuge};
  const std::size_t bytes = 3 * kHugePageSize + 5 * kSmallPageSize + 64;
  for (const PagePolicy freed_policy : policies) {
    for (const PagePolicy requested_policy : policies) {
      if (freed_policy == requested_policy) continue;
      void* freed =
          TryAllocateAligned(bytes, kHugePageSize, freed_policy).value();
      FreeAligned(freed, bytes);
      const AllocStats before = GetAllocStats();
      void* got =
          TryAllocateAligned(bytes - 8, kHugePageSize, requested_policy)
              .value();
      const AllocStats after = GetAllocStats();
      // A miss may evict the freed mapping, and the fresh mmap can land at
      // the same address; only a reuse must not be the freed mapping.
      if (after.reused_mappings > before.reused_mappings) {
        EXPECT_NE(got, freed);
      }
      FreeAligned(got, bytes - 8);
    }
  }
}

// The best-fit tests below allocate at an alignment no other test uses, so
// their mappings are the only candidates for their requests. Each allocates
// every mapping it frees first, which takes back what an earlier repeat of
// the test left on the list.
TEST(RetainedMappings, SmallerRequestGetsSmallestMappingThatHoldsIt) {
  constexpr std::size_t kAlign = 4 * kMiB;
  void* seven = TryAllocateAligned(7 * kMiB, kAlign, PagePolicy::kDefault)
                    .value();
  void* three = TryAllocateAligned(3 * kMiB, kAlign, PagePolicy::kDefault)
                    .value();
  void* five = TryAllocateAligned(5 * kMiB, kAlign, PagePolicy::kDefault)
                   .value();
  FreeAligned(three, 3 * kMiB);
  FreeAligned(seven, 7 * kMiB);
  FreeAligned(five, 5 * kMiB);

  const AllocStats before = GetAllocStats();
  void* got =
      TryAllocateAligned(2 * kMiB, kAlign, PagePolicy::kDefault).value();
  const AllocStats after = GetAllocStats();
  EXPECT_EQ(got, three);
  EXPECT_EQ(after.mmap_allocations, before.mmap_allocations);
  EXPECT_EQ(after.reused_mappings, before.reused_mappings + 1);
  EXPECT_EQ(after.reused_larger, before.reused_larger + 1);
  // The mapping is charged at its own size, not the request's.
  EXPECT_EQ(after.mapped_bytes, before.mapped_bytes + 3 * kMiB);
  EXPECT_EQ(after.retained_bytes + 3 * kMiB, before.retained_bytes);
  EXPECT_EQ(after.current_bytes, before.current_bytes + 2 * kMiB);
  std::memset(got, 0x3C, 2 * kMiB);
  FreeAligned(got, 2 * kMiB);
}

TEST(RetainedMappings, ExactFitBeatsALargerMapping) {
  constexpr std::size_t kAlign = 8 * kMiB;
  void* exact = TryAllocateAligned(3 * kMiB, kAlign, PagePolicy::kDefault)
                    .value();
  void* larger = TryAllocateAligned(6 * kMiB, kAlign, PagePolicy::kDefault)
                     .value();
  // The larger mapping is the newer one.
  FreeAligned(exact, 3 * kMiB);
  FreeAligned(larger, 6 * kMiB);

  const AllocStats before = GetAllocStats();
  void* got =
      TryAllocateAligned(3 * kMiB, kAlign, PagePolicy::kDefault).value();
  const AllocStats after = GetAllocStats();
  EXPECT_EQ(got, exact);
  EXPECT_EQ(after.reused_mappings, before.reused_mappings + 1);
  EXPECT_EQ(after.reused_larger, before.reused_larger);
  FreeAligned(got, 3 * kMiB);
}

TEST(RetainedMappings, TiesGoToTheNewestMapping) {
  constexpr std::size_t kAlign = 16 * kMiB;
  void* older = TryAllocateAligned(5 * kMiB, kAlign, PagePolicy::kDefault)
                    .value();
  void* newer = TryAllocateAligned(5 * kMiB, kAlign, PagePolicy::kDefault)
                    .value();
  FreeAligned(older, 5 * kMiB);
  FreeAligned(newer, 5 * kMiB);

  void* got =
      TryAllocateAligned(4 * kMiB, kAlign, PagePolicy::kDefault).value();
  EXPECT_EQ(got, newer);
  void* next =
      TryAllocateAligned(4 * kMiB, kAlign, PagePolicy::kDefault).value();
  EXPECT_EQ(next, older);
  FreeAligned(got, 4 * kMiB);
  FreeAligned(next, 4 * kMiB);
}

// Allocations and frees race over the executor's workers, mixing sizes and
// policies: at every step mapped plus retained bytes stay under the
// high-water mark, and no two live allocations overlap (a mapping handed
// out twice would). Run under TSan in CI.
TEST(RetainedMappings, ConcurrentAllocateAndFreeNeverShareAMapping) {
  const std::size_t sizes[] = {kMiB, 2 * kMiB + 4096, 3 * kMiB, 5 * kMiB};
  const PagePolicy policies[] = {PagePolicy::kDefault, PagePolicy::kSmall,
                                 PagePolicy::kHuge};
  constexpr int kThreads = 4;
  constexpr std::size_t kStepsPerThread = 150;
  thread::Executor executor(kThreads);
  Mutex mutex;
  std::map<std::uintptr_t, std::uintptr_t> live;  // begin -> end
  std::atomic<int> overlaps{0};
  std::atomic<int> bound_violations{0};
  ASSERT_TRUE(
      executor
          .ParallelFor(
              kThreads * kStepsPerThread,
              [&](std::size_t begin, std::size_t end,
                  const thread::WorkerContext&) {
                Rng rng(0xC0FFEEu + begin);
                for (std::size_t step = begin; step < end; ++step) {
                  const std::size_t bytes =
                      sizes[rng.NextBelow(std::size(sizes))];
                  const PagePolicy policy =
                      policies[rng.NextBelow(std::size(policies))];
                  char* p = static_cast<char*>(
                      TryAllocateAligned(bytes, 64, policy).value());
                  const auto lo = reinterpret_cast<std::uintptr_t>(p);
                  const auto hi = lo + bytes;
                  {
                    MutexLock lock(mutex);
                    auto next = live.lower_bound(lo);
                    const bool hits_next = next != live.end() &&
                                           next->first < hi;
                    const bool hits_prev = next != live.begin() &&
                                           std::prev(next)->second > lo;
                    if (hits_next || hits_prev) ++overlaps;
                    live.emplace(lo, hi);
                  }
                  p[0] = 1;
                  p[bytes - 1] = 1;
                  const AllocStats stats = GetAllocStats();
                  if (stats.mapped_bytes + stats.retained_bytes >
                      stats.mapped_high_water) {
                    ++bound_violations;
                  }
                  {
                    MutexLock lock(mutex);
                    live.erase(lo);
                  }
                  FreeAligned(p, bytes);
                }
              })
          .ok());
  EXPECT_EQ(overlaps.load(), 0);
  EXPECT_EQ(bound_violations.load(), 0);
  const AllocStats stats = GetAllocStats();
  EXPECT_LE(stats.mapped_bytes + stats.retained_bytes,
            stats.mapped_high_water);
}

// Under ASan a retained mapping stays poisoned until it is reused, so a
// dangling pointer into a freed buffer reports instead of reading stale data.
// Built only under ASan.
#if defined(MMJOIN_ASAN)
TEST(RetainedMappings, RetainedMappingIsPoisonedUnderAsan) {
  const std::size_t bytes = (7 << 20) + 192;
  char* p = static_cast<char*>(
      TryAllocateAligned(bytes, 64, PagePolicy::kDefault).value());
  FreeAligned(p, bytes);
  EXPECT_TRUE(__asan_address_is_poisoned(p));
  EXPECT_TRUE(__asan_address_is_poisoned(p + bytes - 1));
  EXPECT_DEATH(static_cast<volatile char*>(p)[4096] = 1, "use-after-poison");
  char* again = static_cast<char*>(
      TryAllocateAligned(bytes, 64, PagePolicy::kDefault).value());
  ASSERT_EQ(again, p);
  EXPECT_FALSE(__asan_address_is_poisoned(again));
  EXPECT_FALSE(__asan_address_is_poisoned(again + bytes - 1));
  FreeAligned(again, bytes);
}

// A best-fit reuse unpoisons only the caller's bytes: an overrun into the
// tail of a larger mapping still reports.
TEST(RetainedMappings, LargerReusedMappingKeepsItsTailPoisonedUnderAsan) {
  constexpr std::size_t kAlign = 32 * kMiB;  // no other test's mappings
  char* p = static_cast<char*>(
      TryAllocateAligned(7 * kMiB, kAlign, PagePolicy::kDefault).value());
  FreeAligned(p, 7 * kMiB);
  char* again = static_cast<char*>(
      TryAllocateAligned(3 * kMiB, kAlign, PagePolicy::kDefault).value());
  ASSERT_EQ(again, p);
  EXPECT_FALSE(__asan_address_is_poisoned(again));
  EXPECT_FALSE(__asan_address_is_poisoned(again + 3 * kMiB - 1));
  EXPECT_TRUE(__asan_address_is_poisoned(again + 3 * kMiB));
  EXPECT_TRUE(__asan_address_is_poisoned(again + 3 * kMiB + 4096));
  EXPECT_DEATH(static_cast<volatile char*>(again)[3 * kMiB + 4096] = 1,
               "use-after-poison");
  FreeAligned(again, 3 * kMiB);
}
#endif  // MMJOIN_ASAN

TEST(NtStore, AlignedCacheLineCopy) {
  alignas(64) Tuple src[8];
  alignas(64) Tuple dst[8];
  for (int i = 0; i < 8; ++i) {
    src[i] = Tuple{static_cast<uint32_t>(i), static_cast<uint32_t>(i * 10)};
  }
  StoreCacheLineNonTemporal(dst, src);
  StreamFence();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], src[i]);
}

TEST(NtStore, UnalignedDestinationFallback) {
  alignas(64) Tuple src[8];
  alignas(64) Tuple dst_storage[16] = {};
  for (int i = 0; i < 8; ++i) {
    src[i] = Tuple{static_cast<uint32_t>(i + 1), 0};
  }
  Tuple* dst = dst_storage + 1;  // 8-byte aligned, not 16-byte
  StoreCacheLineNonTemporal(dst, src);
  StreamFence();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(dst[i], src[i]);
}

TEST(NtStore, StoreTuplesPartial) {
  Tuple src[5] = {{1, 1}, {2, 2}, {3, 3}, {4, 4}, {5, 5}};
  Tuple dst[5] = {};
  StoreTuples(dst, src, 5);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(dst[i], src[i]);
}

TEST(NtStore, StreamingSupportedOnX86) {
#if defined(__SSE2__)
  EXPECT_TRUE(HasStreamingStores());
#else
  EXPECT_FALSE(HasStreamingStores());
#endif
}

}  // namespace
}  // namespace mmjoin::mem
