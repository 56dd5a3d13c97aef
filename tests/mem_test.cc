// Unit tests for the mem module: aligned allocation, page policies, the
// retained-mapping list, non-temporal stores.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "mem/aligned_alloc.h"
#include "mem/nt_store.h"
#include "util/failpoint.h"
#include "util/macros.h"
#include "util/rng.h"
#include "util/types.h"

#if defined(MMJOIN_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace mmjoin::mem {
namespace {

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
  constexpr std::size_t kMiB = 1 << 20;
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

// A retained mapping goes only to a request with the same page policy, even
// when the mapping lengths match: `huge` bytes under kHuge and
// `huge` + 2 MiB - 4 KB under kSmall map the same length, and kHuge and
// kDefault share theirs. Each case uses its own odd size, so no mapping left
// by another case or test can serve the request.
TEST(RetainedMappings, PagePoliciesAreNeverMixed) {
  const auto huge = [](std::size_t k) {
    return kHugePageSize + k * kSmallPageSize + 8;
  };
  const auto small = [&](std::size_t k) {
    return huge(k) + kHugePageSize - kSmallPageSize;
  };
  struct Case {
    PagePolicy freed;
    std::size_t freed_bytes;
    PagePolicy requested;
    std::size_t requested_bytes;
  };
  const Case cases[] = {
      {PagePolicy::kHuge, huge(11), PagePolicy::kSmall, small(11)},
      {PagePolicy::kSmall, small(12), PagePolicy::kHuge, huge(12)},
      {PagePolicy::kHuge, huge(13), PagePolicy::kDefault, huge(13)},
      {PagePolicy::kDefault, huge(14), PagePolicy::kHuge, huge(14)},
  };
  for (const Case& c : cases) {
    void* freed = TryAllocateAligned(c.freed_bytes, 64, c.freed).value();
    FreeAligned(freed, c.freed_bytes);
    const AllocStats before = GetAllocStats();
    void* got =
        TryAllocateAligned(c.requested_bytes, 64, c.requested).value();
    const AllocStats after = GetAllocStats();
    // No pointer comparison: the miss may evict the freed mapping, and the
    // fresh mmap can land at the same address.
    EXPECT_EQ(after.reused_mappings, before.reused_mappings);
    EXPECT_EQ(after.mmap_allocations, before.mmap_allocations + 1);
    FreeAligned(got, c.requested_bytes);
  }
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
