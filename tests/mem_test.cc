// Unit tests for the mem module: aligned allocation, page policies,
// non-temporal stores.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "mem/aligned_alloc.h"
#include "mem/nt_store.h"
#include "util/types.h"

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
  PrefaultPages(p, bytes);
  FreeAligned(p, bytes);
}

TEST(AlignedAlloc, SmallPagePolicyAllocates) {
  const std::size_t bytes = 4 << 20;
  const StatusOr<void*> allocated =
      TryAllocateAligned(bytes, 64, PagePolicy::kSmall);
  ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
  void* p = *allocated;
  PrefaultPages(p, bytes);
  FreeAligned(p, bytes);
}

TEST(AlignedAlloc, ZeroBytesYieldsUsablePointer) {
  const StatusOr<void*> allocated =
      TryAllocateAligned(0, 64, PagePolicy::kDefault);
  ASSERT_TRUE(allocated.ok()) << allocated.status().ToString();
  void* p = *allocated;
  FreeAligned(p, 0);
}

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
