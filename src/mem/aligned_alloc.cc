#include "mem/aligned_alloc.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "util/bits.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/macros.h"

namespace mmjoin::mem {
namespace {

// Allocations at or above this size go through mmap so we can madvise page
// policy; smaller ones use the C library.
constexpr std::size_t kMmapThreshold = 1 << 20;

struct MmapTag {
  // We over-allocate by one small page to stash this header, so Free can
  // reconstruct the mapping base and length.
  void* base;
  std::size_t length;
};

struct AtomicAllocStats {
  std::atomic<uint64_t> total_allocations{0};
  std::atomic<uint64_t> mmap_allocations{0};
  std::atomic<uint64_t> huge_page_requests{0};
  std::atomic<uint64_t> huge_page_fallbacks{0};
  std::atomic<uint64_t> mmap_failures{0};
  std::atomic<uint64_t> injected_failures{0};
  std::atomic<uint64_t> numa_degradations{0};
  std::atomic<uint64_t> current_bytes{0};
  std::atomic<uint64_t> peak_bytes{0};
};

AtomicAllocStats g_alloc_stats;

void Bump(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

// Resident-byte accounting: fetch_add then CAS-raise the high-water mark.
// Relaxed orders -- these are statistics, not synchronization.
void AddResident(std::size_t bytes) {
  const uint64_t now =
      g_alloc_stats.current_bytes.fetch_add(bytes, std::memory_order_relaxed) +
      bytes;
  uint64_t peak = g_alloc_stats.peak_bytes.load(std::memory_order_relaxed);
  while (now > peak && !g_alloc_stats.peak_bytes.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
}

void SubResident(std::size_t bytes) {
  g_alloc_stats.current_bytes.fetch_sub(bytes, std::memory_order_relaxed);
}

const obs::MetricsProviderRegistration kAllocProvider(
    "alloc", [](std::vector<obs::Metric>* metrics) {
      const AllocStats stats = GetAllocStats();
      metrics->push_back(
          obs::Metric{"alloc.total_allocations", stats.total_allocations});
      metrics->push_back(
          obs::Metric{"alloc.mmap_allocations", stats.mmap_allocations});
      metrics->push_back(
          obs::Metric{"alloc.huge_page_requests", stats.huge_page_requests});
      metrics->push_back(
          obs::Metric{"alloc.huge_page_fallbacks", stats.huge_page_fallbacks});
      metrics->push_back(
          obs::Metric{"alloc.mmap_failures", stats.mmap_failures});
      metrics->push_back(
          obs::Metric{"alloc.injected_failures", stats.injected_failures});
      metrics->push_back(
          obs::Metric{"alloc.numa_degradations", stats.numa_degradations});
      metrics->push_back(obs::Metric{"mem.current_bytes", stats.current_bytes});
      metrics->push_back(obs::Metric{"mem.peak_bytes", stats.peak_bytes});
    });

}  // namespace

AllocStats GetAllocStats() {
  AllocStats out;
  out.total_allocations =
      g_alloc_stats.total_allocations.load(std::memory_order_relaxed);
  out.mmap_allocations =
      g_alloc_stats.mmap_allocations.load(std::memory_order_relaxed);
  out.huge_page_requests =
      g_alloc_stats.huge_page_requests.load(std::memory_order_relaxed);
  out.huge_page_fallbacks =
      g_alloc_stats.huge_page_fallbacks.load(std::memory_order_relaxed);
  out.mmap_failures =
      g_alloc_stats.mmap_failures.load(std::memory_order_relaxed);
  out.injected_failures =
      g_alloc_stats.injected_failures.load(std::memory_order_relaxed);
  out.numa_degradations =
      g_alloc_stats.numa_degradations.load(std::memory_order_relaxed);
  out.current_bytes =
      g_alloc_stats.current_bytes.load(std::memory_order_relaxed);
  out.peak_bytes = g_alloc_stats.peak_bytes.load(std::memory_order_relaxed);
  return out;
}

void ResetAllocStats() {
  g_alloc_stats.total_allocations.store(0, std::memory_order_relaxed);
  g_alloc_stats.mmap_allocations.store(0, std::memory_order_relaxed);
  g_alloc_stats.huge_page_requests.store(0, std::memory_order_relaxed);
  g_alloc_stats.huge_page_fallbacks.store(0, std::memory_order_relaxed);
  g_alloc_stats.mmap_failures.store(0, std::memory_order_relaxed);
  g_alloc_stats.injected_failures.store(0, std::memory_order_relaxed);
  g_alloc_stats.numa_degradations.store(0, std::memory_order_relaxed);
  g_alloc_stats.current_bytes.store(0, std::memory_order_relaxed);
  g_alloc_stats.peak_bytes.store(0, std::memory_order_relaxed);
}

void ResetPeakResident() {
  g_alloc_stats.peak_bytes.store(
      g_alloc_stats.current_bytes.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

void CountNumaDegradation() { Bump(g_alloc_stats.numa_degradations); }

StatusOr<void*> TryAllocateAligned(std::size_t bytes, std::size_t alignment,
                                   PagePolicy policy) {
  MMJOIN_CHECK(IsPowerOfTwo(alignment) && alignment >= 64);
  if (bytes == 0) bytes = alignment;

  Bump(g_alloc_stats.total_allocations);
  if (policy == PagePolicy::kHuge) Bump(g_alloc_stats.huge_page_requests);

  if (MMJOIN_FAILPOINT("alloc.mmap")) {
    Bump(g_alloc_stats.injected_failures);
    return ResourceExhaustedError(
        "injected allocation failure (failpoint alloc.mmap, " +
        std::to_string(bytes) + " bytes)");
  }

#if defined(__linux__)
  if (bytes >= kMmapThreshold) {
    Bump(g_alloc_stats.mmap_allocations);
    const std::size_t align = policy == PagePolicy::kSmall
                                  ? std::max(alignment, kSmallPageSize)
                                  : std::max(alignment, kHugePageSize);
    // Reserve enough to carve out an aligned region plus a header page.
    const std::size_t length =
        RoundUp(bytes, kSmallPageSize) + align + kSmallPageSize;
    void* raw = ::mmap(nullptr, length, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) {
      Bump(g_alloc_stats.mmap_failures);
      return ResourceExhaustedError("mmap of " + std::to_string(length) +
                                    " bytes failed");
    }

    const auto raw_addr = reinterpret_cast<std::uintptr_t>(raw);
    std::uintptr_t user_addr =
        RoundUp(raw_addr + kSmallPageSize, align);
    void* user = reinterpret_cast<void*>(user_addr);

    if (policy == PagePolicy::kHuge) {
      bool advised = false;
#if defined(MADV_HUGEPAGE)
      if (!MMJOIN_FAILPOINT("alloc.madvise_huge")) {
        advised =
            ::madvise(user, RoundUp(bytes, kHugePageSize), MADV_HUGEPAGE) == 0;
      }
#endif
      // Degrade gracefully: the mapping stays valid on default pages. A
      // host without THP degrades every large allocation, so only the
      // first fallback warns; the rest log at debug (all are counted).
      if (!advised) {
        Bump(g_alloc_stats.huge_page_fallbacks);
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true, std::memory_order_relaxed)) {
          MMJOIN_LOG(kWarn, "mem.huge_fallback")
              .Field("bytes", static_cast<uint64_t>(bytes))
              .Field("note", "madvise(MADV_HUGEPAGE) failed; "
                             "further fallbacks log at debug");
        } else {
          MMJOIN_LOG(kDebug, "mem.huge_fallback")
              .Field("bytes", static_cast<uint64_t>(bytes));
        }
      }
    } else if (policy == PagePolicy::kSmall) {
#if defined(MADV_NOHUGEPAGE)
      // Best effort: failure just means the system default page policy.
      (void)::madvise(raw, length, MADV_NOHUGEPAGE);
#endif
    }

    auto* tag = reinterpret_cast<MmapTag*>(user_addr - sizeof(MmapTag));
    tag->base = raw;
    tag->length = length;
    AddResident(bytes);
    return user;
  }
#endif  // __linux__

  // No madvise control below the mmap threshold: a huge-page request
  // degrades to whatever the C library hands back.
  if (policy == PagePolicy::kHuge) Bump(g_alloc_stats.huge_page_fallbacks);
  void* ptr = nullptr;
  if (::posix_memalign(&ptr, alignment, RoundUp(bytes, alignment)) != 0) {
    Bump(g_alloc_stats.mmap_failures);
    return ResourceExhaustedError("posix_memalign of " +
                                  std::to_string(bytes) + " bytes failed");
  }
  std::memset(ptr, 0, bytes);
  AddResident(bytes);
  return ptr;
}

void FreeAligned(void* ptr, std::size_t bytes) {
  if (ptr == nullptr) return;
  SubResident(bytes);
#if defined(__linux__)
  if (bytes >= kMmapThreshold) {
    auto* tag = reinterpret_cast<MmapTag*>(
        reinterpret_cast<std::uintptr_t>(ptr) - sizeof(MmapTag));
    ::munmap(tag->base, tag->length);
    return;
  }
#endif
  (void)bytes;
  std::free(ptr);
}

void PrefaultPages(void* ptr, std::size_t bytes) {
  auto* bytes_ptr = static_cast<volatile char*>(ptr);
  for (std::size_t off = 0; off < bytes; off += kSmallPageSize) {
    bytes_ptr[off] = bytes_ptr[off];
  }
  if (bytes > 0) bytes_ptr[bytes - 1] = bytes_ptr[bytes - 1];
}

}  // namespace mmjoin::mem
