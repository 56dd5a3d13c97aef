#include "mem/aligned_alloc.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "util/bits.h"
#include "util/failpoint.h"
#include "util/log.h"
#include "util/macros.h"
#include "util/mutex.h"

#if defined(MMJOIN_ASAN)
#include <sanitizer/asan_interface.h>
#endif

namespace mmjoin::mem {
namespace {

// Allocations at or above this size go through mmap so we can madvise page
// policy; smaller ones use the C library.
constexpr std::size_t kMmapThreshold = 1 << 20;

struct MmapTag {
  // We over-allocate by one small page to stash this header, so Free can
  // reconstruct the mapping and retain it for reuse.
  void* base;
  std::size_t length;
  std::size_t pages;  // RoundUp(bytes, 4 KB): the prefaulted part
  PagePolicy policy;
  std::size_t align;
  void* user;
  bool huge_fallback;  // a kHuge mapping whose MADV_HUGEPAGE was refused
};

// A retained mapping is poisoned under ASan, so a dangling pointer into a
// freed buffer still reports use-after-free instead of reading stale data.
void PoisonMapping(const MmapTag& tag) {
#if defined(MMJOIN_ASAN)
  ASAN_POISON_MEMORY_REGION(tag.base, tag.length);
#else
  (void)tag;
#endif
}

void UnpoisonMapping(const MmapTag& tag) {
#if defined(MMJOIN_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(tag.base, tag.length);
#else
  (void)tag;
#endif
}

// Hands a reused mapping to a caller of `bytes`: only the header and
// [user, user + bytes) become addressable. A mapping larger than the request
// keeps its tail poisoned, so an overrun past `bytes` still reports.
void UnpoisonForCaller(const MmapTag& tag, std::size_t bytes) {
#if defined(MMJOIN_ASAN)
  ASAN_UNPOISON_MEMORY_REGION(static_cast<char*>(tag.user) - sizeof(MmapTag),
                              sizeof(MmapTag) + bytes);
#else
  (void)tag;
  (void)bytes;
#endif
}

// Freed mappings kept for reuse, and the bytes the bound is taken over.
// Each mapping counts its prefaulted pages (not its unfaulted alignment
// slack), so the counts track what is resident. `mapped_bytes` covers the
// mappings callers hold; its high-water mark is what the process reached
// without reuse. The pool keeps mapped_bytes + retained_bytes <= high_water
// at all times, so retention never raises the footprint above that mark.
struct MappingPool {
  Mutex mutex;
  std::vector<MmapTag> retained MMJOIN_GUARDED_BY(mutex);  // oldest first
  uint64_t retained_bytes MMJOIN_GUARDED_BY(mutex) = 0;
  uint64_t mapped_bytes MMJOIN_GUARDED_BY(mutex) = 0;
  uint64_t high_water MMJOIN_GUARDED_BY(mutex) = 0;
};

// Leaked on purpose: frees may run during static destruction.
MappingPool& Pool() {
  static MappingPool* pool = new MappingPool();
  return *pool;
}

struct AtomicAllocStats {
  std::atomic<uint64_t> total_allocations{0};
  std::atomic<uint64_t> mmap_allocations{0};
  std::atomic<uint64_t> reused_mappings{0};
  std::atomic<uint64_t> reused_larger{0};
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

// Touches every page of [ptr, ptr+bytes) so that physical pages are mapped
// before timed runs begin -- the paper's "memory allocation locality"
// assumption (Section 5.1): a DBMS buffer manager would have faulted the
// pages in already. Only fresh mappings need it; a reused one is resident.
void PrefaultPages(void* ptr, std::size_t bytes) {
  auto* bytes_ptr = static_cast<volatile char*>(ptr);
  for (std::size_t off = 0; off < bytes; off += kSmallPageSize) {
    bytes_ptr[off] = bytes_ptr[off];
  }
  if (bytes > 0) bytes_ptr[bytes - 1] = bytes_ptr[bytes - 1];
}

#if defined(__linux__)
void Unmap(const MmapTag& tag) {
  UnpoisonMapping(tag);
  ::munmap(tag.base, tag.length);
}

// Takes the best fit off the retained list: the smallest mapping with the
// same page policy and alignment whose prefaulted `pages` hold the request,
// the newest among equals. An exact fit is the smallest there can be. A hit
// is charged at its own `pages`. On a miss, evicts the oldest mappings
// until a new mapping of `pages` fits under the bound, and charges it; the
// caller unmaps `evicted` and maps. The charge is taken before mmap so
// concurrent misses cannot overshoot the bound together.
bool TakeRetained(std::size_t pages, PagePolicy policy, std::size_t align,
                  MmapTag* hit, std::vector<MmapTag>* evicted) {
  MappingPool& pool = Pool();
  MutexLock lock(pool.mutex);
  auto best = pool.retained.end();
  for (auto it = pool.retained.begin(); it != pool.retained.end(); ++it) {
    if (it->policy == policy && it->align == align && it->pages >= pages &&
        (best == pool.retained.end() || it->pages <= best->pages)) {
      best = it;
    }
  }
  if (best != pool.retained.end()) {
    *hit = *best;
    pool.retained.erase(best);
    pool.retained_bytes -= hit->pages;
    pool.mapped_bytes += hit->pages;
    return true;
  }
  const uint64_t limit =
      std::max<uint64_t>(pool.high_water, pool.mapped_bytes + pages);
  std::size_t drop = 0;
  while (drop < pool.retained.size() &&
         pool.mapped_bytes + pages + pool.retained_bytes > limit) {
    pool.retained_bytes -= pool.retained[drop].pages;
    evicted->push_back(pool.retained[drop++]);
  }
  pool.retained.erase(pool.retained.begin(), pool.retained.begin() + drop);
  pool.mapped_bytes += pages;
  pool.high_water = std::max(pool.high_water, pool.mapped_bytes);
  return false;
}

void UnchargeMapping(std::size_t pages) {
  MappingPool& pool = Pool();
  MutexLock lock(pool.mutex);
  pool.mapped_bytes -= pages;
}

StatusOr<void*> AllocateMapping(std::size_t bytes, std::size_t alignment,
                                PagePolicy policy) {
  const std::size_t align = policy == PagePolicy::kSmall
                                ? std::max(alignment, kSmallPageSize)
                                : std::max(alignment, kHugePageSize);
  // Reserve enough to carve out an aligned region plus a header page.
  const std::size_t pages = RoundUp(bytes, kSmallPageSize);
  const std::size_t length = pages + align + kSmallPageSize;

  MmapTag reused{};
  std::vector<MmapTag> evicted;
  if (TakeRetained(pages, policy, align, &reused, &evicted)) {
    UnpoisonForCaller(reused, bytes);
    Bump(g_alloc_stats.reused_mappings);
    if (reused.pages > pages) Bump(g_alloc_stats.reused_larger);
    if (reused.huge_fallback) Bump(g_alloc_stats.huge_page_fallbacks);
    AddResident(bytes);
    return reused.user;
  }
  for (const MmapTag& tag : evicted) Unmap(tag);

  void* raw = ::mmap(nullptr, length, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    UnchargeMapping(pages);
    Bump(g_alloc_stats.mmap_failures);
    return ResourceExhaustedError("mmap of " + std::to_string(length) +
                                  " bytes failed");
  }
  Bump(g_alloc_stats.mmap_allocations);

  const auto raw_addr = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t user_addr = RoundUp(raw_addr + kSmallPageSize, align);
  void* user = reinterpret_cast<void*>(user_addr);

  bool huge_fallback = false;
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
      huge_fallback = true;
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
  *tag = MmapTag{raw, length, pages, policy, align, user, huge_fallback};
  PrefaultPages(user, bytes);
  AddResident(bytes);
  return user;
}

// Puts a freed mapping on the retained list. Moving its pages from mapped
// to retained leaves their sum, and so the bound, unchanged.
void RetainMapping(void* user) {
  const MmapTag tag = *reinterpret_cast<const MmapTag*>(
      reinterpret_cast<std::uintptr_t>(user) - sizeof(MmapTag));
  PoisonMapping(tag);
  MappingPool& pool = Pool();
  MutexLock lock(pool.mutex);
  pool.mapped_bytes -= tag.pages;
  pool.retained_bytes += tag.pages;
  pool.retained.push_back(tag);
}
#endif  // __linux__

const obs::MetricsProviderRegistration kAllocProvider(
    "alloc", [](std::vector<obs::Metric>* metrics) {
      const AllocStats stats = GetAllocStats();
      metrics->push_back(
          obs::Metric{"alloc.total_allocations", stats.total_allocations});
      metrics->push_back(
          obs::Metric{"alloc.mmap_allocations", stats.mmap_allocations});
      metrics->push_back(
          obs::Metric{"alloc.reused_mappings", stats.reused_mappings});
      metrics->push_back(
          obs::Metric{"alloc.reused_larger_mappings", stats.reused_larger});
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
      metrics->push_back(
          obs::Metric{"mem.retained_bytes", stats.retained_bytes});
    });

}  // namespace

AllocStats GetAllocStats() {
  AllocStats out;
  out.total_allocations =
      g_alloc_stats.total_allocations.load(std::memory_order_relaxed);
  out.mmap_allocations =
      g_alloc_stats.mmap_allocations.load(std::memory_order_relaxed);
  out.reused_mappings =
      g_alloc_stats.reused_mappings.load(std::memory_order_relaxed);
  out.reused_larger =
      g_alloc_stats.reused_larger.load(std::memory_order_relaxed);
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
  MappingPool& pool = Pool();
  MutexLock lock(pool.mutex);
  out.mapped_bytes = pool.mapped_bytes;
  out.retained_bytes = pool.retained_bytes;
  out.mapped_high_water = pool.high_water;
  return out;
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

  // Checked before the retained list, so an injected failure fires on a
  // request a retained mapping would have served too.
  if (MMJOIN_FAILPOINT("alloc.mmap")) {
    Bump(g_alloc_stats.injected_failures);
    return ResourceExhaustedError(
        "injected allocation failure (failpoint alloc.mmap, " +
        std::to_string(bytes) + " bytes)");
  }

#if defined(__linux__)
  if (bytes >= kMmapThreshold) return AllocateMapping(bytes, alignment, policy);
#endif

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
    RetainMapping(ptr);
    return;
  }
#endif
  (void)bytes;
  std::free(ptr);
}

}  // namespace mmjoin::mem
