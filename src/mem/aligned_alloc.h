// Page-size-aware aligned memory allocation.
//
// The paper (Section 7.2) shows that virtual-memory page size (4 KB vs 2 MB
// transparent huge pages) changes the relative performance of every join.
// This allocator lets callers request a page-size policy per allocation:
// `kSmall` advises the kernel against huge pages, `kHuge` advises for them,
// `kDefault` leaves the system policy alone. On platforms without madvise the
// request degrades to plain aligned allocation.
//
// Large requests (>= 1 MiB) are mmap-backed, and freeing one does not unmap
// it: the mapping goes onto one process-wide retained list, and the next
// request with exactly the same mapping length, page policy and alignment
// gets it back without an mmap. A join that runs again on inputs of the same
// size therefore finds its partition buffers and tables already faulted in
// -- the paper's buffer-manager assumption (Section 5.1). The list is
// bounded without a knob: mapped plus retained bytes (each mapping counted
// by its prefaulted part, the request rounded up to 4 KB) never exceed the
// process's own high-water mark of mapped bytes, and a miss evicts the
// oldest retained mappings (munmap) until the new mapping fits under
// max(high-water mark, mapped + request). Only a fresh mapping is
// prefaulted (one touch per 4 KB page, in the allocating thread).

#ifndef MMJOIN_MEM_ALIGNED_ALLOC_H_
#define MMJOIN_MEM_ALIGNED_ALLOC_H_

#include <cstddef>
#include <cstdint>

#include "util/status.h"

namespace mmjoin::mem {

enum class PagePolicy {
  kDefault,  // whatever the OS does (usually transparent huge pages = madvise)
  kSmall,    // 4 KB pages (MADV_NOHUGEPAGE)
  kHuge,     // 2 MB pages requested (MADV_HUGEPAGE)
};

inline constexpr std::size_t kSmallPageSize = 4096;
inline constexpr std::size_t kHugePageSize = 2 * 1024 * 1024;

// Process-wide allocation counters. Degradations (huge-page request that
// fell back to default pages, clamped NUMA placement) are recoverable events
// the bench harness surfaces in its `[alloc]` summary line.
struct AllocStats {
  uint64_t total_allocations = 0;
  uint64_t mmap_allocations = 0;     // real mmap calls that succeeded
  uint64_t reused_mappings = 0;      // requests served by a retained mapping
  uint64_t huge_page_requests = 0;
  uint64_t huge_page_fallbacks = 0;  // MADV_HUGEPAGE refused/unavailable
  uint64_t mmap_failures = 0;        // real mmap/posix_memalign failures
  uint64_t injected_failures = 0;    // failpoint-triggered failures
  uint64_t numa_degradations = 0;    // NUMA placement unavailable -> local
  uint64_t current_bytes = 0;        // bytes allocated and not yet freed
  uint64_t peak_bytes = 0;           // high-water mark of current_bytes
  // Allocator state, not counters: the prefaulted bytes (request rounded
  // up to 4 KB) of the mappings callers hold and of those on the retained
  // list, and the high-water mark of mapped_bytes that bounds mapped +
  // retained.
  uint64_t mapped_bytes = 0;
  uint64_t retained_bytes = 0;
  uint64_t mapped_high_water = 0;
};

AllocStats GetAllocStats();

// Resets the resident high-water mark to the current resident level (keeps
// current_bytes intact). Callers measuring one join's peak bracket the run
// with ResetPeakResident() + GetAllocStats().peak_bytes.
//
// Single-run harnesses only: the counters are process-global, so a reset
// while another join runs (service lanes, a multi-threaded Joiner) clobbers
// that join's measurement window. Never reset from concurrent contexts.
//
// Accounting caveat: a zero-byte allocation is normalized to `alignment`
// bytes internally, but FreeAligned only sees the caller's original size, so
// zero-byte alloc/free pairs drift current_bytes up by the alignment. Peak
// measurements of real joins (which never allocate zero bytes) are exact.
void ResetPeakResident();

// Bumps the NUMA-degradation counter (called by numa::NumaSystem when a
// requested placement cannot be honored and is downgraded to local).
void CountNumaDegradation();

// Allocates `bytes` aligned to `alignment` (power of two, >= 64). The
// memory is resident on return but its contents are unspecified: a reused
// mapping holds whatever its previous owner wrote, so callers initialize
// before they read. Reports out-of-memory (real, or injected via the
// `alloc.mmap` failpoint, which is checked before the retained list) as
// ResourceExhausted. A huge-page request whose madvise fails degrades to
// default pages (counted in AllocStats) -- that path still succeeds.
StatusOr<void*> TryAllocateAligned(std::size_t bytes, std::size_t alignment,
                                   PagePolicy policy);

// Frees memory obtained from TryAllocateAligned. `bytes` must match the
// original request. A large mapping is retained for reuse (see above); under
// ASan it stays poisoned until reused, so a dangling pointer still reports
// use-after-free.
void FreeAligned(void* ptr, std::size_t bytes);

}  // namespace mmjoin::mem

#endif  // MMJOIN_MEM_ALIGNED_ALLOC_H_
