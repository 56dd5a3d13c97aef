// NumaSystem: node-tagged memory allocation + traffic accounting.
//
// All join-algorithm allocations (inputs, partition buffers, hash tables)
// flow through a NumaSystem so that (a) placement policies are explicit and
// identical to the paper's code (interleaved partition buffers via
// -basic-numa, chunked-round-robin input relations, node-local working
// memory) and (b) every address can be resolved to the node it lives on for
// accounting. On a real NUMA box the same call sites would issue
// mbind/numa_alloc_onnode; here placement is logical.

#ifndef MMJOIN_NUMA_SYSTEM_H_
#define MMJOIN_NUMA_SYSTEM_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/aligned_alloc.h"
#include "numa/counters.h"
#include "numa/topology.h"
#include "util/annotations.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/timer.h"
#include "util/types.h"

namespace mmjoin::numa {

class NumaSystem {
 public:
  // `num_nodes`: nodes of the simulated topology (paper machine: 4).
  // `page_policy`: page size used for all allocations (paper Section 7.2).
  explicit NumaSystem(int num_nodes = 4,
                      mem::PagePolicy page_policy = mem::PagePolicy::kHuge)
      : topology_(num_nodes), page_policy_(page_policy) {}

  ~NumaSystem();

  NumaSystem(const NumaSystem&) = delete;
  NumaSystem& operator=(const NumaSystem&) = delete;

  const Topology& topology() const { return topology_; }
  mem::PagePolicy page_policy() const { return page_policy_; }
  // Configure-before-run: a plain (non-atomic) setter read by every
  // allocating thread. Call it only while no join runs on this system --
  // under the service, set the policy via JoinerOptions at construction
  // and never flip it live.
  void set_page_policy(mem::PagePolicy policy) { page_policy_ = policy; }

  // Allocates `bytes` with the given placement and registers the region.
  // The pages are resident on return (buffer-manager assumption, paper
  // Section 5.1): mem::TryAllocateAligned either reuses a retained mapping
  // that is already faulted in or prefaults a fresh one. The contents are
  // unspecified. Aborts on allocation failure (for harness-owned inputs and
  // tables; prefer TryAllocate).
  void* Allocate(std::size_t bytes, Placement placement, int home_node = 0,
                 std::size_t alignment = kCacheLineSize);

  // Like Allocate but recoverable: returns mem::TryAllocateAligned's status
  // unchanged when the underlying allocation fails (real or fault-injected).
  // An out-of-range `home_node` degrades to node 0 (counted as a NUMA
  // degradation in mem::AllocStats) rather than aborting -- placement is a
  // hint, not a correctness property.
  StatusOr<void*> TryAllocate(std::size_t bytes, Placement placement,
                              int home_node = 0,
                              std::size_t alignment = kCacheLineSize);

  void Free(void* ptr);

  // Node an address lives on, or -1 for memory not allocated through this
  // system (e.g. thread stacks).
  int NodeOf(const void* addr) const;

  // --- Accounting -------------------------------------------------------
  // Disabled by default; enable for instrumented runs only, and only while
  // no join is running (workers read the flag and the counters pointer
  // without the region lock; the quiescent-toggle contract is what makes
  // the relaxed load sound). Under service::JoinService the system is never
  // quiescent while lanes are up, so toggle accounting before the service
  // starts (or after Shutdown), not per job.
  void EnableAccounting(int64_t timeline_bucket_nanos = 2'000'000);
  void DisableAccounting() {
    accounting_enabled_.store(false, std::memory_order_relaxed);
  }
  bool accounting_enabled() const {
    return accounting_enabled_.load(std::memory_order_relaxed);
  }
  AccessCounters* counters() { return counters_.get(); }

  // Attributes a read/write of [addr, addr+bytes) performed by a thread on
  // `from_node`. Splits the range across nodes according to the placement of
  // the containing allocation. No-ops (after one branch) when accounting is
  // off.
  void CountRead(int from_node, const void* addr, std::size_t bytes) {
    if (MMJOIN_LIKELY(!accounting_enabled())) return;
    CountRange(from_node, addr, bytes, /*is_write=*/false);
  }
  void CountWrite(int from_node, const void* addr, std::size_t bytes) {
    if (MMJOIN_LIKELY(!accounting_enabled())) return;
    CountRange(from_node, addr, bytes, /*is_write=*/true);
  }

  // Number of currently registered (live) allocations. Fault-injection
  // tests assert a failed join unwinds back to the pre-join count (no
  // leaked regions).
  std::size_t num_live_regions() const {
    ReaderMutexLock lock(regions_mutex_);
    return regions_.size();
  }

 private:
  struct Region {
    std::uintptr_t base;
    std::size_t bytes;
    Placement placement;
    int home_node;
  };

  const Region* FindRegion(std::uintptr_t addr) const
      MMJOIN_REQUIRES_SHARED(regions_mutex_);
  void CountRange(int from_node, const void* addr, std::size_t bytes,
                  bool is_write);

  Topology topology_;
  mem::PagePolicy page_policy_;

  mutable SharedMutex regions_mutex_;
  std::vector<Region> regions_
      MMJOIN_GUARDED_BY(regions_mutex_);  // sorted by base

  std::atomic<bool> accounting_enabled_{false};
  std::unique_ptr<AccessCounters> counters_;
};

// RAII typed buffer allocated from a NumaSystem.
template <typename T>
class NumaBuffer {
 public:
  NumaBuffer() = default;
  NumaBuffer(NumaSystem* system, std::size_t count, Placement placement,
             int home_node = 0)
      : system_(system),
        size_(count),
        data_(static_cast<T*>(
            system->Allocate(BytesFor(count), placement, home_node))) {}

  // Bytes a buffer of `count` elements allocates (at least one element).
  static constexpr std::size_t BytesFor(std::size_t count) {
    return count > 0 ? count * sizeof(T) : sizeof(T);
  }

  // Recoverable construction: the allocator's Status instead of abort when
  // the allocation fails. The join kernels allocate all phase buffers
  // through this so partition/build failures propagate out of Joiner::Run.
  static StatusOr<NumaBuffer> TryCreate(NumaSystem* system, std::size_t count,
                                        Placement placement,
                                        int home_node = 0) {
    MMJOIN_ASSIGN_OR_RETURN(
        void* ptr, system->TryAllocate(BytesFor(count), placement, home_node));
    NumaBuffer buffer;
    buffer.system_ = system;
    buffer.size_ = count;
    buffer.data_ = static_cast<T*>(ptr);
    return buffer;
  }

  ~NumaBuffer() { reset(); }

  NumaBuffer(NumaBuffer&& other) noexcept { *this = std::move(other); }
  NumaBuffer& operator=(NumaBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      system_ = other.system_;
      size_ = other.size_;
      data_ = other.data_;
      other.system_ = nullptr;
      other.size_ = 0;
      other.data_ = nullptr;
    }
    return *this;
  }
  NumaBuffer(const NumaBuffer&) = delete;
  NumaBuffer& operator=(const NumaBuffer&) = delete;

  void reset() {
    if (data_ != nullptr) system_->Free(data_);
    data_ = nullptr;
    size_ = 0;
  }

  T* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() const { return data_; }
  T* end() const { return data_ + size_; }

 private:
  NumaSystem* system_ = nullptr;
  std::size_t size_ = 0;
  T* data_ = nullptr;
};

}  // namespace mmjoin::numa

#endif  // MMJOIN_NUMA_SYSTEM_H_
