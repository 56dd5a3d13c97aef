#include "numa/system.h"

#include <algorithm>
#include <atomic>

#include "obs/metrics.h"
#include "util/log.h"
#include "util/macros.h"

namespace mmjoin::numa {

namespace {

// Process-wide traffic aggregates across every NumaSystem instance (a
// NumaSystem and its AccessCounters can be destroyed before a metrics
// snapshot is taken; these survive). Only accrue while per-system
// accounting is enabled, like the counters they mirror.
struct ProcessTraffic {
  std::atomic<uint64_t> local_read_bytes{0};
  std::atomic<uint64_t> remote_read_bytes{0};
  std::atomic<uint64_t> local_write_bytes{0};
  std::atomic<uint64_t> remote_write_bytes{0};
};

ProcessTraffic& GlobalTraffic() {
  static ProcessTraffic* traffic = new ProcessTraffic();
  return *traffic;
}

const obs::MetricsProviderRegistration kNumaProvider(
    "numa", [](std::vector<obs::Metric>* metrics) {
      const ProcessTraffic& traffic = GlobalTraffic();
      metrics->push_back(obs::Metric{
          "numa.local_read_bytes",
          traffic.local_read_bytes.load(std::memory_order_relaxed)});
      metrics->push_back(obs::Metric{
          "numa.remote_read_bytes",
          traffic.remote_read_bytes.load(std::memory_order_relaxed)});
      metrics->push_back(obs::Metric{
          "numa.local_write_bytes",
          traffic.local_write_bytes.load(std::memory_order_relaxed)});
      metrics->push_back(obs::Metric{
          "numa.remote_write_bytes",
          traffic.remote_write_bytes.load(std::memory_order_relaxed)});
    });

}  // namespace

NumaSystem::~NumaSystem() {
  // Free any regions the owner leaked (RAII wrappers normally free all).
  WriterMutexLock lock(regions_mutex_);
  for (const Region& region : regions_) {
    mem::FreeAligned(reinterpret_cast<void*>(region.base), region.bytes);
  }
  regions_.clear();
}

void* NumaSystem::Allocate(std::size_t bytes, Placement placement,
                           int home_node, std::size_t alignment) {
  MMJOIN_CHECK(home_node >= 0 && home_node < topology_.num_nodes());
  // value() aborts with the allocator's status printed on failure.
  return TryAllocate(bytes, placement, home_node, alignment).value();
}

StatusOr<void*> NumaSystem::TryAllocate(std::size_t bytes,
                                        Placement placement, int home_node,
                                        std::size_t alignment) {
  if (home_node < 0 || home_node >= topology_.num_nodes()) {
    // Placement is advisory: degrade to node 0 instead of aborting.
    mem::CountNumaDegradation();
    MMJOIN_LOG(kWarn, "numa.home_clamp")
        .Field("home_node", home_node)
        .Field("nodes", topology_.num_nodes());
    home_node = 0;
  }
  MMJOIN_ASSIGN_OR_RETURN(
      void* ptr, mem::TryAllocateAligned(bytes, alignment, page_policy_));

  Region region{reinterpret_cast<std::uintptr_t>(ptr), bytes, placement,
                home_node};
  WriterMutexLock lock(regions_mutex_);
  const auto it = std::lower_bound(
      regions_.begin(), regions_.end(), region.base,
      [](const Region& r, std::uintptr_t base) { return r.base < base; });
  regions_.insert(it, region);
  return ptr;
}

void NumaSystem::Free(void* ptr) {
  if (ptr == nullptr) return;
  const auto addr = reinterpret_cast<std::uintptr_t>(ptr);
  std::size_t bytes = 0;
  {
    WriterMutexLock lock(regions_mutex_);
    const auto it = std::lower_bound(
        regions_.begin(), regions_.end(), addr,
        [](const Region& r, std::uintptr_t base) { return r.base < base; });
    MMJOIN_CHECK(it != regions_.end() && it->base == addr);
    bytes = it->bytes;
    regions_.erase(it);
  }
  mem::FreeAligned(ptr, bytes);
}

const NumaSystem::Region* NumaSystem::FindRegion(std::uintptr_t addr) const {
  auto it = std::upper_bound(
      regions_.begin(), regions_.end(), addr,
      [](std::uintptr_t a, const Region& r) { return a < r.base; });
  if (it == regions_.begin()) return nullptr;
  --it;
  if (addr >= it->base && addr < it->base + it->bytes) return &*it;
  return nullptr;
}

int NumaSystem::NodeOf(const void* addr) const {
  ReaderMutexLock lock(regions_mutex_);
  const Region* region = FindRegion(reinterpret_cast<std::uintptr_t>(addr));
  if (region == nullptr) return -1;
  return topology_.NodeOfOffset(
      region->placement, region->home_node,
      reinterpret_cast<std::uintptr_t>(addr) - region->base, region->bytes);
}

void NumaSystem::EnableAccounting(int64_t timeline_bucket_nanos) {
  counters_ =
      std::make_unique<AccessCounters>(topology_, timeline_bucket_nanos);
  counters_->StartTimeline(NowNanos());
  // Relaxed is enough: the enable-while-quiescent contract (header comment)
  // means no worker races this store, and the dispatch that starts the next
  // join provides the happens-before edge that publishes counters_.
  accounting_enabled_.store(true, std::memory_order_relaxed);
}

void NumaSystem::CountRange(int from_node, const void* addr,
                            std::size_t bytes, bool is_write) {
  if (counters_ == nullptr || bytes == 0) return;
  const auto start = reinterpret_cast<std::uintptr_t>(addr);
  const int64_t now = NowNanos();

  Region r{};
  bool found = false;
  {
    ReaderMutexLock lock(regions_mutex_);
    const Region* region = FindRegion(start);
    if (region != nullptr) {
      r = *region;
      found = true;
    }
  }
  if (!found) {
    // Unknown memory (stack/temporary): treat as local to the accessor.
    if (is_write) {
      counters_->CountWrite(from_node, from_node, bytes, now);
      GlobalTraffic().local_write_bytes.fetch_add(bytes,
                                                  std::memory_order_relaxed);
    } else {
      counters_->CountRead(from_node, from_node, bytes, now);
      GlobalTraffic().local_read_bytes.fetch_add(bytes,
                                                 std::memory_order_relaxed);
    }
    return;
  }

  auto count = [&](int to_node, uint64_t n) {
    ProcessTraffic& traffic = GlobalTraffic();
    if (is_write) {
      counters_->CountWrite(from_node, to_node, n, now);
      (to_node == from_node ? traffic.local_write_bytes
                            : traffic.remote_write_bytes)
          .fetch_add(n, std::memory_order_relaxed);
    } else {
      counters_->CountRead(from_node, to_node, n, now);
      (to_node == from_node ? traffic.local_read_bytes
                            : traffic.remote_read_bytes)
          .fetch_add(n, std::memory_order_relaxed);
    }
  };

  const int nodes = topology_.num_nodes();
  switch (r.placement) {
    case Placement::kLocal:
      count(r.home_node, bytes);
      break;
    case Placement::kInterleavedPages: {
      // Interleaving granule (4 KB) is far below the granularity of the
      // ranges algorithms report, so even attribution is exact in the limit.
      const uint64_t share = bytes / nodes;
      const uint64_t rem = bytes % nodes;
      for (int node = 0; node < nodes; ++node) {
        count(node, share + (static_cast<uint64_t>(node) < rem ? 1 : 0));
      }
      break;
    }
    case Placement::kChunkedRoundRobin: {
      const std::size_t chunk = (r.bytes + nodes - 1) / nodes;
      std::size_t offset = start - r.base;
      std::size_t remaining = bytes;
      while (remaining > 0) {
        const int node = topology_.NodeOfOffset(r.placement, r.home_node,
                                                offset, r.bytes);
        const std::size_t chunk_end = (offset / chunk + 1) * chunk;
        const std::size_t take = std::min(remaining, chunk_end - offset);
        count(node, take);
        offset += take;
        remaining -= take;
      }
      break;
    }
  }
}

}  // namespace mmjoin::numa
