#include "partition/model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/macros.h"
#include "util/types.h"

namespace mmjoin::partition {
namespace {

// Reads an integer like "256K" / "30720K" from a sysfs cache size file.
uint64_t ReadSysfsCacheBytes(const char* path) {
  std::FILE* file = std::fopen(path, "r");
  if (file == nullptr) return 0;
  char buf[64] = {0};
  const bool ok = std::fgets(buf, sizeof(buf), file) != nullptr;
  std::fclose(file);
  if (!ok) return 0;
  char* end = nullptr;
  const uint64_t value = std::strtoull(buf, &end, 10);
  if (end == nullptr || value == 0) return 0;
  switch (*end) {
    case 'K':
      return value * 1024;
    case 'M':
      return value * 1024 * 1024;
    default:
      return value;
  }
}

}  // namespace

CacheSpec DetectHostCacheSpec() {
  CacheSpec spec;  // paper defaults
  const uint64_t l1 = ReadSysfsCacheBytes(
      "/sys/devices/system/cpu/cpu0/cache/index0/size");
  const uint64_t l2 = ReadSysfsCacheBytes(
      "/sys/devices/system/cpu/cpu0/cache/index2/size");
  const uint64_t llc = ReadSysfsCacheBytes(
      "/sys/devices/system/cpu/cpu0/cache/index3/size");
  if (l1 != 0) spec.l1_bytes = l1;
  if (l2 != 0) spec.l2_bytes = l2;
  if (llc != 0) spec.llc_bytes = llc;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw != 0) spec.hardware_threads = static_cast<int>(hw);
  return spec;
}

uint32_t PredictRadixBits(uint64_t build_tuples, TableSpaceSpec table,
                          int num_threads, const CacheSpec& cache) {
  MMJOIN_CHECK(build_tuples > 0);
  MMJOIN_CHECK(num_threads >= 1);

  // Total hash-table footprint if the whole build side were one table.
  const double table_bytes =
      static_cast<double>(build_tuples) * table.bytes_per_tuple;
  const double llc_per_thread =
      static_cast<double>(cache.llc_bytes) / num_threads;

  // Per-worker L2 share: private on real multicores, divided when workers
  // are oversubscribed onto fewer hardware threads.
  const int l2_sharers = std::max(
      1, num_threads / std::max(cache.hardware_threads, 1));
  const double l2_share =
      static_cast<double>(cache.l2_bytes) / l2_sharers;

  // Fitting partitions into L2 needs P_l2 = table_bytes / L2 partitions, and
  // each partition needs one cache-line SWWCB; check whether those buffers
  // still fit the per-thread LLC share.
  const double partitions_for_l2 = table_bytes / l2_share;
  const double swwcb_bytes = partitions_for_l2 * kCacheLineSize;

  double partitions = 0;
  if (swwcb_bytes < llc_per_thread) {
    partitions = partitions_for_l2;
  } else {
    partitions = table_bytes / llc_per_thread;
  }

  const double bits = std::log2(std::max(partitions, 2.0));
  const auto rounded = static_cast<uint32_t>(std::lround(bits));
  return std::clamp<uint32_t>(rounded, 1, 24);
}

}  // namespace mmjoin::partition
