// Radix-bit prediction model -- Equation (1) of the paper (Section 7.3).
//
// Partition-based joins are very sensitive to the number of radix bits:
// too few and the per-partition hash table misses L2; too many and the
// software write-combine buffers overflow the shared LLC and partitioning
// cost explodes. Equation (1) picks
//
//          | log2(|R| * st / (l * L2)),    if |R| * sb * st / (L2 * l) < LLCt
//   np  =  |
//          | log2(|R| * st / (l * LLCt)),  otherwise
//
// where st is the tuple footprint inside the join hash table, l the intended
// hash table load factor, sb the SWWCB size (one cache line), L2 the L2 data
// cache size, and LLCt the per-thread share of the last-level cache.

#ifndef MMJOIN_PARTITION_MODEL_H_
#define MMJOIN_PARTITION_MODEL_H_

#include <cstdint>

namespace mmjoin::partition {

// Cache capacities of the machine the model targets. Defaults are the
// paper's Xeon E7-4870v2 (Section 7.1): 32 KB L1D, 256 KB L2, 30 MB shared
// L3 per socket.
struct CacheSpec {
  uint64_t l1_bytes = 32 * 1024;
  uint64_t l2_bytes = 256 * 1024;
  uint64_t llc_bytes = 30 * 1024 * 1024;
  // Hardware threads of the machine. On the paper machine every worker has
  // a private L2; when a host runs more worker threads than hardware
  // threads (oversubscription, e.g. container hosts), co-scheduled workers
  // share L2 and the model scales the per-worker L2 share accordingly.
  int hardware_threads = 60;
};

// Returns the CacheSpec of the host we run on (parsed from sysfs when
// available, paper defaults otherwise). Wall-clock sweeps use this; the
// memsim experiments use the paper defaults.
CacheSpec DetectHostCacheSpec();

// Hash-table space parameters per table flavour (paper: "the different hash
// table implementations differ in their space efficiency", Section 7.3).
// This is Equation (1)'s cache footprint `st`, which chooses radix bits; it
// is not what a table allocates (power-of-two rounding, the chained table's
// overflow pool). Memory budgets charge each table's own BytesFor.
struct TableSpaceSpec {
  double bytes_per_tuple;  // hash table bytes per build tuple, incl. load
  // factor headroom: chained ~16 B (32 B bucket / 2 tuples), linear probing
  // 16 B (8 B slot at load 0.5), array ~4.5 B (payload + bitmap).
};

inline constexpr TableSpaceSpec kChainedSpace{16.0};
inline constexpr TableSpaceSpec kLinearSpace{16.0};
inline constexpr TableSpaceSpec kArraySpace{4.5};

// Equation (1). `build_tuples` = |R|; `num_threads` determines the
// per-thread LLC share LLCt. Returns the predicted number of radix bits,
// clamped to [1, 24].
uint32_t PredictRadixBits(uint64_t build_tuples, TableSpaceSpec table,
                          int num_threads, const CacheSpec& cache);

}  // namespace mmjoin::partition

#endif  // MMJOIN_PARTITION_MODEL_H_
