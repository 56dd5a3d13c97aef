// Unit and property tests for the four hash-table flavours: chained,
// lock-free linear probing, concise (CHT), and array.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include "hash/array_table.h"
#include "hash/chained_table.h"
#include "hash/concise_table.h"
#include "hash/hash_functions.h"
#include "hash/linear_probing_table.h"
#include "numa/system.h"
#include "thread/executor.h"
#include "util/rng.h"

namespace mmjoin::hash {
namespace {

numa::NumaSystem* System() {
  static auto* system = new numa::NumaSystem(4);
  return system;
}

std::vector<Tuple> RandomTuples(std::size_t n, uint32_t key_range,
                                uint64_t seed) {
  Rng rng(seed);
  std::vector<Tuple> tuples(n);
  for (std::size_t i = 0; i < n; ++i) {
    tuples[i] = Tuple{static_cast<uint32_t>(rng.NextBelow(key_range)),
                      static_cast<uint32_t>(i)};
  }
  return tuples;
}

// Ground truth: key -> sorted payloads.
std::map<uint32_t, std::vector<uint32_t>> GroupByKey(
    const std::vector<Tuple>& tuples) {
  std::map<uint32_t, std::vector<uint32_t>> groups;
  for (const Tuple& t : tuples) groups[t.key].push_back(t.payload);
  for (auto& [key, payloads] : groups) {
    std::sort(payloads.begin(), payloads.end());
  }
  return groups;
}

template <typename Table>
std::vector<uint32_t> CollectMatches(const Table& table, uint32_t key) {
  std::vector<uint32_t> payloads;
  table.Probe(key, [&](Tuple t) {
    EXPECT_EQ(t.key, key);
    payloads.push_back(t.payload);
  });
  std::sort(payloads.begin(), payloads.end());
  return payloads;
}

// ---- Hash functions --------------------------------------------------------

TEST(HashFunctions, IdentityAndShift) {
  EXPECT_EQ(IdentityHash{}(1234u), 1234u);
  EXPECT_EQ((RadixShiftHash{4})(0xF3u), 0xFu);
  EXPECT_EQ((RadixShiftHash{0})(77u), 77u);
}

TEST(HashFunctions, MurmurAvalanches) {
  MurmurHash h;
  EXPECT_NE(h(1), h(2));
  // Flipping one input bit flips roughly half the output bits.
  int diff = std::popcount(h(12345u) ^ h(12344u));
  EXPECT_GT(diff, 8);
  EXPECT_LT(diff, 24);
}

TEST(HashFunctions, FibonacciAndCrcDiffer) {
  EXPECT_NE(FibonacciHash{}(42), FibonacciHash{}(43));
  EXPECT_NE(Crc32Hash{}(42), Crc32Hash{}(43));
}

// ---- Linear probing table --------------------------------------------------

TEST(LinearProbingTable, SerialInsertAndProbe) {
  const auto tuples = RandomTuples(5000, 2000, 1);
  LinearProbingTable<MurmurHash> table(System(), tuples.size(),
                                       numa::Placement::kLocal);
  for (const Tuple& t : tuples) table.InsertSerial(t);

  const auto groups = GroupByKey(tuples);
  for (const auto& [key, payloads] : groups) {
    EXPECT_EQ(CollectMatches(table, key), payloads);
  }
}

TEST(LinearProbingTable, MissesReturnZero) {
  LinearProbingTable<MurmurHash> table(System(), 100,
                                       numa::Placement::kLocal);
  table.InsertSerial(Tuple{5, 50});
  uint64_t count = table.Probe(6, [](Tuple) {});
  EXPECT_EQ(count, 0u);
  count = table.ProbeUnique(6, [](Tuple) {});
  EXPECT_EQ(count, 0u);
}

TEST(LinearProbingTable, ProbeUniqueStopsAtFirstMatch) {
  LinearProbingTable<IdentityHash> table(System(), 100,
                                         numa::Placement::kLocal);
  for (uint32_t k = 0; k < 50; ++k) table.InsertSerial(Tuple{k, k * 2});
  uint32_t payload = 0;
  const uint64_t count =
      table.ProbeUnique(30, [&](Tuple t) { payload = t.payload; });
  EXPECT_EQ(count, 1u);
  EXPECT_EQ(payload, 60u);
}

TEST(LinearProbingTable, ConcurrentInsertsAllVisible) {
  const auto tuples = RandomTuples(40000, 1u << 30, 2);
  LinearProbingTable<MurmurHash> table(System(), tuples.size(),
                                       numa::Placement::kInterleavedPages);
  const Status status = thread::GlobalExecutor().ParallelFor(
      8, tuples.size(),
      [&](std::size_t begin, std::size_t end, const thread::WorkerContext&) {
        for (std::size_t i = begin; i < end; ++i) {
          table.InsertConcurrent(tuples[i]);
        }
      });
  ASSERT_TRUE(status.ok());
  const auto groups = GroupByKey(tuples);
  for (const auto& [key, payloads] : groups) {
    ASSERT_EQ(CollectMatches(table, key), payloads) << "key=" << key;
  }
}

TEST(LinearProbingTable, ResetShrinksAndClears) {
  LinearProbingTable<IdentityHash> table(System(), 10000,
                                         numa::Placement::kLocal);
  table.InsertSerial(Tuple{7, 70});
  table.Reset(100);
  EXPECT_EQ(table.Probe(7, [](Tuple) {}), 0u);
  EXPECT_LE(table.capacity(), 256u);
  table.InsertSerial(Tuple{8, 80});
  EXPECT_EQ(table.Probe(8, [](Tuple) {}), 1u);
}

// ---- Chained table ---------------------------------------------------------

TEST(ChainedHashTable, BucketLayoutIs32Bytes) {
  EXPECT_EQ(sizeof(ChainedHashTable<IdentityHash>::Bucket), 32u);
}

TEST(ChainedHashTable, SerialInsertAndProbe) {
  const auto tuples = RandomTuples(5000, 1500, 3);
  ChainedHashTable<MurmurHash> table(System(), tuples.size(),
                                     numa::Placement::kLocal);
  for (const Tuple& t : tuples) table.InsertSerial(t);
  const auto groups = GroupByKey(tuples);
  for (const auto& [key, payloads] : groups) {
    EXPECT_EQ(CollectMatches(table, key), payloads);
  }
}

TEST(ChainedHashTable, OverflowChainsWork) {
  // Constant hash forces every tuple into one chain.
  struct ConstHash {
    uint32_t operator()(uint32_t) const { return 0; }
  };
  ChainedHashTable<ConstHash> table(System(), 100, numa::Placement::kLocal);
  for (uint32_t i = 0; i < 100; ++i) table.InsertSerial(Tuple{i, i});
  EXPECT_GT(table.overflow_buckets_used(), 0u);
  for (uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(table.Probe(i, [](Tuple) {}), 1u);
  }
  EXPECT_EQ(table.Probe(200, [](Tuple) {}), 0u);
}

TEST(ChainedHashTable, ConcurrentInsertsAllVisible) {
  const auto tuples = RandomTuples(30000, 1u << 28, 4);
  ChainedHashTable<MurmurHash> table(System(), tuples.size(),
                                     numa::Placement::kInterleavedPages);
  const Status status = thread::GlobalExecutor().ParallelFor(
      8, tuples.size(),
      [&](std::size_t begin, std::size_t end, const thread::WorkerContext&) {
        for (std::size_t i = begin; i < end; ++i) {
          table.InsertConcurrent(tuples[i]);
        }
      });
  ASSERT_TRUE(status.ok());
  const auto groups = GroupByKey(tuples);
  for (const auto& [key, payloads] : groups) {
    ASSERT_EQ(CollectMatches(table, key), payloads) << "key=" << key;
  }
}

TEST(ChainedHashTable, ResetReusesMemory) {
  ChainedHashTable<IdentityHash> table(System(), 4096,
                                       numa::Placement::kLocal);
  for (uint32_t i = 0; i < 4096; ++i) table.InsertSerial(Tuple{i, i});
  table.Reset(64);
  EXPECT_EQ(table.Probe(1, [](Tuple) {}), 0u);
  table.InsertSerial(Tuple{1, 10});
  uint32_t payload = 0;
  table.Probe(1, [&](Tuple t) { payload = t.payload; });
  EXPECT_EQ(payload, 10u);
}

// ---- Concise hash table ----------------------------------------------------

TEST(ConciseHashTable, SerialBuildDenseKeys) {
  std::vector<Tuple> tuples;
  for (uint32_t i = 0; i < 4096; ++i) tuples.push_back(Tuple{i, i * 3});
  ConciseHashTable table(System(), tuples.size(), numa::Placement::kLocal);
  table.BuildSerial(ConstTupleSpan(tuples.data(), tuples.size()));

  EXPECT_EQ(table.overflow_size(), 0u);  // dense keys, 8x buckets: no spill
  for (uint32_t i = 0; i < 4096; ++i) {
    uint32_t payload = 0;
    EXPECT_EQ(table.ProbeUnique(i, [&](Tuple t) { payload = t.payload; }),
              1u);
    EXPECT_EQ(payload, i * 3);
  }
  EXPECT_EQ(table.Probe(5000, [](Tuple) {}), 0u);
}

TEST(ConciseHashTable, RandomKeysWithCollisionsAndOverflow) {
  const auto tuples = RandomTuples(8000, 1u << 30, 5);
  ConciseHashTable table(System(), tuples.size(), numa::Placement::kLocal);
  table.BuildSerial(ConstTupleSpan(tuples.data(), tuples.size()));
  const auto groups = GroupByKey(tuples);
  for (const auto& [key, payloads] : groups) {
    ASSERT_EQ(CollectMatches(table, key), payloads) << "key=" << key;
  }
}

TEST(ConciseHashTable, DuplicateKeysAllFound) {
  std::vector<Tuple> tuples;
  for (uint32_t i = 0; i < 100; ++i) tuples.push_back(Tuple{7, i});
  ConciseHashTable table(System(), tuples.size(), numa::Placement::kLocal);
  table.BuildSerial(ConstTupleSpan(tuples.data(), tuples.size()));
  EXPECT_EQ(table.Probe(7, [](Tuple) {}), 100u);
  // ProbeUnique still reports exactly one.
  EXPECT_EQ(table.ProbeUnique(7, [](Tuple) {}), 1u);
}

TEST(ConciseHashTable, MemoryIsConcise) {
  // CHT's selling point: ~n tuples + bitmap, far below a load-0.5 linear
  // table.
  const uint64_t n = 1 << 16;
  // 8 B/tuple dense array + 16 B per 64 buckets (8n buckets).
  EXPECT_LE(ConciseHashTable::BytesFor(n), n * 8 + (8 * n / 64) * 16 + 1024);
}

TEST(ConciseHashTable, RegionsAreGroupAligned) {
  ConciseHashTable table(System(), 10000, numa::Placement::kLocal);
  for (int t = 0; t < 7; ++t) {
    const auto region = table.RegionForThread(t, 7);
    EXPECT_EQ(region.begin_bucket % 64, 0u);
    EXPECT_EQ(region.end_bucket % 64, 0u);
    EXPECT_LE(region.end_bucket, table.num_buckets());
  }
  EXPECT_EQ(table.RegionForThread(6, 7).end_bucket, table.num_buckets());
}

// ---- Array table -----------------------------------------------------------

TEST(ArrayTable, DenseInsertAndProbe) {
  hash::ArrayTable table(System(), 1000, 0, numa::Placement::kLocal);
  for (uint32_t i = 0; i < 1000; ++i) table.InsertSerial(Tuple{i, i + 7});
  for (uint32_t i = 0; i < 1000; ++i) {
    uint32_t payload = 0;
    EXPECT_EQ(table.Probe(i, [&](Tuple t) { payload = t.payload; }), 1u);
    EXPECT_EQ(payload, i + 7);
  }
}

TEST(ArrayTable, HolesReportMisses) {
  hash::ArrayTable table(System(), 1000, 0, numa::Placement::kLocal);
  table.InsertSerial(Tuple{10, 1});
  table.InsertSerial(Tuple{999, 2});
  EXPECT_EQ(table.Probe(10, [](Tuple) {}), 1u);
  EXPECT_EQ(table.Probe(11, [](Tuple) {}), 0u);
  EXPECT_EQ(table.Probe(0, [](Tuple) {}), 0u);
}

TEST(ArrayTable, KeyShiftIndexesPartitionedKeys) {
  // Partition with 4 radix bits: keys k where k % 16 == 3.
  hash::ArrayTable table(System(), 64, 4, numa::Placement::kLocal);
  for (uint32_t i = 0; i < 64; ++i) {
    table.InsertSerial(Tuple{i * 16 + 3, i});
  }
  for (uint32_t i = 0; i < 64; ++i) {
    uint32_t payload = 123456;
    EXPECT_EQ(
        table.Probe(i * 16 + 3, [&](Tuple t) { payload = t.payload; }), 1u);
    EXPECT_EQ(payload, i);
  }
}

TEST(ArrayTable, ConcurrentInsertBitmapSafe) {
  hash::ArrayTable table(System(), 100000, 0,
                         numa::Placement::kInterleavedPages);
  const Status status = thread::GlobalExecutor().ParallelFor(
      8, 100000,
      [&](std::size_t begin, std::size_t end, const thread::WorkerContext&) {
        for (std::size_t i = begin; i < end; ++i) {
          table.InsertConcurrent(
              Tuple{static_cast<uint32_t>(i), static_cast<uint32_t>(i * 2)});
        }
      });
  ASSERT_TRUE(status.ok());
  for (uint32_t i = 0; i < 100000; ++i) {
    uint32_t payload = 0;
    ASSERT_EQ(table.Probe(i, [&](Tuple t) { payload = t.payload; }), 1u);
    ASSERT_EQ(payload, i * 2);
  }
}

TEST(ArrayTable, ResetClearsValidity) {
  hash::ArrayTable table(System(), 1000, 0, numa::Placement::kLocal);
  table.InsertSerial(Tuple{5, 1});
  table.Reset(500, 0);
  EXPECT_EQ(table.Probe(5, [](Tuple) {}), 0u);
}

}  // namespace
}  // namespace mmjoin::hash
