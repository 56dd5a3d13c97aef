// Unit and property tests for radix partitioning: global (PRO-style),
// serial sub-partitioning (PRB pass 2), chunked (CPRL), and the Equation (1)
// radix-bit model.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "numa/system.h"
#include "partition/chunked.h"
#include "partition/model.h"
#include "partition/radix.h"
#include "thread/executor.h"
#include "thread/thread_team.h"
#include "util/failpoint.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mmjoin::partition {
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

std::multiset<uint64_t> PackedMultiset(const Tuple* data, std::size_t n) {
  std::multiset<uint64_t> set;
  for (std::size_t i = 0; i < n; ++i) set.insert(PackTuple(data[i]));
  return set;
}

void RunGlobalPartition(GlobalRadixPartitioner* partitioner,
                        int num_threads) {
  const Status status = thread::GlobalExecutor().Dispatch(
      num_threads, [&](const thread::WorkerContext& ctx) {
        partitioner->BuildHistogram(ctx.thread_id);
        ctx.barrier->ArriveAndWait();
        if (ctx.thread_id == 0) partitioner->ComputeOffsets();
        ctx.barrier->ArriveAndWait();
        partitioner->Scatter(ctx.thread_id, 0);
      });
  ASSERT_TRUE(status.ok());
}

void RunChunkedPartition(ChunkedRadixPartitioner* partitioner,
                         int num_threads) {
  const Status status = thread::GlobalExecutor().Dispatch(
      num_threads, [&](const thread::WorkerContext& ctx) {
        partitioner->PartitionChunk(ctx.thread_id, 0);
      });
  ASSERT_TRUE(status.ok());
}

class GlobalPartitionTest
    : public ::testing::TestWithParam<std::tuple<bool, int, uint32_t>> {};

TEST_P(GlobalPartitionTest, PreservesMultisetAndPartitionInvariant) {
  const auto [swwcb, threads, bits] = GetParam();
  const auto input = RandomTuples(20000, 1u << 20, 7 + bits);
  std::vector<Tuple> output(input.size());

  RadixOptions options;
  options.fn = RadixFn{0, bits};
  options.use_swwcb = swwcb;
  options.num_threads = threads;
  GlobalRadixPartitioner partitioner(
      System(), options, ConstTupleSpan(input.data(), input.size()),
      TupleSpan(output.data(), output.size()));
  RunGlobalPartition(&partitioner, threads);

  const PartitionLayout& layout = partitioner.layout();
  ASSERT_EQ(layout.num_partitions(), 1u << bits);
  EXPECT_EQ(layout.offsets.front(), 0u);
  EXPECT_EQ(layout.offsets.back(), input.size());

  // Every tuple sits in its radix partition.
  for (uint32_t p = 0; p < layout.num_partitions(); ++p) {
    for (uint64_t i = layout.PartitionBegin(p);
         i < layout.PartitionBegin(p) + layout.PartitionSize(p); ++i) {
      ASSERT_EQ(options.fn(output[i].key), p) << "at index " << i;
    }
  }
  // And the output is a permutation of the input.
  EXPECT_EQ(PackedMultiset(output.data(), output.size()),
            PackedMultiset(input.data(), input.size()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GlobalPartitionTest,
    ::testing::Combine(::testing::Values(false, true),    // swwcb
                       ::testing::Values(1, 3, 4, 8),     // threads
                       ::testing::Values(0u, 1u, 4u, 8u)  // radix bits
                       ));

TEST(GlobalPartition, SwwcbAndDirectProduceIdenticalOutput) {
  const auto input = RandomTuples(10000, 1u << 16, 99);
  std::vector<Tuple> out_direct(input.size());
  std::vector<Tuple> out_swwcb(input.size());

  for (const bool swwcb : {false, true}) {
    RadixOptions options;
    options.fn = RadixFn{0, 6};
    options.use_swwcb = swwcb;
    options.num_threads = 4;
    GlobalRadixPartitioner partitioner(
        System(), options, ConstTupleSpan(input.data(), input.size()),
        TupleSpan(swwcb ? out_swwcb.data() : out_direct.data(),
                  input.size()));
    RunGlobalPartition(&partitioner, 4);
  }
  EXPECT_EQ(out_direct, out_swwcb);
}

TEST(GlobalPartition, ShiftedRadixFunction) {
  const auto input = RandomTuples(5000, 1u << 20, 3);
  std::vector<Tuple> output(input.size());
  RadixOptions options;
  options.fn = RadixFn{10, 4};  // partition on bits [10, 14)
  options.use_swwcb = true;
  options.num_threads = 2;
  GlobalRadixPartitioner partitioner(
      System(), options, ConstTupleSpan(input.data(), input.size()),
      TupleSpan(output.data(), output.size()));
  RunGlobalPartition(&partitioner, 2);
  const PartitionLayout& layout = partitioner.layout();
  for (uint32_t p = 0; p < 16; ++p) {
    for (uint64_t i = layout.PartitionBegin(p);
         i < layout.PartitionBegin(p) + layout.PartitionSize(p); ++i) {
      ASSERT_EQ((output[i].key >> 10) & 15u, p);
    }
  }
}

// The SWWCB scratch lines are per-call heap memory, not allocator regions:
// an allocator fault armed after the output buffers exist must not reach the
// scatter, which has no way to report it and must produce the unarmed
// layout.
TEST(GlobalPartition, SwwcbScatterIsImmuneToAllocatorFaults) {
  const auto input = RandomTuples(20000, 1u << 20, 41);
  std::vector<Tuple> unarmed(input.size());
  std::vector<Tuple> armed(input.size());
  std::vector<uint64_t> offsets[2];
  for (const bool fault : {false, true}) {
    RadixOptions options;
    options.fn = RadixFn{0, 8};
    options.use_swwcb = true;
    options.num_threads = 4;
    GlobalRadixPartitioner partitioner(
        System(), options, ConstTupleSpan(input.data(), input.size()),
        TupleSpan(fault ? armed.data() : unarmed.data(), input.size()));
    if (fault) {
      ASSERT_TRUE(failpoint::Configure("alloc.mmap=always").ok());
    }
    RunGlobalPartition(&partitioner, 4);
    failpoint::DeactivateAll();
    offsets[fault] = partitioner.layout().offsets;
  }
  EXPECT_EQ(offsets[true], offsets[false]);
  EXPECT_EQ(armed, unarmed);
}

TEST(SubPartitionSerial, RefinesAPartition) {
  // Take keys sharing low 4 bits (= partition 5 of a 4-bit pass) and refine
  // by the next 4 bits.
  std::vector<Tuple> input;
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    input.push_back(
        Tuple{static_cast<uint32_t>((rng.NextBelow(1 << 16) << 4) | 5),
              static_cast<uint32_t>(i)});
  }
  std::vector<Tuple> output(input.size());
  const PartitionLayout layout = SubPartitionSerial(
      ConstTupleSpan(input.data(), input.size()),
      TupleSpan(output.data(), output.size()), RadixFn{4, 4});

  EXPECT_EQ(layout.offsets.back(), input.size());
  for (uint32_t p = 0; p < 16; ++p) {
    for (uint64_t i = layout.PartitionBegin(p);
         i < layout.PartitionBegin(p) + layout.PartitionSize(p); ++i) {
      ASSERT_EQ((output[i].key >> 4) & 15u, p);
      ASSERT_EQ(output[i].key & 15u, 5u);  // pass-1 bits untouched
    }
  }
  EXPECT_EQ(PackedMultiset(output.data(), output.size()),
            PackedMultiset(input.data(), input.size()));
}

class ChunkedPartitionTest
    : public ::testing::TestWithParam<std::tuple<int, uint32_t>> {};

// Runs the chunked pass with the SWWCB and with the plain scatter; no join
// runs the latter.
TEST_P(ChunkedPartitionTest, FragmentsCoverChunksExactly) {
  for (const bool swwcb : {true, false}) {
    SCOPED_TRACE(swwcb ? "swwcb" : "plain");
    const auto [threads, bits] = GetParam();
    const auto input = RandomTuples(17777, 1u << 20, 13);
    std::vector<Tuple> output(input.size());

    RadixOptions options;
    options.fn = RadixFn{0, bits};
    options.use_swwcb = swwcb;
    options.num_threads = threads;
    ChunkedRadixPartitioner partitioner(
        System(), options, ConstTupleSpan(input.data(), input.size()),
        TupleSpan(output.data(), output.size()));
    RunChunkedPartition(&partitioner, threads);

    const ChunkedLayout& layout = partitioner.layout();
    ASSERT_EQ(layout.num_chunks, threads);
    ASSERT_EQ(layout.num_partitions, 1u << bits);

    // Per chunk: fragments tile the chunk range; tuples are in their radix
    // partition; the chunk's output is a permutation of the chunk's input.
    uint64_t total = 0;
    for (int c = 0; c < threads; ++c) {
      const thread::Range range =
          thread::ChunkRange(input.size(), threads, c);
      uint64_t cursor = range.begin;
      for (uint32_t p = 0; p < layout.num_partitions; ++p) {
        ASSERT_EQ(layout.FragmentOffset(c, p), cursor);
        const uint64_t size = layout.FragmentSize(c, p);
        for (uint64_t i = cursor; i < cursor + size; ++i) {
          ASSERT_EQ(options.fn(output[i].key), p);
        }
        cursor += size;
        total += size;
      }
      ASSERT_EQ(cursor, range.end);
      EXPECT_EQ(PackedMultiset(output.data() + range.begin, range.size()),
                PackedMultiset(input.data() + range.begin, range.size()));
    }
    EXPECT_EQ(total, input.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ChunkedPartitionTest,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(0u, 3u, 8u)));

// Chunked counterpart of SwwcbScatterIsImmuneToAllocatorFaults.
TEST(ChunkedPartition, SwwcbScatterIsImmuneToAllocatorFaults) {
  const auto input = RandomTuples(17777, 1u << 20, 43);
  std::vector<Tuple> unarmed(input.size());
  std::vector<Tuple> armed(input.size());
  ChunkedLayout layouts[2];
  for (const bool fault : {false, true}) {
    RadixOptions options;
    options.fn = RadixFn{0, 8};
    options.use_swwcb = true;
    options.num_threads = 4;
    ChunkedRadixPartitioner partitioner(
        System(), options, ConstTupleSpan(input.data(), input.size()),
        TupleSpan(fault ? armed.data() : unarmed.data(), input.size()));
    if (fault) {
      ASSERT_TRUE(failpoint::Configure("alloc.mmap=always").ok());
    }
    RunChunkedPartition(&partitioner, 4);
    failpoint::DeactivateAll();
    layouts[fault] = partitioner.layout();
  }
  EXPECT_EQ(layouts[true].fragment_offsets, layouts[false].fragment_offsets);
  EXPECT_EQ(layouts[true].fragment_sizes, layouts[false].fragment_sizes);
  EXPECT_EQ(armed, unarmed);
}

TEST(ChunkedPartition, PartitionSizeSumsFragments) {
  const auto input = RandomTuples(5000, 256, 21);
  std::vector<Tuple> output(input.size());
  RadixOptions options;
  options.fn = RadixFn{0, 4};
  options.use_swwcb = true;
  options.num_threads = 4;
  ChunkedRadixPartitioner partitioner(
      System(), options, ConstTupleSpan(input.data(), input.size()),
      TupleSpan(output.data(), output.size()));
  RunChunkedPartition(&partitioner, 4);

  uint64_t total = 0;
  for (uint32_t p = 0; p < 16; ++p) {
    total += partitioner.layout().PartitionSize(p);
  }
  EXPECT_EQ(total, input.size());
}

// The headline NUMA property (Figure 4): chunked partitioning performs zero
// remote writes, global partitioning many.
TEST(ChunkedPartition, NoRemoteWritesWhenThreadsMatchNodes) {
  numa::NumaSystem system(4);
  workload::Relation rel = workload::MakeDenseBuild(&system, 1 << 16, 5).value();
  numa::NumaBuffer<Tuple> output(&system, rel.size(),
                                 numa::Placement::kChunkedRoundRobin);
  system.EnableAccounting();

  RadixOptions options;
  options.fn = RadixFn{0, 6};
  options.use_swwcb = true;
  options.num_threads = 4;
  ChunkedRadixPartitioner partitioner(
      &system, options, rel.cspan(),
      TupleSpan(output.data(), output.size()));
  const Status status = thread::GlobalExecutor().Dispatch(
      4, [&](const thread::WorkerContext& ctx) {
        partitioner.PartitionChunk(
            ctx.thread_id, system.topology().NodeOfThread(ctx.thread_id, 4));
      });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(system.counters()->TotalRemoteWriteBytes(), 0u);
  EXPECT_GT(system.counters()->TotalLocalWriteBytes(), 0u);
}

TEST(GlobalPartition, HasRemoteWrites) {
  numa::NumaSystem system(4);
  workload::Relation rel = workload::MakeDenseBuild(&system, 1 << 16, 5).value();
  numa::NumaBuffer<Tuple> output(&system, rel.size(),
                                 numa::Placement::kChunkedRoundRobin);
  system.EnableAccounting();

  RadixOptions options;
  options.fn = RadixFn{0, 6};
  options.use_swwcb = true;
  options.num_threads = 4;
  GlobalRadixPartitioner partitioner(
      &system, options, rel.cspan(),
      TupleSpan(output.data(), output.size()));
  const Status status = thread::GlobalExecutor().Dispatch(
      4, [&](const thread::WorkerContext& ctx) {
        partitioner.BuildHistogram(ctx.thread_id);
        ctx.barrier->ArriveAndWait();
        if (ctx.thread_id == 0) partitioner.ComputeOffsets();
        ctx.barrier->ArriveAndWait();
        partitioner.Scatter(ctx.thread_id,
                            system.topology().NodeOfThread(ctx.thread_id, 4));
      });
  ASSERT_TRUE(status.ok());
  // Each thread writes into every partition; 3/4 of partition memory is
  // remote to it.
  EXPECT_GT(system.counters()->TotalRemoteWriteBytes(),
            system.counters()->TotalLocalWriteBytes());
}

// MWAY and the radix joins partition R and S in one team pass; sharing the
// barriers must not change either output.
TEST(GlobalPartition, TeamPassOfTwoRelationsMatchesEachAlone) {
  const auto r = RandomTuples(9001, 1u << 20, 51);
  const auto s = RandomTuples(23456, 1u << 20, 52);
  RadixOptions options;
  options.fn = RadixFn{0, 5};
  options.use_swwcb = true;
  options.num_threads = 3;
  auto run = [&](std::vector<Tuple>* r_out, std::vector<Tuple>* s_out) {
    std::vector<GlobalRadixPartitioner> parts;
    std::vector<GlobalRadixPartitioner*> pass;
    if (r_out != nullptr) {
      parts.emplace_back(System(), options, ConstTupleSpan(r.data(), r.size()),
                         TupleSpan(r_out->data(), r_out->size()));
    }
    if (s_out != nullptr) {
      parts.emplace_back(System(), options, ConstTupleSpan(s.data(), s.size()),
                         TupleSpan(s_out->data(), s_out->size()));
    }
    for (GlobalRadixPartitioner& part : parts) pass.push_back(&part);
    const Status status = thread::GlobalExecutor().Dispatch(
        3, [&](const thread::WorkerContext& ctx) {
          RunGlobalPass(pass, ctx.thread_id, 0, *ctx.barrier);
        });
    EXPECT_TRUE(status.ok());
    std::vector<std::vector<uint64_t>> offsets;
    for (const GlobalRadixPartitioner& part : parts) {
      offsets.push_back(part.layout().offsets);
    }
    return offsets;
  };
  std::vector<Tuple> r_alone(r.size()), s_alone(s.size());
  std::vector<Tuple> r_both(r.size()), s_both(s.size());
  const auto r_offsets = run(&r_alone, nullptr);
  const auto s_offsets = run(nullptr, &s_alone);
  const auto both_offsets = run(&r_both, &s_both);
  ASSERT_EQ(both_offsets.size(), 2u);
  EXPECT_EQ(both_offsets[0], r_offsets[0]);
  EXPECT_EQ(both_offsets[1], s_offsets[0]);
  EXPECT_EQ(r_both, r_alone);
  EXPECT_EQ(s_both, s_alone);
}

// Every scatter accounts exactly the bytes it writes. A thread's partial
// SWWCB head line starts with the previous thread's tuples, which it does
// not write.
TEST(PartitionAccounting, WriteBytesEqualTuplesWritten) {
  constexpr uint64_t kTuples = 1000003;
  constexpr int kThreads = 4;
  for (const bool chunked : {false, true}) {
    for (const bool swwcb : {false, true}) {
      for (const uint32_t bits : {1u, 4u, 8u}) {
        SCOPED_TRACE(std::string(chunked ? "chunked" : "global") +
                     (swwcb ? " swwcb" : " plain") + " bits " +
                     std::to_string(bits));
        numa::NumaSystem system(4);
        workload::Relation rel =
            workload::MakeDenseBuild(&system, kTuples, 7).value();
        numa::NumaBuffer<Tuple> output(&system, rel.size(),
                                       numa::Placement::kChunkedRoundRobin);
        RadixOptions options;
        options.fn = RadixFn{0, bits};
        options.use_swwcb = swwcb;
        options.num_threads = kThreads;
        const TupleSpan out(output.data(), output.size());
        GlobalRadixPartitioner global(&system, options, rel.cspan(), out);
        ChunkedRadixPartitioner chunk(&system, options, rel.cspan(), out);
        system.EnableAccounting();
        const Status status = thread::GlobalExecutor().Dispatch(
            kThreads, [&](const thread::WorkerContext& ctx) {
              const int node =
                  system.topology().NodeOfThread(ctx.thread_id, kThreads);
              if (chunked) {
                chunk.PartitionChunk(ctx.thread_id, node);
              } else {
                GlobalRadixPartitioner* const pass[] = {&global};
                RunGlobalPass(pass, ctx.thread_id, node, *ctx.barrier);
              }
            });
        ASSERT_TRUE(status.ok());
        EXPECT_EQ(system.counters()->TotalLocalWriteBytes() +
                      system.counters()->TotalRemoteWriteBytes(),
                  kTuples * sizeof(Tuple));
      }
    }
  }
}

// ---- Equation (1) model ----------------------------------------------------

TEST(RadixBitModel, NearMonotoneInBuildSize) {
  // Doubling |R| never decreases the predicted bits by more than one (a
  // one-bit dip is legitimate at the L2 -> LLC regime switch, where the
  // model stops targeting L2-resident partitions).
  const CacheSpec cache;  // paper machine
  uint32_t prev = 0;
  for (uint64_t r = 1 << 20; r <= (uint64_t{1} << 31); r *= 2) {
    const uint32_t bits = PredictRadixBits(r, kLinearSpace, 32, cache);
    EXPECT_GE(bits + 1, prev);
    prev = bits;
  }
}

TEST(RadixBitModel, MatchesPaperSweetSpot) {
  // Figure 2: |R| = 128M with ~16 B/tuple tables on the paper machine ->
  // around 14 bits (the paper's measured optimum), +-1.
  const CacheSpec cache;
  const uint32_t bits =
      PredictRadixBits(128ull << 20, kLinearSpace, 32, cache);
  EXPECT_GE(bits, 13u);
  EXPECT_LE(bits, 15u);
}

TEST(RadixBitModel, SwitchesToLlcRegimeForHugeInputs) {
  // For |R| = 2048M (paper Figure 9(d)) the SWWCBs no longer fit the LLC
  // share and the model must cap the partition count below the L2 target.
  const CacheSpec cache;
  const uint32_t bits_l2_regime =
      PredictRadixBits(256ull << 20, kLinearSpace, 32, cache);
  const uint32_t bits_llc_regime =
      PredictRadixBits(2048ull << 20, kLinearSpace, 32, cache);
  const double l2_partitions =
      (256.0 * (1 << 20) * 16) / cache.l2_bytes;  // what L2 fit would need
  const double llc_chosen = 1 << bits_llc_regime;
  // The chosen count for 2048M must be well below 8x the 256M choice
  // (pure L2 scaling would multiply by 8).
  EXPECT_LT(llc_chosen, 8 * l2_partitions);
  EXPECT_GE(bits_llc_regime, bits_l2_regime);
}

TEST(RadixBitModel, ArrayTablesNeedFewerBits) {
  // Arrays are ~4x denser than hash tables, so fewer partitions suffice
  // (the paper observes different optimal bits per table, Section 7.3).
  const CacheSpec cache;
  const uint32_t array_bits =
      PredictRadixBits(128ull << 20, kArraySpace, 32, cache);
  const uint32_t linear_bits =
      PredictRadixBits(128ull << 20, kLinearSpace, 32, cache);
  EXPECT_LT(array_bits, linear_bits);
}

TEST(RadixBitModel, ClampsToSaneRange) {
  const CacheSpec cache;
  EXPECT_GE(PredictRadixBits(1, kLinearSpace, 1, cache), 1u);
  EXPECT_LE(PredictRadixBits(uint64_t{1} << 40, kLinearSpace, 1, cache),
            24u);
}

TEST(DetectHostCacheSpec, ReturnsPlausibleSizes) {
  const CacheSpec spec = DetectHostCacheSpec();
  EXPECT_GE(spec.l1_bytes, 8u * 1024);
  EXPECT_GE(spec.l2_bytes, spec.l1_bytes);
  EXPECT_GE(spec.llc_bytes, spec.l2_bytes);
}

}  // namespace
}  // namespace mmjoin::partition
