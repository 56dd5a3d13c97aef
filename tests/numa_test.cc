// Unit tests for the software NUMA layer: topology, placements, address ->
// node resolution, and traffic accounting.

#include <gtest/gtest.h>

#include <vector>

#include "numa/system.h"
#include "numa/topology.h"
#include "util/types.h"

namespace mmjoin::numa {
namespace {

TEST(Topology, ThreadPlacementFewThreads) {
  Topology topo(4);
  // threads <= nodes: one thread per node.
  EXPECT_EQ(topo.NodeOfThread(0, 4), 0);
  EXPECT_EQ(topo.NodeOfThread(1, 4), 1);
  EXPECT_EQ(topo.NodeOfThread(3, 4), 3);
}

TEST(Topology, ThreadPlacementBlockAssignment) {
  Topology topo(4);
  // 8 threads on 4 nodes: contiguous blocks of 2.
  EXPECT_EQ(topo.NodeOfThread(0, 8), 0);
  EXPECT_EQ(topo.NodeOfThread(1, 8), 0);
  EXPECT_EQ(topo.NodeOfThread(2, 8), 1);
  EXPECT_EQ(topo.NodeOfThread(7, 8), 3);
}

TEST(Topology, ThreadPlacementAlignsWithChunkedMemory) {
  // The core CPRL invariant: thread t's 1/T input chunk must live on thread
  // t's node for any thread count that is a multiple of the node count.
  Topology topo(4);
  for (const int threads : {4, 8, 12, 16, 60}) {
    const std::size_t total_bytes = 4096 * threads;
    for (int t = 0; t < threads; ++t) {
      const std::size_t chunk_mid =
          (total_bytes / threads) * t + total_bytes / threads / 2;
      EXPECT_EQ(topo.NodeOfThread(t, threads),
                topo.NodeOfOffset(Placement::kChunkedRoundRobin, 0, chunk_mid,
                                  total_bytes))
          << "threads=" << threads << " t=" << t;
    }
  }
}

TEST(Topology, InterleavedPagesRoundRobin) {
  Topology topo(4);
  EXPECT_EQ(topo.NodeOfOffset(Placement::kInterleavedPages, 0, 0, 1 << 20),
            0);
  EXPECT_EQ(topo.NodeOfOffset(Placement::kInterleavedPages, 0, 4096, 1 << 20),
            1);
  EXPECT_EQ(
      topo.NodeOfOffset(Placement::kInterleavedPages, 0, 4 * 4096, 1 << 20),
      0);
}

TEST(Topology, LocalPlacement) {
  Topology topo(4);
  EXPECT_EQ(topo.NodeOfOffset(Placement::kLocal, 2, 123456, 1 << 20), 2);
}

TEST(Topology, ActiveNodesListsDistinctHomeNodesAscending) {
  Topology topo(4);
  EXPECT_EQ(topo.ActiveNodes(1), (std::vector<int>{0}));
  EXPECT_EQ(topo.ActiveNodes(2), (std::vector<int>{0, 1}));
  EXPECT_EQ(topo.ActiveNodes(4), (std::vector<int>{0, 1, 2, 3}));
  // More threads than nodes: every node hosts a block, still one entry each.
  EXPECT_EQ(topo.ActiveNodes(8), (std::vector<int>{0, 1, 2, 3}));
  // 3 threads on 4 nodes: block placement leaves one node idle.
  const std::vector<int> three = topo.ActiveNodes(3);
  EXPECT_EQ(three.size(), 3u);
  for (std::size_t i = 1; i < three.size(); ++i) {
    EXPECT_LT(three[i - 1], three[i]);
  }
}

TEST(Topology, NodeDistanceIsSymmetricRingDistance) {
  Topology topo(4);
  EXPECT_EQ(topo.NodeDistance(0, 0), 0);
  EXPECT_EQ(topo.NodeDistance(0, 1), 1);
  EXPECT_EQ(topo.NodeDistance(0, 2), 2);
  EXPECT_EQ(topo.NodeDistance(0, 3), 1);  // wraps around the ring
  for (int a = 0; a < 4; ++a) {
    for (int b = 0; b < 4; ++b) {
      EXPECT_EQ(topo.NodeDistance(a, b), topo.NodeDistance(b, a));
    }
  }
}

TEST(Topology, NodesByDistanceOrdersNeighboursFirst) {
  Topology topo(4);
  // From node 0: both ring neighbours (1 and 3) before the opposite node
  // (2); equal distances tie toward the lower index.
  EXPECT_EQ(topo.NodesByDistance(0), (std::vector<int>{1, 3, 2}));
  EXPECT_EQ(topo.NodesByDistance(1), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(topo.NodesByDistance(2), (std::vector<int>{1, 3, 0}));
  // Two nodes: only the one remote candidate.
  EXPECT_EQ(Topology(2).NodesByDistance(0), (std::vector<int>{1}));
  // One node: nobody to steal from.
  EXPECT_TRUE(Topology(1).NodesByDistance(0).empty());
}

TEST(NumaSystem, NodeOfResolvesPlacements) {
  NumaSystem system(4);
  void* local = system.Allocate(1 << 20, Placement::kLocal, 2);
  EXPECT_EQ(system.NodeOf(local), 2);

  void* chunked = system.Allocate(1 << 20, Placement::kChunkedRoundRobin, 0);
  auto* base = static_cast<char*>(chunked);
  EXPECT_EQ(system.NodeOf(base), 0);
  EXPECT_EQ(system.NodeOf(base + (1 << 20) - 1), 3);
  EXPECT_EQ(system.NodeOf(base + (1 << 18)), 1);

  int unknown = 0;
  EXPECT_EQ(system.NodeOf(&unknown), -1);

  system.Free(local);
  system.Free(chunked);
  EXPECT_EQ(system.NodeOf(base), -1);
}

TEST(NumaSystem, AccountingDisabledByDefault) {
  NumaSystem system(4);
  EXPECT_FALSE(system.accounting_enabled());
  void* p = system.Allocate(4096, Placement::kLocal, 0);
  system.CountRead(0, p, 4096);  // must be a no-op, not a crash
  system.Free(p);
}

TEST(NumaSystem, CountsLocalAndRemote) {
  NumaSystem system(4);
  system.EnableAccounting();
  void* p = system.Allocate(1 << 20, Placement::kLocal, 1);

  system.CountRead(1, p, 1000);  // local read
  system.CountWrite(0, p, 500);  // remote write from node 0 to node 1

  AccessCounters* counters = system.counters();
  EXPECT_EQ(counters->ReadBytes(1, 1), 1000u);
  EXPECT_EQ(counters->WriteBytes(0, 1), 500u);
  EXPECT_EQ(counters->TotalLocalReadBytes(), 1000u);
  EXPECT_EQ(counters->TotalRemoteWriteBytes(), 500u);
  EXPECT_EQ(counters->TotalLocalWriteBytes(), 0u);
  system.Free(p);
}

TEST(NumaSystem, ChunkedRangeSplitsAcrossNodes) {
  NumaSystem system(4);
  system.EnableAccounting();
  const std::size_t bytes = 1 << 20;
  void* p = system.Allocate(bytes, Placement::kChunkedRoundRobin, 0);

  // A read covering the whole region from node 0: 1/4 local, 3/4 remote.
  system.CountRead(0, p, bytes);
  AccessCounters* counters = system.counters();
  EXPECT_EQ(counters->ReadBytes(0, 0), bytes / 4);
  EXPECT_EQ(counters->ReadBytes(0, 1), bytes / 4);
  EXPECT_EQ(counters->ReadBytes(0, 3), bytes / 4);
  EXPECT_EQ(counters->TotalRemoteReadBytes(), 3 * bytes / 4);
  system.Free(p);
}

TEST(NumaSystem, InterleavedRangeSpreadsEvenly) {
  NumaSystem system(4);
  system.EnableAccounting();
  void* p = system.Allocate(1 << 20, Placement::kInterleavedPages, 0);
  system.CountWrite(2, p, 4000);
  AccessCounters* counters = system.counters();
  EXPECT_EQ(counters->WriteBytes(2, 0), 1000u);
  EXPECT_EQ(counters->WriteBytes(2, 3), 1000u);
  system.Free(p);
}

TEST(NumaSystem, ModeledCostPenalizesRemote) {
  NumaSystem system(2);
  system.EnableAccounting();
  void* p = system.Allocate(1 << 20, Placement::kLocal, 0);
  system.CountRead(0, p, 64 * 1000);  // 1000 local lines
  const double local_only = system.counters()->ModeledCostMillis();
  system.CountRead(1, p, 64 * 1000);  // 1000 remote lines
  const double with_remote = system.counters()->ModeledCostMillis();
  EXPECT_GT(with_remote, 2.0 * local_only);
  system.Free(p);
}

TEST(NumaBuffer, TypedAccess) {
  NumaSystem system(4);
  NumaBuffer<Tuple> buffer(&system, 1000, Placement::kInterleavedPages);
  ASSERT_EQ(buffer.size(), 1000u);
  buffer[0] = Tuple{1, 2};
  buffer[999] = Tuple{3, 4};
  EXPECT_EQ(buffer[0], (Tuple{1, 2}));
  EXPECT_EQ(buffer[999], (Tuple{3, 4}));
}

TEST(AccessCounters, TimelineRecordsTraffic) {
  Topology topo(2);
  AccessCounters counters(topo, /*timeline_bucket_nanos=*/1);
  counters.StartTimeline(0);
  counters.CountWrite(0, 1, 128, /*now_nanos=*/0);
  uint64_t total = 0;
  for (int b = 0; b < AccessCounters::kTimelineBuckets; ++b) {
    total += counters.TimelineBytes(1, b);
  }
  EXPECT_EQ(total, 128u);
}

}  // namespace
}  // namespace mmjoin::numa
