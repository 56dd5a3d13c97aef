// Direct unit tests of the software write-combine buffer primitives --
// especially the partial head/tail cache-line handling that protects
// adjacent threads' output ranges.

#include <gtest/gtest.h>

#include <vector>

#include "partition/swwcb.h"
#include "util/types.h"

namespace mmjoin::partition {
namespace {

constexpr uint32_t kGuard = 0xDEADBEEF;

class SwwcbTest : public ::testing::Test {
 protected:
  // Output array pre-filled with guard tuples so any out-of-range write is
  // detected.
  void Init(std::size_t size) {
    output_.assign(size, Tuple{kGuard, kGuard});
  }

  std::vector<Tuple> output_;
};

TEST_F(SwwcbTest, AlignedRangeFullLines) {
  Init(64);
  std::vector<CacheLineBuffer> buffers(1);
  ScatterCursor cursor{0, 0};
  for (uint32_t i = 0; i < 16; ++i) {
    SwwcbPush(output_.data(), buffers.data(), &cursor, 0,
              Tuple{i, i * 2});
  }
  SwwcbDrain(output_.data(), buffers.data(), &cursor, 0);
  mem::StreamFence();
  for (uint32_t i = 0; i < 16; ++i) {
    EXPECT_EQ(output_[i], (Tuple{i, i * 2}));
  }
  EXPECT_EQ(output_[16].key, kGuard);
}

TEST_F(SwwcbTest, UnalignedStartDoesNotClobberPredecessor) {
  // Start mid-line (offset 3): slots 0..2 belong to a previous writer.
  Init(64);
  std::vector<CacheLineBuffer> buffers(1);
  ScatterCursor cursor{3, 3};
  for (uint32_t i = 0; i < 20; ++i) {
    SwwcbPush(output_.data(), buffers.data(), &cursor, 0, Tuple{i, i});
  }
  SwwcbDrain(output_.data(), buffers.data(), &cursor, 0);
  mem::StreamFence();
  EXPECT_EQ(output_[0].key, kGuard);
  EXPECT_EQ(output_[1].key, kGuard);
  EXPECT_EQ(output_[2].key, kGuard);
  for (uint32_t i = 0; i < 20; ++i) {
    EXPECT_EQ(output_[3 + i], (Tuple{i, i})) << i;
  }
  EXPECT_EQ(output_[23].key, kGuard);
}

TEST_F(SwwcbTest, ShortRangeWithinOneLine) {
  // Fewer tuples than a cache line, starting unaligned: everything flows
  // through the drain path.
  Init(16);
  std::vector<CacheLineBuffer> buffers(1);
  ScatterCursor cursor{5, 5};
  for (uint32_t i = 0; i < 2; ++i) {
    SwwcbPush(output_.data(), buffers.data(), &cursor, 0, Tuple{i, 9});
  }
  SwwcbDrain(output_.data(), buffers.data(), &cursor, 0);
  EXPECT_EQ(output_[4].key, kGuard);
  EXPECT_EQ(output_[5], (Tuple{0, 9}));
  EXPECT_EQ(output_[6], (Tuple{1, 9}));
  EXPECT_EQ(output_[7].key, kGuard);
}

TEST_F(SwwcbTest, EveryStartOffsetAndLength) {
  // Exhaustive property check over start alignment x tuple count.
  std::vector<CacheLineBuffer> buffers(1);
  for (uint64_t start = 0; start < 8; ++start) {
    for (uint64_t count = 0; count <= 40; ++count) {
      Init(64);
      ScatterCursor cursor{start, start};
      for (uint64_t i = 0; i < count; ++i) {
        SwwcbPush(output_.data(), buffers.data(), &cursor, 0,
                  Tuple{static_cast<uint32_t>(i), 1});
      }
      SwwcbDrain(output_.data(), buffers.data(), &cursor, 0);
      mem::StreamFence();
      for (uint64_t i = 0; i < start; ++i) {
        ASSERT_EQ(output_[i].key, kGuard)
            << "start=" << start << " count=" << count << " i=" << i;
      }
      for (uint64_t i = 0; i < count; ++i) {
        ASSERT_EQ(output_[start + i].key, i)
            << "start=" << start << " count=" << count;
      }
      ASSERT_EQ(output_[start + count].key, kGuard)
          << "start=" << start << " count=" << count;
    }
  }
}

TEST_F(SwwcbTest, InterleavedPartitionsStayDisjoint) {
  // Two partitions with adjacent ranges, pushed in interleaved order.
  Init(64);
  std::vector<CacheLineBuffer> buffers(2);
  ScatterCursor cursors[2] = {{2, 2}, {21, 21}};  // partition 0: [2,21)
  for (uint32_t i = 0; i < 19; ++i) {
    SwwcbPush(output_.data(), buffers.data(), cursors, 0, Tuple{i, 0});
    SwwcbPush(output_.data(), buffers.data(), cursors, 1, Tuple{100 + i, 1});
  }
  SwwcbDrain(output_.data(), buffers.data(), cursors, 0);
  SwwcbDrain(output_.data(), buffers.data(), cursors, 1);
  mem::StreamFence();
  for (uint32_t i = 0; i < 19; ++i) {
    ASSERT_EQ(output_[2 + i], (Tuple{i, 0}));
    ASSERT_EQ(output_[21 + i], (Tuple{100 + i, 1}));
  }
  EXPECT_EQ(output_[0].key, kGuard);
  EXPECT_EQ(output_[1].key, kGuard);
  EXPECT_EQ(output_[40].key, kGuard);
}

}  // namespace
}  // namespace mmjoin::partition
