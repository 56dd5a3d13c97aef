// Unit tests for the util module: bit tricks, RNG, CLI parsing, table
// printing, tuple packing.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <vector>

#include "util/bits.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "util/types.h"

namespace mmjoin {
namespace {

TEST(Bits, IsPowerOfTwo) {
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(2));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_TRUE(IsPowerOfTwo(uint64_t{1} << 63));
  EXPECT_FALSE(IsPowerOfTwo((uint64_t{1} << 63) + 1));
}

TEST(Bits, NextPowerOfTwo) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(1000), 1024u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
}

TEST(Bits, FloorAndCeilLog2) {
  EXPECT_EQ(FloorLog2(1), 0u);
  EXPECT_EQ(FloorLog2(2), 1u);
  EXPECT_EQ(FloorLog2(3), 1u);
  EXPECT_EQ(FloorLog2(1024), 10u);
  EXPECT_EQ(CeilLog2(1), 0u);
  EXPECT_EQ(CeilLog2(2), 1u);
  EXPECT_EQ(CeilLog2(3), 2u);
  EXPECT_EQ(CeilLog2(1024), 10u);
  EXPECT_EQ(CeilLog2(1025), 11u);
}

TEST(Bits, RoundUpAndCeilDiv) {
  EXPECT_EQ(RoundUp(0, 8), 0u);
  EXPECT_EQ(RoundUp(1, 8), 8u);
  EXPECT_EQ(RoundUp(8, 8), 8u);
  EXPECT_EQ(RoundUp(9, 8), 16u);
  EXPECT_EQ(CeilDiv(0, 8), 0u);
  EXPECT_EQ(CeilDiv(1, 8), 1u);
  EXPECT_EQ(CeilDiv(16, 8), 2u);
  EXPECT_EQ(CeilDiv(17, 8), 3u);
}

TEST(Bits, PopcountBelow) {
  EXPECT_EQ(PopcountBelow(0xFF, 0), 0u);
  EXPECT_EQ(PopcountBelow(0xFF, 4), 4u);
  EXPECT_EQ(PopcountBelow(0xFF, 64), 8u);
  EXPECT_EQ(PopcountBelow(~uint64_t{0}, 63), 63u);
  EXPECT_EQ(PopcountBelow(uint64_t{1} << 63, 63), 0u);
  EXPECT_EQ(PopcountBelow(uint64_t{1} << 63, 64), 1u);
}

TEST(Tuple, PackUnpackRoundTrip) {
  const Tuple tuples[] = {{0, 0}, {1, 2}, {0xFFFFFFFE, 0xFFFFFFFF},
                          {42, 0}, {0, 42}};
  for (const Tuple& t : tuples) {
    EXPECT_EQ(UnpackTuple(PackTuple(t)), t);
  }
}

TEST(Tuple, PackedOrderIsKeyMajor) {
  EXPECT_LT(PackTuple({1, 0xFFFFFFFF}), PackTuple({2, 0}));
  EXPECT_LT(PackTuple({5, 1}), PackTuple({5, 2}));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(99);
  double min = 1.0, max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
    min = std::min(min, d);
    max = std::max(max, d);
  }
  EXPECT_LT(min, 0.05);
  EXPECT_GT(max, 0.95);
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--threads=8", "--size=1000000"};
  CommandLine cli(3, const_cast<char**>(argv), {"threads", "size", "missing"});
  EXPECT_EQ(cli.GetInt("threads", 1), 8);
  EXPECT_EQ(cli.GetInt("size", 0), 1000000);
  EXPECT_EQ(cli.GetInt("missing", 42), 42);
}

TEST(Cli, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--name", "cprl", "--flag"};
  CommandLine cli(4, const_cast<char**>(argv), {"name", "flag", "other"});
  EXPECT_EQ(cli.GetString("name", ""), "cprl");
  EXPECT_TRUE(cli.GetBool("flag", false));
  EXPECT_FALSE(cli.GetBool("other", false));
}

TEST(Cli, ParsesDoublesAndBools) {
  const char* argv[] = {"prog", "--theta=0.99", "--huge=false"};
  CommandLine cli(3, const_cast<char**>(argv), {"theta", "huge"});
  EXPECT_DOUBLE_EQ(cli.GetDouble("theta", 0.0), 0.99);
  EXPECT_FALSE(cli.GetBool("huge", true));
}

TEST(Cli, MalformedValuesExitWithUsage) {
  const char* argv[] = {"prog", "--threads=abc", "--theta=0.5x",
                        "--huge=maybe", "--size=99999999999999999999",
                        "--bare"};
  CommandLine cli(6, const_cast<char**>(argv),
                  {"threads", "theta", "huge", "size", "bare"});
  EXPECT_EXIT(cli.GetInt("threads", 4), ::testing::ExitedWithCode(2),
              "malformed value for --threads: 'abc'\nusage: prog");
  EXPECT_EXIT(cli.GetDouble("theta", 0.0), ::testing::ExitedWithCode(2),
              "malformed value for --theta: '0.5x'");
  EXPECT_EXIT(cli.GetBool("huge", false), ::testing::ExitedWithCode(2),
              "malformed value for --huge: 'maybe'");
  EXPECT_EXIT(cli.GetInt("size", 0), ::testing::ExitedWithCode(2),
              "malformed value for --size: '99999999999999999999'");
  EXPECT_EXIT(cli.GetInt("bare", 0), ::testing::ExitedWithCode(2),
              "malformed value for --bare: ''");
}

TEST(Cli, CollectsPositional) {
  const char* argv[] = {"prog", "one", "--k=1", "two"};
  CommandLine cli(4, const_cast<char**>(argv), {"k"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "one");
  EXPECT_EQ(cli.positional()[1], "two");
}

// A name the binary did not declare is a usage error: exit 2 with the flag
// named and the declared set listed, whatever form it was passed in.
// --help lists the same set on stdout and exits 0.
TEST(Cli, UnknownFlagsExitWithUsage) {
  const auto parse = [](std::vector<const char*> args) {
    args.insert(args.begin(), "prog");
    CommandLine cli(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()), {"join", "build"});
    (void)cli;
  };
  EXPECT_EXIT(parse({"--join=PRO", "--algo=NOP"}),
              ::testing::ExitedWithCode(2),
              "unknown flag --algo\nusage: prog .*--join --build");
  EXPECT_EXIT(parse({"--radix-bits", "6"}), ::testing::ExitedWithCode(2),
              "unknown flag --radix-bits");
  EXPECT_EXIT(parse({"--verbose"}), ::testing::ExitedWithCode(2),
              "unknown flag --verbose");
  EXPECT_EXIT(parse({"--help"}), ::testing::ExitedWithCode(0), "");
  // Declared flags in every form parse without exiting.
  parse({"--join=PRO", "--build", "100", "positional"});
}

TEST(TablePrinter, FormatsAlignedTable) {
  TablePrinter table({"name", "value"});
  table.Row("alpha", 1);
  table.Row("b", 12345);

  char buffer[256] = {0};
  std::FILE* stream = fmemopen(buffer, sizeof(buffer), "w");
  table.Print(stream);
  std::fclose(stream);

  EXPECT_NE(std::strstr(buffer, "name"), nullptr);
  EXPECT_NE(std::strstr(buffer, "alpha"), nullptr);
  EXPECT_NE(std::strstr(buffer, "12345"), nullptr);
}

TEST(TablePrinter, CsvOutput) {
  TablePrinter table({"a", "b"});
  table.Row(1, 2.5);
  char buffer[128] = {0};
  std::FILE* stream = fmemopen(buffer, sizeof(buffer), "w");
  table.PrintCsv(stream);
  std::fclose(stream);
  EXPECT_STREQ(buffer, "a,b\n1,2.50\n");
}

TEST(TablePrinter, FormatDouble) {
  EXPECT_EQ(TablePrinter::FormatDouble(1.234, 2), "1.23");
  EXPECT_EQ(TablePrinter::FormatDouble(1.0, 0), "1");
}

}  // namespace
}  // namespace mmjoin
