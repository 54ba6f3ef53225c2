// Checks the ledger benchmark's arithmetic on hand-built inputs.
#include "ledgerbench/ledger.h"

#include <gtest/gtest.h>

#include "ycsb/ycsb.h"

namespace ledgerbench {
namespace {

std::string Key(uint64_t i) { return couchkv::ycsb::Workload::KeyFor(i); }

std::vector<std::string> Keys(uint64_t from, uint64_t count) {
  std::vector<std::string> out;
  for (uint64_t i = 0; i < count; ++i) out.push_back(Key(from + i));
  return out;
}

TEST(PercentileRule, NearestRank) {
  EXPECT_EQ(RankIndex(100, 0.5), 49u);
  EXPECT_EQ(RankIndex(100, 0.99), 98u);
  EXPECT_EQ(RankIndex(101, 0.5), 50u);
  EXPECT_EQ(RankIndex(1, 0.99), 0u);
  EXPECT_EQ(RankIndex(1000, 1.0), 999u);
}

TEST(PercentileRule, TenSamplesBeyond) {
  // p99 of 1000 samples sits at index 989: exactly 10 beyond.
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_TRUE(Supports(1000, 0.99));
  EXPECT_FALSE(Supports(999, 0.99));
  EXPECT_TRUE(Supports(20, 0.5));
  EXPECT_FALSE(Supports(19, 0.5));
}

TEST(PercentileRule, HighestSupported) {
  EXPECT_EQ(HighestSupported(19), 0.0);
  EXPECT_EQ(HighestSupported(20), 0.5);
  EXPECT_EQ(HighestSupported(999), 0.9);
  EXPECT_EQ(HighestSupported(1000), 0.99);
  EXPECT_EQ(HighestSupported(10000), 0.999);
  EXPECT_EQ(HighestSupported(100000), 0.9999);
}

TEST(PercentileRule, SamplesReportInMicroseconds) {
  std::vector<uint64_t> ns;
  for (uint64_t i = 1000; i >= 1; --i) ns.push_back(i * 1000);  // unsorted
  Samples s(ns);
  EXPECT_EQ(s.count(), 1000u);
  EXPECT_DOUBLE_EQ(s.PercentileUs(0.5), 500.0);
  EXPECT_DOUBLE_EQ(s.PercentileUs(0.99), 990.0);
  EXPECT_DOUBLE_EQ(s.MeanUs(), 500.5);
  EXPECT_THROW(s.PercentileUs(0.999), std::runtime_error);
  EXPECT_THROW(Samples().PercentileUs(0.5), std::runtime_error);
}

TEST(SelfTime, NoChildrenIsTheWholeSpan) {
  EXPECT_EQ(SelfTime({100, 250}, {}), 150u);
}

TEST(SelfTime, SubtractsDisjointChildren) {
  EXPECT_EQ(SelfTime({0, 100}, {{10, 30}, {50, 60}}), 70u);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // [10,40) and [30,50) cover 40 ns together, not 50.
  EXPECT_EQ(SelfTime({0, 100}, {{30, 50}, {10, 40}}), 60u);
  // A child nested in another adds nothing.
  EXPECT_EQ(SelfTime({0, 100}, {{10, 90}, {20, 30}}), 20u);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  EXPECT_EQ(SelfTime({100, 200}, {{50, 120}, {190, 300}}), 70u);
  EXPECT_EQ(SelfTime({100, 200}, {{0, 400}}), 0u);
  EXPECT_EQ(SelfTime({100, 200}, {{300, 400}}), 100u);
}

TEST(FailRatio, CountsAgainstAttempted) {
  EXPECT_DOUBLE_EQ(FailRatio(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(FailRatio(5, 1000), 0.005);
  EXPECT_DOUBLE_EQ(FailRatio(3, 3), 1.0);
}

TEST(FailRatio, RejectsAMissingBase) {
  EXPECT_THROW(FailRatio(0, 0), std::invalid_argument);
  EXPECT_THROW(FailRatio(4, 3), std::invalid_argument);
}

TEST(CheckScan, RangeInsidePreloadMustMatchExactly) {
  EXPECT_TRUE(CheckScan(Keys(40, 10), 40, 10, 100, Key));
  // One short, one skipped, one out of order, one extra.
  EXPECT_FALSE(CheckScan(Keys(40, 9), 40, 10, 100, Key));
  std::vector<std::string> skipped = Keys(40, 11);
  skipped.erase(skipped.begin() + 3);
  EXPECT_FALSE(CheckScan(skipped, 40, 10, 100, Key));
  std::vector<std::string> swapped = Keys(40, 10);
  std::swap(swapped[2], swapped[3]);
  EXPECT_FALSE(CheckScan(swapped, 40, 10, 100, Key));
  EXPECT_FALSE(CheckScan(Keys(40, 11), 40, 10, 100, Key));
  // A result starting before the asked-for key.
  EXPECT_FALSE(CheckScan(Keys(39, 10), 40, 10, 100, Key));
}

TEST(CheckScan, RangeCrossingThePreloadEnd) {
  // Records 95..99 are preloaded; 100.. are concurrent inserts, of which
  // any increasing subset may be visible.
  EXPECT_TRUE(CheckScan(Keys(95, 5), 95, 10, 100, Key));
  std::vector<std::string> with_inserts = Keys(95, 5);
  with_inserts.push_back(Key(101));
  with_inserts.push_back(Key(104));
  EXPECT_TRUE(CheckScan(with_inserts, 95, 10, 100, Key));
  EXPECT_FALSE(CheckScan(Keys(96, 4), 95, 10, 100, Key));
}

TEST(CheckScan, RangeOfInsertsOnly) {
  EXPECT_TRUE(CheckScan({}, 120, 5, 100, Key));
  EXPECT_TRUE(CheckScan({Key(121), Key(130)}, 120, 5, 100, Key));
  EXPECT_FALSE(CheckScan({Key(119)}, 120, 5, 100, Key));
  EXPECT_FALSE(CheckScan({Key(130), Key(121)}, 120, 5, 100, Key));
}

}  // namespace
}  // namespace ledgerbench
