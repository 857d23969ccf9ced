#include "bench_math.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

std::vector<uint64_t> OneTo(uint64_t n) {
  std::vector<uint64_t> v(n);
  std::iota(v.begin(), v.end(), 1);
  return v;
}

TEST(PercentileTest, NearestRank) {
  const std::vector<uint64_t> v = OneTo(100);
  EXPECT_EQ(Percentile(v, 50), 50u);
  EXPECT_EQ(Percentile(v, 99), 99u);
  EXPECT_EQ(Percentile(v, 100), 100u);
  EXPECT_EQ(Percentile(v, 0.1), 1u);
  EXPECT_EQ(Percentile(OneTo(1000), 99.9), 999u);
  EXPECT_EQ(Percentile({7}, 99), 7u);
  EXPECT_EQ(Percentile({}, 50), 0u);
}

TEST(PercentileTest, HighestSupportedLeavesTenBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(0), 0.0);
  EXPECT_EQ(HighestSupportedPercentile(19), 0.0);  // Median rank 10, 9 beyond.
  EXPECT_EQ(HighestSupportedPercentile(20), 50.0);
  EXPECT_EQ(HighestSupportedPercentile(100), 90.0);  // p99: 1 beyond.
  EXPECT_EQ(HighestSupportedPercentile(999), 90.0);
  EXPECT_EQ(HighestSupportedPercentile(1000), 99.0);  // Rank 990, 10 beyond.
  EXPECT_EQ(HighestSupportedPercentile(9999), 99.0);
  EXPECT_EQ(HighestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(HighestSupportedPercentile(100000000), 99.999);
  // The choice really leaves ten samples beyond the selected rank.
  for (size_t n : {20u, 137u, 1000u, 5555u, 123456u}) {
    const double p = HighestSupportedPercentile(n);
    const std::vector<uint64_t> v = OneTo(n);
    EXPECT_GE(n - Percentile(v, p), 10u) << n;
  }
}

TEST(QuantileTest, NearestRankOfUnsorted) {
  EXPECT_EQ(Quantile({}, 0.1), 0.0);
  EXPECT_EQ(Quantile({4}, 0.1), 4.0);
  EXPECT_EQ(Quantile({4}, 0.9), 4.0);
  // Twenty values 20, 19, ..., 1: the tenths are the 2nd and 18th smallest.
  std::vector<double> v;
  for (int i = 20; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(Quantile(v, 0.1), 2.0);
  EXPECT_EQ(Quantile(v, 0.9), 18.0);
  EXPECT_EQ(Quantile(v, 0.5), 10.0);
  EXPECT_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_EQ(Quantile(v, 1.0), 20.0);
  // Too few values for a tenth: the extreme one.
  EXPECT_EQ(Quantile({3, 1, 2}, 0.1), 1.0);
  EXPECT_EQ(Quantile({3, 1, 2}, 0.9), 3.0);
}

TEST(SelfTimeTest, ChildrenAreSubtractedOnce) {
  std::vector<Span> s = {
      {0, 0, 100, -1, 1},   // Root.
      {1, 10, 30, 0, 1},    // Child.
      {1, 20, 40, 0, 1},    // Overlaps the first child: union is 10..40.
      {2, 25, 35, 1, 1},    // Grandchild: only its parent pays for it.
      {1, 90, 150, 0, 1},   // Runs past the root: only 90..100 counts.
      {3, 200, 260, -1, 2}  // Another root with no children.
  };
  const std::vector<uint64_t> self = SelfTimes(s);
  EXPECT_EQ(self[0], 100u - 30u - 10u);
  EXPECT_EQ(self[1], 20u - 5u);  // The grandchild is clipped at 30.
  EXPECT_EQ(self[2], 20u);
  EXPECT_EQ(self[3], 10u);
  EXPECT_EQ(self[4], 60u);
  EXPECT_EQ(self[5], 60u);
}

TEST(SelfTimeTest, DisjointChildrenAndEmpty) {
  EXPECT_TRUE(SelfTimes({}).empty());
  std::vector<Span> s = {
      {0, 0, 50, -1, 0}, {1, 0, 10, 0, 0}, {1, 40, 50, 0, 0}};
  EXPECT_EQ(SelfTimes(s)[0], 30u);
}

uint64_t Row(int64_t a, const char* b) {
  RowHasher h;
  h.AddInt(a);
  h.AddString(b);
  return h.Finish();
}

TEST(MultisetTest, OrderInsensitiveButCountsDuplicates) {
  Multiset x, y;
  for (int i = 0; i < 100; ++i) x.Add(Row(i, "a"));
  for (int i = 99; i >= 0; --i) y.Add(Row(i, "a"));
  EXPECT_EQ(x, y);

  Multiset dup = y;
  dup.Add(Row(5, "a"));
  EXPECT_NE(x, dup);

  Multiset changed;
  for (int i = 0; i < 100; ++i) changed.Add(Row(i, i == 42 ? "b" : "a"));
  EXPECT_NE(x, changed);

  // Swapping one row for another keeps the count but not the sums.
  Multiset swapped;
  for (int i = 0; i < 100; ++i) swapped.Add(Row(i == 7 ? 1000 : i, "a"));
  EXPECT_EQ(swapped.count, x.count);
  EXPECT_NE(x, swapped);
}

TEST(MultisetTest, RowHashIsTypedAndOrdered) {
  RowHasher i, s;
  i.AddInt(1);
  s.AddString("1");
  EXPECT_NE(i.Finish(), s.Finish());

  RowHasher ab, ba;
  ab.AddInt(1), ab.AddInt(2);
  ba.AddInt(2), ba.AddInt(1);
  EXPECT_NE(ab.Finish(), ba.Finish());

  RowHasher d1, d2;
  d1.AddDouble(0.5);
  d2.AddDouble(0.5);
  EXPECT_EQ(d1.Finish(), d2.Finish());
}

}  // namespace
}  // namespace perfbench
