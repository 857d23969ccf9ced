#include <gtest/gtest.h>

#include "stream/arrival.h"
#include "stream/element.h"

namespace sqp {
namespace {

// --- Element / Punctuation ---

TEST(ElementTest, TupleElement) {
  Element e(MakeTuple(3, {Value(int64_t{1})}));
  EXPECT_TRUE(e.is_tuple());
  EXPECT_FALSE(e.is_punctuation());
  EXPECT_EQ(e.ts(), 3);
}

TEST(ElementTest, PunctuationElement) {
  Element e(Punctuation::Watermark(9));
  EXPECT_TRUE(e.is_punctuation());
  EXPECT_EQ(e.ts(), 9);
  EXPECT_FALSE(e.punctuation().has_key);
}

TEST(ElementTest, KeyPunctuation) {
  Element e(Punctuation::CloseKey(5, Value(int64_t{17})));
  ASSERT_TRUE(e.is_punctuation());
  EXPECT_TRUE(e.punctuation().has_key);
  EXPECT_EQ(e.punctuation().key.AsInt(), 17);
  EXPECT_EQ(e.ToString(), "punct(ts<=5, key=17)");
}

// --- Arrival processes ---

TEST(ArrivalTest, UniformExactRate) {
  UniformArrival a(2.0);
  uint64_t total = 0;
  for (int t = 0; t < 100; ++t) total += a.ArrivalsAt(t);
  EXPECT_EQ(total, 200u);
  EXPECT_DOUBLE_EQ(a.MeanRate(), 2.0);
}

TEST(ArrivalTest, UniformFractionalRateAccumulates) {
  UniformArrival a(0.5);
  uint64_t total = 0;
  for (int t = 0; t < 100; ++t) total += a.ArrivalsAt(t);
  EXPECT_EQ(total, 50u);
}

TEST(ArrivalTest, PoissonMeanRate) {
  PoissonArrival a(3.0, 42);
  uint64_t total = 0;
  const int ticks = 20000;
  for (int t = 0; t < ticks; ++t) total += a.ArrivalsAt(t);
  EXPECT_NEAR(static_cast<double>(total) / ticks, 3.0, 0.1);
}

TEST(ArrivalTest, BurstyLongRunRate) {
  BurstyArrival a(4.0, 10.0, 30.0, 7);
  uint64_t total = 0;
  const int ticks = 40000;
  for (int t = 0; t < ticks; ++t) total += a.ArrivalsAt(t);
  // Mean = on_rate * on/(on+off) = 4 * 10/40 = 1.0.
  EXPECT_NEAR(a.MeanRate(), 1.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(total) / ticks, 1.0, 0.15);
}

TEST(ArrivalTest, ScheduledReplaysExactly) {
  ScheduledArrival a({1, 0, 2, 0, 3});
  EXPECT_EQ(a.ArrivalsAt(0), 1u);
  EXPECT_EQ(a.ArrivalsAt(1), 0u);
  EXPECT_EQ(a.ArrivalsAt(2), 2u);
  EXPECT_EQ(a.ArrivalsAt(4), 3u);
  EXPECT_EQ(a.ArrivalsAt(5), 0u);
  EXPECT_EQ(a.ArrivalsAt(-1), 0u);
  EXPECT_DOUBLE_EQ(a.MeanRate(), 6.0 / 5.0);
}

}  // namespace
}  // namespace sqp
