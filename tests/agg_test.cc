#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "agg/aggregate_fn.h"
#include "common/rng.h"
#include "dur/codec.h"
#include "sliding_oracle.h"

namespace sqp {
namespace {

std::unique_ptr<Accumulator> Acc(AggKind kind, double param = 0.5) {
  auto fn = AggregateFunction::Make(kind, param);
  EXPECT_TRUE(fn.ok());
  return fn->NewAccumulator();
}

TEST(AggClassTest, Classification) {
  EXPECT_EQ(ClassOf(AggKind::kSum), AggClass::kDistributive);
  EXPECT_EQ(ClassOf(AggKind::kCount), AggClass::kDistributive);
  EXPECT_EQ(ClassOf(AggKind::kAvg), AggClass::kAlgebraic);
  EXPECT_EQ(ClassOf(AggKind::kMedian), AggClass::kHolistic);
  EXPECT_EQ(ClassOf(AggKind::kCountDistinct), AggClass::kHolistic);
}

TEST(AggParseTest, Names) {
  EXPECT_EQ(*ParseAggKind("sum"), AggKind::kSum);
  EXPECT_EQ(*ParseAggKind("count_distinct"), AggKind::kCountDistinct);
  EXPECT_FALSE(ParseAggKind("bogus").ok());
  EXPECT_STREQ(AggKindName(AggKind::kBlend), "blend");
}

TEST(AccumulatorTest, Count) {
  auto a = Acc(AggKind::kCount);
  EXPECT_EQ(a->Result().AsInt(), 0);
  a->Add(Value(int64_t{5}));
  a->Add(Value("x"));
  EXPECT_EQ(a->Result().AsInt(), 2);
  a->Remove(Value(int64_t{5}));
  EXPECT_EQ(a->Result().AsInt(), 1);
  EXPECT_TRUE(a->invertible());
}

TEST(AccumulatorTest, SumPreservesIntType) {
  auto a = Acc(AggKind::kSum);
  EXPECT_TRUE(a->Result().is_null());
  a->Add(Value(int64_t{2}));
  a->Add(Value(int64_t{3}));
  EXPECT_EQ(a->Result().type(), ValueType::kInt);
  EXPECT_EQ(a->Result().AsInt(), 5);
}

TEST(AccumulatorTest, SumWidensToDouble) {
  auto a = Acc(AggKind::kSum);
  a->Add(Value(int64_t{2}));
  a->Add(Value(0.5));
  EXPECT_EQ(a->Result().type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 2.5);
}

TEST(AccumulatorTest, MinMax) {
  auto mn = Acc(AggKind::kMin);
  auto mx = Acc(AggKind::kMax);
  for (int64_t v : {5, 2, 9, 3}) {
    mn->Add(Value(v));
    mx->Add(Value(v));
  }
  EXPECT_EQ(mn->Result().AsInt(), 2);
  EXPECT_EQ(mx->Result().AsInt(), 9);
  EXPECT_FALSE(mn->invertible());
}

std::unique_ptr<Accumulator> SlidingAcc(AggKind kind, double param = 0.5) {
  auto fn = AggregateFunction::Make(kind, param);
  EXPECT_TRUE(fn.ok());
  return fn->NewSlidingAccumulator();
}

// SQL semantics: NULL never wins a min/max, whatever the arrival order.
TEST(AccumulatorTest, MinMaxIgnoresNull) {
  using Factory = std::unique_ptr<Accumulator> (*)(AggKind, double);
  for (Factory make : {&Acc, &SlidingAcc}) {
    auto mn = make(AggKind::kMin, 0.5);
    mn->Add(Value(int64_t{5}));
    mn->Add(Value::Null());
    EXPECT_EQ(mn->Result(), Value(int64_t{5}));
    mn->Add(Value(int64_t{3}));
    EXPECT_EQ(mn->Result(), Value(int64_t{3}));

    auto mx = make(AggKind::kMax, 0.5);
    mx->Add(Value::Null());
    mx->Add(Value(int64_t{-7}));
    EXPECT_EQ(mx->Result(), Value(int64_t{-7}));

    auto all_null = make(AggKind::kMin, 0.5);
    all_null->Add(Value::Null());
    all_null->Add(Value::Null());
    EXPECT_TRUE(all_null->Result().is_null());
  }
}

// NaN compares equal to every number, so it would break the order a
// min/max relies on; both forms skip it as they skip NULL.
TEST(AccumulatorTest, MinMaxIgnoresNaN) {
  const Value nan(std::nan(""));
  using Factory = std::unique_ptr<Accumulator> (*)(AggKind, double);
  for (Factory make : {&Acc, &SlidingAcc}) {
    auto mx = make(AggKind::kMax, 0.5);
    for (const Value& v : {Value(1.0), nan, Value(5.0)}) mx->Add(v);
    EXPECT_EQ(mx->Result(), Value(5.0));

    auto mn = make(AggKind::kMin, 0.5);
    for (const Value& v : {nan, Value(3.0), nan, Value(2.0)}) mn->Add(v);
    EXPECT_EQ(mn->Result(), Value(2.0));

    auto all_nan = make(AggKind::kMax, 0.5);
    all_nan->Add(nan);
    all_nan->Add(Value::Null());
    EXPECT_TRUE(all_nan->Result().is_null());
  }
}

// Sliding min/max over NaN-heavy doubles with ties, checked against a
// scan of the window that skips NaN and NULL.
TEST(AccumulatorTest, SlidingMinMaxWithNaNMatchesScan) {
  Rng rng(23);
  for (AggKind kind : {AggKind::kMin, AggKind::kMax}) {
    auto acc = SlidingAcc(kind);
    std::deque<Value> held;
    for (int i = 0; i < 2000; ++i) {
      const uint64_t r = rng.Uniform(6);
      held.push_back(r == 0   ? Value(std::nan(""))
                     : r == 1 ? Value::Null()
                              : Value(static_cast<double>(r)));
      acc->Add(held.back());
      if (held.size() > 7) {
        acc->Remove(held.front());
        held.pop_front();
      }
      Value want;
      for (const Value& v : held) {
        if (v.is_null() || std::isnan(v.AsDouble())) continue;
        if (want.is_null() ||
            (kind == AggKind::kMin ? v.AsDouble() < want.AsDouble()
                                   : v.AsDouble() > want.AsDouble())) {
          want = v;
        }
      }
      ASSERT_EQ(acc->Result().is_null(), want.is_null()) << i;
      if (!want.is_null()) {
        ASSERT_EQ(acc->Result().AsDouble(), want.AsDouble()) << i;
      }
    }
  }
}

TEST(AccumulatorTest, MinMaxOrderIndependent) {
  std::vector<Value> vals = {Value(int64_t{5}), Value::Null(),
                             Value(int64_t{3}), Value::Null(),
                             Value(int64_t{9})};
  std::vector<size_t> order = {0, 1, 2, 3, 4};
  do {
    for (bool sliding : {false, true}) {
      auto mn = sliding ? SlidingAcc(AggKind::kMin) : Acc(AggKind::kMin);
      auto mx = sliding ? SlidingAcc(AggKind::kMax) : Acc(AggKind::kMax);
      for (size_t i : order) {
        mn->Add(vals[i]);
        mx->Add(vals[i]);
      }
      EXPECT_EQ(mn->Result(), Value(int64_t{3}));
      EXPECT_EQ(mx->Result(), Value(int64_t{9}));
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(AccumulatorTest, SlidingMinMaxKeepsTies) {
  auto mx = SlidingAcc(AggKind::kMax);
  EXPECT_TRUE(mx->invertible());
  for (int64_t v : {5, 5, 3}) mx->Add(Value(v));
  mx->Remove(Value(int64_t{5}));
  EXPECT_EQ(mx->Result(), Value(int64_t{5}));  // The second 5 is still held.
  mx->Remove(Value(int64_t{5}));
  EXPECT_EQ(mx->Result(), Value(int64_t{3}));
  mx->Remove(Value(int64_t{3}));
  EXPECT_TRUE(mx->Result().is_null());
  // NULLs were never candidates; evicting one changes nothing.
  mx->Add(Value::Null());
  mx->Add(Value(int64_t{1}));
  mx->Remove(Value::Null());
  EXPECT_EQ(mx->Result(), Value(int64_t{1}));
}

// A monotonic run is the deque's worst case for growth: a window of 8
// over a long decreasing run must hold at most 8 candidates.
TEST(AccumulatorTest, SlidingMinMaxStateIsBoundedByWindow) {
  auto mx = SlidingAcc(AggKind::kMax);
  const size_t empty = mx->MemoryBytes();
  EXPECT_LE(empty, 64u);  // One per partition in PartitionedWindowAgg.
  std::deque<int64_t> window;
  for (int64_t v = 100000; v > 0; --v) {
    mx->Add(Value(v));
    window.push_back(v);
    if (window.size() > 8) {
      mx->Remove(Value(window.front()));
      window.pop_front();
    }
  }
  EXPECT_EQ(mx->Result(), Value(int64_t{8}));
  EXPECT_LT(mx->MemoryBytes(), empty + 64 * sizeof(Value));
}

TEST(AccumulatorTest, SlidingFactoryEvictsEveryExactKind) {
  for (AggKind kind : sliding_oracle::kExactKinds) {
    EXPECT_TRUE(SlidingAcc(kind)->invertible()) << AggKindName(kind);
  }
  for (AggKind kind : {AggKind::kBlend, AggKind::kApproxMedian,
                       AggKind::kApproxCountDistinct}) {
    EXPECT_FALSE(SlidingAcc(kind)->invertible()) << AggKindName(kind);
  }
}

// A group-by reuses a closed group's accumulators for the next group, so
// Reset must leave nothing behind: fold A, Reset, fold B must equal a
// fresh accumulator fed B, in result and in checkpoint bytes.
TEST(AccumulatorTest, ResetEqualsFreshForEveryKind) {
  const AggKind kAll[] = {
      AggKind::kCount,  AggKind::kSum,           AggKind::kMin,
      AggKind::kMax,    AggKind::kAvg,           AggKind::kStddev,
      AggKind::kMedian, AggKind::kCountDistinct, AggKind::kFirst,
      AggKind::kLast,   AggKind::kBlend,         AggKind::kApproxMedian,
      AggKind::kApproxCountDistinct};
  std::vector<Value> a, b;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    a.push_back(i % 3 == 0 ? Value(50.0 * rng.NextDouble())
                           : Value(rng.UniformRange(0, 39)));
  }
  for (int i = 0; i < 40; ++i) {
    b.push_back(Value(rng.UniformRange(100, 109)));
  }
  for (AggKind kind : kAll) {
    auto fn = AggregateFunction::Make(kind, 0.5);
    ASSERT_TRUE(fn.ok());
    for (bool sliding : {false, true}) {
      SCOPED_TRACE(std::string(AggKindName(kind)) +
                   (sliding ? " sliding" : ""));
      auto make = [&] {
        return sliding ? fn->NewSlidingAccumulator() : fn->NewAccumulator();
      };
      auto reused = make();
      auto fresh = make();
      for (const Value& v : a) reused->Add(v);
      reused->Reset();
      EXPECT_EQ(reused->count(), 0u);
      EXPECT_EQ(reused->Result(), fresh->Result());
      for (const Value& v : b) {
        reused->Add(v);
        fresh->Add(v);
      }
      EXPECT_EQ(reused->Result(), fresh->Result());
      EXPECT_EQ(reused->count(), fresh->count());
      if (sliding && fresh->invertible()) {
        // FIFO eviction still lines up with what was added since Reset.
        reused->Remove(b[0]);
        fresh->Remove(b[0]);
        EXPECT_EQ(reused->Result(), fresh->Result());
      }
      if (!sliding) {
        dur::BufWriter wr, wf;
        ASSERT_TRUE(reused->SaveState(wr));
        ASSERT_TRUE(fresh->SaveState(wf));
        EXPECT_EQ(wr.data(), wf.data());
      }
    }
  }
}

TEST(AccumulatorTest, AvgAndRemove) {
  auto a = Acc(AggKind::kAvg);
  a->Add(Value(int64_t{2}));
  a->Add(Value(int64_t{4}));
  a->Add(Value(int64_t{9}));
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 5.0);
  a->Remove(Value(int64_t{9}));
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 3.0);
}

TEST(AccumulatorTest, StddevMatchesFormula) {
  auto a = Acc(AggKind::kStddev);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) a->Add(Value(v));
  // Sample stddev of this classic set is ~2.138.
  EXPECT_NEAR(a->Result().AsDouble(), 2.1381, 1e-3);
}

TEST(AccumulatorTest, MedianOddAndEven) {
  auto a = Acc(AggKind::kMedian);
  for (int64_t v : {5, 1, 3}) a->Add(Value(v));
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 3.0);
  a->Add(Value(int64_t{7}));
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 4.0);
}

// Median evicts from the head of its buffer; merge and checkpoint must
// read only what is still held.
TEST(AccumulatorTest, MedianFifoRemoveThenMergeAndCheckpoint) {
  auto a = Acc(AggKind::kMedian);
  EXPECT_TRUE(a->invertible());
  for (int64_t v : {100, 1, 2, 3}) a->Add(Value(v));
  a->Remove(Value(int64_t{100}));
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 2.0);

  auto merged = Acc(AggKind::kMedian);
  merged->Add(Value(int64_t{4}));
  merged->Merge(*a);
  EXPECT_EQ(merged->count(), 4u);
  EXPECT_DOUBLE_EQ(merged->Result().AsDouble(), 2.5);  // {1, 2, 3, 4}.

  dur::BufWriter w;
  ASSERT_TRUE(a->SaveState(w));
  auto loaded = Acc(AggKind::kMedian);
  dur::BufReader r(w.data());
  ASSERT_TRUE(loaded->LoadState(r).ok());
  EXPECT_EQ(loaded->count(), 3u);
  EXPECT_DOUBLE_EQ(loaded->Result().AsDouble(), 2.0);
  loaded->Remove(Value(int64_t{1}));
  EXPECT_DOUBLE_EQ(loaded->Result().AsDouble(), 2.5);  // {2, 3}.
}

TEST(AccumulatorTest, CountDistinct) {
  auto a = Acc(AggKind::kCountDistinct);
  for (int64_t v : {1, 2, 2, 3, 3, 3}) a->Add(Value(v));
  EXPECT_EQ(a->Result().AsInt(), 3);
}

TEST(AccumulatorTest, FirstLast) {
  auto f = Acc(AggKind::kFirst);
  auto l = Acc(AggKind::kLast);
  for (int64_t v : {10, 20, 30}) {
    f->Add(Value(v));
    l->Add(Value(v));
  }
  EXPECT_EQ(f->Result().AsInt(), 10);
  EXPECT_EQ(l->Result().AsInt(), 30);
}

TEST(AccumulatorTest, BlendExponentialSmoothing) {
  auto a = Acc(AggKind::kBlend, 0.5);
  a->Add(Value(10.0));
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 10.0);  // First obs initializes.
  a->Add(Value(20.0));
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 15.0);
  a->Add(Value(15.0));
  EXPECT_DOUBLE_EQ(a->Result().AsDouble(), 15.0);
}

TEST(AccumulatorTest, BlendRejectsBadFactor) {
  EXPECT_FALSE(AggregateFunction::Make(AggKind::kBlend, 0.0).ok());
  EXPECT_FALSE(AggregateFunction::Make(AggKind::kBlend, 1.5).ok());
}

TEST(AccumulatorTest, HolisticMemoryGrows) {
  auto med = Acc(AggKind::kMedian);
  auto sum = Acc(AggKind::kSum);
  size_t med0 = med->MemoryBytes();
  size_t sum0 = sum->MemoryBytes();
  for (int i = 0; i < 10000; ++i) {
    med->Add(Value(static_cast<double>(i)));
    sum->Add(Value(static_cast<double>(i)));
  }
  EXPECT_GT(med->MemoryBytes(), med0 + 10000 * sizeof(double) / 2);
  EXPECT_EQ(sum->MemoryBytes(), sum0);  // Distributive: O(1) state.
}

// --- Merge property: merging partials equals aggregating everything ---
// (the correctness condition for two-level partial aggregation.)

class MergePropertyTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(MergePropertyTest, SplitMergeEqualsWhole) {
  AggKind kind = GetParam();
  Rng rng(11);
  std::vector<double> data;
  for (int i = 0; i < 500; ++i) data.push_back(rng.NextDouble() * 100.0);

  auto whole = Acc(kind);
  for (double v : data) whole->Add(Value(v));

  // Split into 7 chunks, aggregate each, merge.
  auto merged = Acc(kind);
  size_t chunk = data.size() / 7 + 1;
  for (size_t start = 0; start < data.size(); start += chunk) {
    auto part = Acc(kind);
    for (size_t i = start; i < std::min(start + chunk, data.size()); ++i) {
      part->Add(Value(data[i]));
    }
    merged->Merge(*part);
  }

  Value a = whole->Result();
  Value b = merged->Result();
  ASSERT_EQ(a.type(), b.type());
  if (a.type() == ValueType::kDouble) {
    EXPECT_NEAR(a.AsDouble(), b.AsDouble(), 1e-6);
  } else {
    EXPECT_EQ(a, b);
  }
  EXPECT_EQ(whole->count(), merged->count());
}

INSTANTIATE_TEST_SUITE_P(
    AllMergeableKinds, MergePropertyTest,
    ::testing::Values(AggKind::kCount, AggKind::kSum, AggKind::kMin,
                      AggKind::kMax, AggKind::kAvg, AggKind::kStddev,
                      AggKind::kMedian, AggKind::kCountDistinct),
    [](const ::testing::TestParamInfo<AggKind>& info) {
      return AggKindName(info.param);
    });

// --- Remove property: add k, remove j first == aggregate of suffix ---

class RemovePropertyTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(RemovePropertyTest, RemovePrefixEqualsSuffixAggregate) {
  AggKind kind = GetParam();
  Rng rng(13);
  std::vector<double> data;
  for (int i = 0; i < 200; ++i) data.push_back(rng.NextDouble() * 10.0);

  auto acc = Acc(kind);
  for (double v : data) acc->Add(Value(v));
  for (size_t i = 0; i < 50; ++i) acc->Remove(Value(data[i]));

  auto suffix = Acc(kind);
  for (size_t i = 50; i < data.size(); ++i) suffix->Add(Value(data[i]));

  EXPECT_NEAR(acc->Result().ToDouble(), suffix->Result().ToDouble(), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    InvertibleKinds, RemovePropertyTest,
    ::testing::Values(AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                      AggKind::kStddev),
    [](const ::testing::TestParamInfo<AggKind>& info) {
      return AggKindName(info.param);
    });

// --- Sliding property: FIFO eviction == a fresh fold of what is left ---

using sliding_oracle::ExpectSameResult;
using sliding_oracle::FreshFold;

class SlidingAccumulatorTest : public ::testing::TestWithParam<AggKind> {};

TEST_P(SlidingAccumulatorTest, FifoEvictionMatchesFreshFold) {
  const AggKind kind = GetParam();
  for (sliding_oracle::Shape shape : sliding_oracle::kShapes) {
    SCOPED_TRACE(sliding_oracle::ShapeName(shape));
    sliding_oracle::ValueSource values(shape, 17);
    Rng rng(18);
    auto acc = SlidingAcc(kind);
    std::deque<Value> held;
    for (int i = 0; i < 1000; ++i) {
      Value v = values.Next();
      acc->Add(v);
      held.push_back(v);
      // Evict 0-2 of the oldest so the window size wanders.
      for (uint64_t k = rng.Uniform(3); k > 0 && !held.empty(); --k) {
        acc->Remove(held.front());
        held.pop_front();
      }
      ExpectSameResult(acc->Result(), FreshFold(kind, held),
                       "i=" + std::to_string(i));
      if (HasFatalFailure()) return;
    }
    while (!held.empty()) {
      acc->Remove(held.front());
      held.pop_front();
    }
    ExpectSameResult(acc->Result(), FreshFold(kind, held), "drained");
  }
}

INSTANTIATE_TEST_SUITE_P(
    ExactKinds, SlidingAccumulatorTest,
    ::testing::ValuesIn(sliding_oracle::kExactKinds),
    [](const ::testing::TestParamInfo<AggKind>& info) {
      return AggKindName(info.param);
    });

}  // namespace
}  // namespace sqp
