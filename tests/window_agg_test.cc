#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "common/rng.h"
#include "cql/planner.h"
#include "exec/plan.h"
#include "exec/window_agg.h"
#include "sliding_oracle.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t val) {
  return MakeTuple(ts, {Value(ts), Value(val)});
}

TEST(WindowAggTest, TimeSlidingSum) {
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::TimeSliding(10),
      std::vector<AggSpec>{{AggKind::kSum, 1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);

  wa->Push(Element(T(1, 5)));
  wa->Push(Element(T(5, 3)));
  wa->Push(Element(T(12, 2)));  // ts=1 expired (1 <= 12-10).
  ASSERT_EQ(sink->count(), 3u);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 5);
  EXPECT_EQ(sink->tuples()[1]->at(1).AsInt(), 8);
  EXPECT_EQ(sink->tuples()[2]->at(1).AsInt(), 5);  // 3 + 2.
}

TEST(WindowAggTest, CountSlidingAvg) {
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::CountSliding(2),
      std::vector<AggSpec>{{AggKind::kAvg, 1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);
  for (int64_t v : {2, 4, 6, 8}) wa->Push(Element(T(v, v)));
  ASSERT_EQ(sink->count(), 4u);
  EXPECT_DOUBLE_EQ(sink->tuples()[1]->at(1).AsDouble(), 3.0);  // (2+4)/2.
  EXPECT_DOUBLE_EQ(sink->tuples()[3]->at(1).AsDouble(), 7.0);  // (6+8)/2.
}

TEST(WindowAggTest, LandmarkNeverExpires) {
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::Landmark(0),
      std::vector<AggSpec>{{AggKind::kCount, -1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);
  for (int64_t t = 1; t <= 100; ++t) wa->Push(Element(T(t * 1000, 1)));
  EXPECT_EQ(sink->tuples().back()->at(1).AsInt(), 100);
}

TEST(WindowAggTest, LandmarkStartExcludesEarlier) {
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::Landmark(50),
      std::vector<AggSpec>{{AggKind::kCount, -1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);
  wa->Push(Element(T(10, 1)));  // Before landmark: excluded.
  wa->Push(Element(T(60, 1)));
  EXPECT_EQ(sink->tuples().back()->at(1).AsInt(), 1);
}

// A landmark window never evicts, so min over rising input, max over
// falling input and first must keep O(1) state, not a log of every value.
TEST(WindowAggTest, LandmarkStateStaysConstant) {
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::Landmark(0),
      std::vector<AggSpec>{{AggKind::kMin, 1, 0.5},
                           {AggKind::kMax, 2, 0.5},
                           {AggKind::kFirst, 1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);
  auto row = [](int64_t v) {
    return Element(MakeTuple(v, {Value(v), Value(v), Value(-v)}));
  };
  wa->Push(row(1));
  const size_t initial = wa->StateBytes();
  for (int64_t v = 2; v <= 100000; ++v) wa->Push(row(v));
  EXPECT_EQ(wa->StateBytes(), initial);
  const TupleRef& last = sink->tuples().back();
  EXPECT_EQ(last->at(1), Value(int64_t{1}));
  EXPECT_EQ(last->at(2), Value(int64_t{-1}));
  EXPECT_EQ(last->at(3), Value(int64_t{1}));
  EXPECT_EQ(wa->recompute_count(), 0u);
}

TEST(WindowAggTest, NonInvertibleTriggersRecompute) {
  // Max evicts through its monotonic deque: no replay.
  {
    Plan plan;
    auto* wa = plan.Make<WindowAggregateOp>(
        WindowSpec::TimeSliding(5),
        std::vector<AggSpec>{{AggKind::kMax, 1, 0.5}});
    auto* sink = plan.Make<CollectorSink>();
    wa->SetOutput(sink);
    wa->Push(Element(T(1, 100)));
    wa->Push(Element(T(2, 50)));
    wa->Push(Element(T(10, 30)));  // Max 100 leaves the window.
    EXPECT_EQ(wa->recompute_count(), 0u);
    EXPECT_EQ(sink->tuples().back()->at(1).AsInt(), 30);
  }
  // Blend cannot evict: expiry replays the buffer.
  {
    Plan plan;
    auto* wa = plan.Make<WindowAggregateOp>(
        WindowSpec::TimeSliding(5),
        std::vector<AggSpec>{{AggKind::kBlend, 1, 0.5}});
    auto* sink = plan.Make<CollectorSink>();
    wa->SetOutput(sink);
    wa->Push(Element(T(1, 100)));
    wa->Push(Element(T(2, 50)));
    wa->Push(Element(T(10, 30)));  // Only 30 is left to blend.
    EXPECT_GE(wa->recompute_count(), 1u);
    EXPECT_DOUBLE_EQ(sink->tuples().back()->at(1).AsDouble(), 30.0);
  }
}

TEST(WindowAggTest, PunctuationAdvancesTime) {
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::TimeSliding(10),
      std::vector<AggSpec>{{AggKind::kSum, 1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);
  wa->Push(Element(T(1, 5)));
  wa->Push(Element(Punctuation::Watermark(100)));  // Expires everything.
  // The punctuation-triggered output reflects the empty window.
  ASSERT_GE(sink->count(), 2u);
  EXPECT_TRUE(sink->tuples().back()->at(1).is_null());  // Empty-window sum.
}

TEST(WindowAggTest, LateTupleExpiresOnArrival) {
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::TimeSliding(10),
      std::vector<AggSpec>{{AggKind::kMax, 1, 0.5},
                           {AggKind::kSum, 1, 0.5},
                           {AggKind::kFirst, 1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);
  wa->Push(Element(T(100, 3)));
  wa->Push(Element(Punctuation::Watermark(200)));  // Window now empty.
  wa->Push(Element(T(50, 999)));  // Already outside (190, 200].
  for (size_t col = 1; col <= 3; ++col) {
    EXPECT_TRUE(sink->tuples().back()->at(col).is_null()) << col;
  }
  wa->Push(Element(T(205, 7)));
  for (size_t col = 1; col <= 3; ++col) {
    EXPECT_EQ(sink->tuples().back()->at(col), Value(int64_t{7})) << col;
  }
  EXPECT_EQ(wa->recompute_count(), 0u);
}

// --- Property: every emission equals a fresh NewAccumulator() fold over
// the window's current contents ---

using sliding_oracle::Evicts;
using sliding_oracle::ExpectSameResult;
using sliding_oracle::FreshFold;
using sliding_oracle::Shape;

TupleRef TV(int64_t ts, Value v) { return MakeTuple(ts, {Value(ts), v}); }

// Drives a WindowAggregateOp built in `plan` over 400 generated tuples,
// with a watermark that jumps time forward after every 9th, and checks
// each emitted row against a fresh fold of the window the oracle keeps
// beside it. Returns the operator for its recompute count.
WindowAggregateOp* RunAgainstOracle(Plan& plan,
                                    const std::vector<AggKind>& kinds,
                                    WindowSpec spec, Shape shape,
                                    uint64_t seed) {
  std::vector<AggSpec> specs;
  for (AggKind k : kinds) specs.push_back({k, 1, 0.5});
  auto* wa = plan.Make<WindowAggregateOp>(spec, specs);
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);

  const bool by_time = spec.kind == WindowKind::kTimeSliding;
  std::deque<std::pair<int64_t, Value>> win;  // (ts, value), arrival order
  auto expire = [&](int64_t now) {
    bool any = false;
    while (by_time && !win.empty() && win.front().first <= now - spec.size) {
      win.pop_front();
      any = true;
    }
    return any;
  };
  auto check_row = [&](const std::string& where) {
    const TupleRef& row = sink->tuples().back();
    std::vector<Value> held;
    for (const auto& [ts, v] : win) held.push_back(v);
    for (size_t a = 0; a < kinds.size(); ++a) {
      ExpectSameResult(row->at(1 + a), FreshFold(kinds[a], held),
                       where + " agg=" + AggKindName(kinds[a]));
    }
  };

  sliding_oracle::ValueSource values(shape, seed);
  Rng rng(seed + 1);
  int64_t ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += static_cast<int64_t>(rng.Uniform(4));
    Value v = values.Next();
    wa->Push(Element(TV(ts, v)));
    win.emplace_back(ts, v);
    expire(ts);
    if (!by_time && win.size() > static_cast<size_t>(spec.size)) {
      win.pop_front();
    }
    check_row("i=" + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return wa;

    if (i % 9 == 8) {
      // Expiry through the watermark (AdvanceTo) branch: a row is
      // emitted exactly when the window lost a tuple.
      ts += 1 + static_cast<int64_t>(
                    rng.Uniform(static_cast<uint64_t>(spec.size)));
      const size_t before = sink->count();
      wa->Push(Element(Punctuation::Watermark(ts)));
      const bool expired = expire(ts);
      EXPECT_EQ(sink->count(), before + (expired ? 1 : 0)) << "i=" << i;
      if (expired) check_row("watermark i=" + std::to_string(i));
      if (::testing::Test::HasFailure()) return wa;
    }
  }
  return wa;
}

class SlidingEquivalenceTest
    : public ::testing::TestWithParam<std::pair<AggKind, int64_t>> {};

TEST_P(SlidingEquivalenceTest, MatchesBruteForce) {
  auto [kind, window] = GetParam();
  for (Shape shape : sliding_oracle::kShapes) {
    for (WindowSpec spec :
         {WindowSpec::TimeSliding(window), WindowSpec::CountSliding(window)}) {
      SCOPED_TRACE(std::string(sliding_oracle::ShapeName(shape)) +
                   (spec.kind == WindowKind::kTimeSliding ? " range" : " rows"));
      Plan plan;
      WindowAggregateOp* wa = RunAgainstOracle(plan, {kind}, spec, shape, 21);
      if (HasFailure()) return;
      // Only aggregates that cannot evict ever replay the buffer.
      if (Evicts(kind)) {
        EXPECT_EQ(wa->recompute_count(), 0u);
      } else {
        EXPECT_GT(wa->recompute_count(), 0u);
      }
    }
  }
}

std::string KindWindowName(
    const ::testing::TestParamInfo<std::pair<AggKind, int64_t>>& info) {
  return std::string(AggKindName(info.param.first)) + "_w" +
         std::to_string(info.param.second);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndWindows, SlidingEquivalenceTest,
    ::testing::Values(std::make_pair(AggKind::kSum, int64_t{10}),
                      std::make_pair(AggKind::kSum, int64_t{50}),
                      std::make_pair(AggKind::kMax, int64_t{10}),
                      std::make_pair(AggKind::kMax, int64_t{50}),
                      std::make_pair(AggKind::kAvg, int64_t{25})),
    KindWindowName);

std::vector<std::pair<AggKind, int64_t>> ExactKindCases() {
  std::vector<std::pair<AggKind, int64_t>> cases;
  for (AggKind kind : sliding_oracle::kExactKinds) {
    for (int64_t window : {3, 20}) cases.emplace_back(kind, window);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ExactKinds, SlidingEquivalenceTest,
                         ::testing::ValuesIn(ExactKindCases()),
                         KindWindowName);

INSTANTIATE_TEST_SUITE_P(
    ReplayedKinds, SlidingEquivalenceTest,
    ::testing::Values(std::make_pair(AggKind::kBlend, int64_t{5}),
                      std::make_pair(AggKind::kApproxMedian, int64_t{5}),
                      std::make_pair(AggKind::kApproxCountDistinct,
                                     int64_t{5})),
    KindWindowName);

// One operator mixing aggregates that evict with one that replays
// (blend): every column stays exact across the partial rebuilds.
TEST(WindowAggTest, MixedAggregatesReplayOnlyWhatCannotEvict) {
  for (WindowSpec spec :
       {WindowSpec::TimeSliding(7), WindowSpec::CountSliding(4)}) {
    Plan plan;
    WindowAggregateOp* wa =
        RunAgainstOracle(plan,
                         {AggKind::kAvg, AggKind::kMax, AggKind::kBlend,
                          AggKind::kCountDistinct, AggKind::kMedian},
                         spec, Shape::kTies, 5);
    if (HasFailure()) return;
    EXPECT_GT(wa->recompute_count(), 0u);
  }
}

// --- An oracle independent of the library: the compiled E10 slide query
// against a brute-force scan of the generated packets ---

TEST(WindowAggOracleTest, CompiledSlideMatchesBruteForce) {
  cql::Catalog cat;
  ASSERT_TRUE(cat.Register("packets", gen::PacketSchema()).ok());
  auto cq =
      cql::Compile("select avg(len), max(len) from packets [range 60]", cat);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  CollectorSink sink;
  (*cq)->AttachSink(&sink);

  gen::PacketOptions opt;
  opt.seed = 3;
  gen::PacketGenerator packets(opt);
  std::vector<std::pair<int64_t, int64_t>> seen;  // (ts, len)
  size_t checked = 0;
  for (int i = 1; i <= 4000; ++i) {
    TupleRef p = packets.Next();
    const int64_t ts = p->ts();
    seen.emplace_back(ts, p->at(gen::PacketCols::kLen).AsInt());
    (*cq)->Push(Element(p));
    if (i % 1024 == 0) (*cq)->Push(Element(Punctuation::Watermark(ts)));
    ASSERT_EQ(sink.count(), checked + 1) << "i=" << i;

    // Everything pushed so far with ts in (ts - 60, ts].
    double sum = 0;
    int64_t max = INT64_MIN;
    int64_t n = 0;
    for (auto it = seen.rbegin(); it != seen.rend() && it->first > ts - 60;
         ++it) {
      sum += static_cast<double>(it->second);
      max = std::max(max, it->second);
      ++n;
    }
    const TupleRef& row = sink.tuples()[checked++];
    ASSERT_EQ(row->ts(), ts);
    ASSERT_NEAR(row->at(0).AsDouble(), sum / static_cast<double>(n), 1e-9)
        << "i=" << i;
    ASSERT_EQ(row->at(1).AsInt(), max) << "i=" << i;
  }
  (*cq)->Finish();
  EXPECT_EQ(checked, 4000u);
}

}  // namespace
}  // namespace sqp
