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

TEST(WindowAggTest, LateTupleLeavesNonEmptyWindowOnArrival) {
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::TimeSliding(10),
      std::vector<AggSpec>{{AggKind::kCount, -1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);
  wa->Push(Element(T(100, 1)));
  wa->Push(Element(T(80, 1)));  // Outside (90, 100]: never counted.
  ASSERT_EQ(sink->count(), 2u);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 1);
  EXPECT_EQ(sink->tuples()[1]->at(1).AsInt(), 1);
}

TEST(WindowAggTest, InWindowDisorderExpiresByTimestamp) {
  // 95 arrives after 100, inside (90, 100]; 106 moves the window to
  // (96, 106], which holds 100 and 106 only.
  Plan plan;
  auto* wa = plan.Make<WindowAggregateOp>(
      WindowSpec::TimeSliding(10),
      std::vector<AggSpec>{{AggKind::kCount, -1, 0.5}});
  auto* sink = plan.Make<CollectorSink>();
  wa->SetOutput(sink);
  for (int64_t ts : {100, 95, 106}) wa->Push(Element(T(ts, 1)));
  ASSERT_EQ(sink->count(), 3u);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 1);
  EXPECT_EQ(sink->tuples()[1]->at(1).AsInt(), 2);
  EXPECT_EQ(sink->tuples()[2]->at(1).AsInt(), 2);
  // 95 landed before the tail once: one refold.
  EXPECT_EQ(wa->recompute_count(), 1u);
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
  // (ts, value) in window order: ts order, stable, for a time window.
  std::deque<std::pair<int64_t, Value>> win;
  int64_t now = INT64_MIN;  // A time window's clock.
  auto expire = [&](int64_t ts) {
    now = std::max(now, ts);
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
  Rng jitter(seed + 2);
  int64_t ts = 0;
  for (int i = 0; i < 400; ++i) {
    ts += static_cast<int64_t>(rng.Uniform(4));
    const int64_t at = sliding_oracle::JitterTs(shape, ts, spec.size, jitter);
    Value v = values.Next();
    wa->Push(Element(TV(at, v)));
    auto pos = win.end();
    while (by_time && pos != win.begin() && std::prev(pos)->first > at) --pos;
    win.emplace(pos, at, v);
    expire(at);
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
      // Only aggregates that cannot evict, and a time window's
      // out-of-order arrivals, ever replay the buffer.
      const bool disordered =
          shape == Shape::kDisordered && spec.kind == WindowKind::kTimeSliding;
      if (Evicts(kind) && !disordered) {
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

// --- Checkpoints ---

std::vector<AggSpec> EveryKind(bool sketches) {
  std::vector<AggSpec> specs;
  for (int k = 0; k <= static_cast<int>(AggKind::kApproxCountDistinct); ++k) {
    const auto kind = static_cast<AggKind>(k);
    const bool sketch = kind == AggKind::kApproxMedian ||
                        kind == AggKind::kApproxCountDistinct;
    if (sketches || !sketch) specs.push_back({kind, 1, 0.3});
  }
  return specs;
}

struct CkptCase {
  const char* name;
  WindowSpec spec;
  std::vector<AggSpec> aggs;
  int partition_col;
};

std::vector<CkptCase> CkptCases() {
  return {
      {"time", WindowSpec::TimeSliding(30), EveryKind(true), -1},
      {"count", WindowSpec::CountSliding(7), EveryKind(true), -1},
      {"landmark", WindowSpec::Landmark(10), EveryKind(false), -1},
      {"partitioned", WindowSpec::CountSliding(4), EveryKind(true), 2},
  };
}

// Double values whose running sums round differently once values leave
// them, slightly disordered timestamps, and a watermark every 40 tuples.
std::vector<Element> CkptInput() {
  Rng rng(51);
  std::vector<Element> input;
  for (int64_t i = 0; i < 500; ++i) {
    const int64_t ts = i + static_cast<int64_t>(rng.Uniform(3));
    const double v = 1e8 + 0.1 * static_cast<double>(rng.Uniform(1000));
    input.emplace_back(MakeTuple(
        ts, {Value(ts), Value(v), Value(static_cast<int64_t>(i % 5))}));
    if (i % 40 == 39) input.emplace_back(Punctuation::Watermark(i + 5));
  }
  return input;
}

TEST(WindowAggTest, RestoredWindowContinuesRowForRow) {
  const std::vector<Element> input = CkptInput();
  for (const CkptCase& c : CkptCases()) {
    SCOPED_TRACE(c.name);
    Plan ref_plan;
    auto* ref = ref_plan.Make<WindowAggregateOp>(c.spec, c.aggs, "ref",
                                                 c.partition_col);
    auto* ref_sink = ref_plan.Make<CollectorSink>();
    ref->SetOutput(ref_sink);
    for (const Element& e : input) ref->Push(e);

    for (size_t split : {size_t{0}, size_t{1}, size_t{123}, size_t{300},
                         input.size()}) {
      SCOPED_TRACE(split);
      Plan plan;
      auto* before = plan.Make<WindowAggregateOp>(c.spec, c.aggs, "before",
                                                  c.partition_col);
      auto* after = plan.Make<WindowAggregateOp>(c.spec, c.aggs, "after",
                                                 c.partition_col);
      auto* sink = plan.Make<CollectorSink>();
      before->SetOutput(sink);
      after->SetOutput(sink);
      for (size_t i = 0; i < split; ++i) before->Push(input[i]);
      dur::BufWriter w;
      before->SaveState(w);
      const size_t emitted = sink->count();
      dur::BufReader r(w.data());
      Status st = after->RestoreState(r);
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_TRUE(r.done());
      EXPECT_EQ(sink->count(), emitted);  // Restore emits nothing.
      EXPECT_EQ(after->num_partitions(), before->num_partitions());
      for (size_t i = split; i < input.size(); ++i) after->Push(input[i]);
      ASSERT_EQ(sink->count(), ref_sink->count());
      for (size_t i = 0; i < sink->count(); ++i) {
        // Exact equality: a double sum continues bit for bit.
        ASSERT_EQ(*sink->tuples()[i], *ref_sink->tuples()[i]) << "row " << i;
      }
    }
  }
}

TEST(WindowAggTest, CheckpointRulesAndHostileState) {
  // A landmark window keeps no tuples, so it restores every kind,
  // sketches included, from the saved accumulators alone.
  const std::vector<Element> input = CkptInput();
  {
    Plan plan;
    const WindowSpec spec = WindowSpec::Landmark(0);
    auto* ref = plan.Make<WindowAggregateOp>(spec, EveryKind(true), "ref");
    auto* before = plan.Make<WindowAggregateOp>(spec, EveryKind(true), "a");
    auto* after = plan.Make<WindowAggregateOp>(spec, EveryKind(true), "b");
    auto* ref_sink = plan.Make<CollectorSink>();
    auto* sink = plan.Make<CollectorSink>();
    ref->SetOutput(ref_sink);
    before->SetOutput(sink);
    after->SetOutput(sink);
    for (size_t i = 0; i < input.size(); ++i) {
      ref->Push(input[i]);
      if (i < 60) before->Push(input[i]);
    }
    dur::BufWriter w;
    before->SaveState(w);
    dur::BufReader r(w.data());
    ASSERT_TRUE(after->RestoreState(r).ok());
    for (size_t i = 60; i < input.size(); ++i) after->Push(input[i]);
    ASSERT_EQ(sink->count(), ref_sink->count());
    for (size_t i = 0; i < sink->count(); ++i) {
      ASSERT_EQ(*sink->tuples()[i], *ref_sink->tuples()[i]) << "row " << i;
    }
  }
  for (const CkptCase& c : CkptCases()) {
    SCOPED_TRACE(c.name);
    WindowAggregateOp src(c.spec, c.aggs, "src", c.partition_col);
    for (size_t i = 0; i < 60; ++i) src.Push(input[i]);
    dur::BufWriter w;
    src.SaveState(w);
    const std::string saved = w.Take();
    for (size_t n = 0; n < saved.size(); ++n) {
      WindowAggregateOp cut(c.spec, c.aggs, "cut", c.partition_col);
      dur::BufReader r(std::string_view(saved).substr(0, n));
      ASSERT_FALSE(cut.RestoreState(r).ok()) << n;
    }
  }
  // Partitions keyed by another column: every tuple is in the wrong one.
  WindowAggregateOp by_key(WindowSpec::CountSliding(4), EveryKind(true),
                           "by-key", 2);
  for (size_t i = 0; i < 60; ++i) by_key.Push(input[i]);
  dur::BufWriter w;
  by_key.SaveState(w);
  WindowAggregateOp by_ts(WindowSpec::CountSliding(4), EveryKind(true),
                          "by-ts", 0);
  dur::BufReader r(w.data());
  EXPECT_FALSE(by_ts.RestoreState(r).ok());

  // An unsaved accumulator on a landmark window has no tuples to refold
  // from; a saved flag other than 0 or 1 is no flag.
  const std::vector<AggSpec> count = {{AggKind::kCount, -1, 0.5}};
  const WindowSpec landmark_spec = WindowSpec::Landmark(0);
  dur::BufWriter unsaved;
  WindowBuffer(landmark_spec, /*keep_log=*/false).Save(unsaved);
  unsaved.U32(1);
  unsaved.U8(static_cast<uint8_t>(AggKind::kCount));
  unsaved.U8(0);
  WindowAggregateOp landmark_count(landmark_spec, count);
  dur::BufReader unsaved_in(unsaved.data());
  EXPECT_FALSE(landmark_count.RestoreState(unsaved_in).ok());

  const WindowSpec time_spec = WindowSpec::TimeSliding(5);
  WindowAggregateOp time_count(time_spec, count);
  dur::BufWriter good;
  time_count.SaveState(good);
  std::string bad_flag = good.Take();
  dur::BufWriter buffer;
  WindowBuffer(time_spec).Save(buffer);
  const size_t flag_at = buffer.size() + 4 + 1;  // Count, then kind.
  ASSERT_LT(flag_at, bad_flag.size());
  ASSERT_EQ(bad_flag[flag_at], 1);
  dur::BufReader good_in(bad_flag);
  EXPECT_TRUE(time_count.RestoreState(good_in).ok());
  bad_flag[flag_at] = 2;
  dur::BufReader bad_in(bad_flag);
  EXPECT_FALSE(time_count.RestoreState(bad_in).ok());
}

}  // namespace
}  // namespace sqp
