#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>

#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "exec/window_join.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t v) {
  return MakeTuple(ts, {Value(ts), Value(v)});
}

// --- Paned sliding windows (GroupByAggregateOp, TimeSliding(W, S)) ---

GroupByOptions PanedOptions(int64_t window, int64_t slide, AggSpec agg,
                            std::vector<int> key_cols = {}) {
  GroupByOptions opt;
  opt.key_cols = std::move(key_cols);
  opt.aggs = {agg};
  opt.window = WindowSpec::TimeSliding(window, slide);
  return opt;
}

TEST(PanedWindowTest, PaneSizeIsGcd) {
  Plan plan;
  auto* pw = plan.Make<GroupByAggregateOp>(
      PanedOptions(60, 25, {AggKind::kCount, -1, 0.5}));
  EXPECT_EQ(pw->pane_size(), 5);
}

TEST(PanedWindowTest, TumblingSpecialCase) {
  // slide == window: panes degenerate to the window itself.
  Plan plan;
  auto* pw = plan.Make<GroupByAggregateOp>(
      PanedOptions(10, 10, {AggKind::kSum, 1, 0.5}));
  auto* sink = plan.Make<CollectorSink>();
  pw->SetOutput(sink);
  for (int64_t ts : {1, 5, 9, 11, 15, 21}) pw->Push(Element(T(ts, ts)));
  pw->Flush();
  ASSERT_EQ(sink->count(), 3u);
  EXPECT_EQ(sink->tuples()[0]->ts(), 0);  // Window start.
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 15);  // 1+5+9.
  EXPECT_EQ(sink->tuples()[1]->at(1).AsInt(), 26);  // 11+15.
  EXPECT_EQ(sink->tuples()[2]->at(1).AsInt(), 21);
}

TEST(PanedWindowTest, OverlappingWindowsShareWork) {
  Plan plan;
  auto* pw = plan.Make<GroupByAggregateOp>(
      PanedOptions(40, 10, {AggKind::kCount, -1, 0.5}));
  auto* sink = plan.Make<CollectorSink>();
  pw->SetOutput(sink);
  // One tuple per tick for 100 ticks.
  for (int64_t ts = 0; ts < 100; ++ts) pw->Push(Element(T(ts, 1)));
  pw->Flush();
  // Steady state: every window of 40 ticks holds 40 tuples. Rows are
  // stamped with the window start.
  std::map<int64_t, int64_t> rows;
  for (const TupleRef& r : sink->tuples()) rows[r->ts()] = r->at(1).AsInt();
  EXPECT_EQ(rows[0], 40);
  EXPECT_EQ(rows[10], 40);
  EXPECT_EQ(rows[50], 40);
  // Ramp-up windows are partial.
  EXPECT_EQ(rows[-30], 10);
  EXPECT_EQ(rows[-20], 20);
}

// Property: paned output equals a brute-force window scan, for several
// (window, slide) shapes and aggregate kinds, with no key and with one
// key column; and it is complete: every window [b - W, b) at a multiple
// b of S that holds a tuple of a key is emitted exactly once for that
// key, and no empty window is emitted.
struct PanedCase {
  int64_t window, slide;
  AggKind kind;
};

class PanedPropertyTest : public ::testing::TestWithParam<PanedCase> {};

TEST_P(PanedPropertyTest, MatchesBruteForce) {
  auto [window, slide, kind] = GetParam();
  Rng rng(31);
  std::vector<TupleRef> tuples;  // [ts, value, key]
  int64_t ts = 0;
  for (int i = 0; i < 1500; ++i) {
    ts += static_cast<int64_t>(rng.Uniform(3));
    // Occasional gaps longer than any window leave empty windows behind.
    if (rng.Uniform(200) == 0) ts += 3 * window;
    tuples.push_back(MakeTuple(
        ts, {Value(ts), Value(static_cast<int64_t>(rng.Uniform(1000))),
             Value(static_cast<int64_t>(rng.Uniform(4)))}));
  }

  for (bool keyed : {false, true}) {
    SCOPED_TRACE(keyed ? "one key column" : "no key");
    std::vector<int> key_cols;
    if (keyed) key_cols = {2};
    Plan plan;
    auto* pw = plan.Make<GroupByAggregateOp>(
        PanedOptions(window, slide, {kind, 1, 0.5}, key_cols));
    auto* sink = plan.Make<CollectorSink>();
    pw->SetOutput(sink);
    for (const TupleRef& t : tuples) pw->Push(Element(t));
    pw->Flush();

    auto key_of = [&](const Tuple& t) {
      return keyed ? t.at(2).AsInt() : int64_t{0};
    };
    auto brute = [&](int64_t boundary, int64_t key) {
      double sum = 0, mx = -1e18;
      int64_t count = 0;
      for (const TupleRef& t : tuples) {
        if (t->ts() >= boundary - window && t->ts() < boundary &&
            key_of(*t) == key) {
          sum += t->at(1).ToDouble();
          mx = std::max(mx, t->at(1).ToDouble());
          ++count;
        }
      }
      switch (kind) {
        case AggKind::kSum:
          return sum;
        case AggKind::kMax:
          return mx;
        default:
          return static_cast<double>(count);
      }
    };
    // Every (window end, key) that holds at least one tuple.
    std::set<std::pair<int64_t, int64_t>> expected;
    for (const TupleRef& t : tuples) {
      for (int64_t b = (t->ts() / slide + 1) * slide; b <= t->ts() + window;
           b += slide) {
        expected.insert({b, key_of(*t)});
      }
    }

    ASSERT_GT(sink->count(), 10u);
    const size_t agg_col = keyed ? 2 : 1;
    std::set<std::pair<int64_t, int64_t>> emitted;
    for (const TupleRef& r : sink->tuples()) {
      int64_t boundary = r->ts() + window;  // Rows carry the window start.
      int64_t key = keyed ? r->at(1).AsInt() : 0;
      EXPECT_TRUE(emitted.insert({boundary, key}).second)
          << "window ending " << boundary << " emitted twice";
      double expect = brute(boundary, key);
      EXPECT_NEAR(r->at(agg_col).ToDouble(), expect, 1e-9)
          << "boundary " << boundary << " w=" << window << " s=" << slide;
    }
    EXPECT_EQ(emitted, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PanedPropertyTest,
    ::testing::Values(PanedCase{60, 10, AggKind::kCount},
                      PanedCase{60, 10, AggKind::kSum},
                      PanedCase{60, 10, AggKind::kMax},
                      PanedCase{50, 15, AggKind::kSum},
                      PanedCase{64, 64, AggKind::kSum},
                      PanedCase{100, 7, AggKind::kMax}),
    [](const auto& info) {
      return std::string(AggKindName(info.param.kind)) + "_w" +
             std::to_string(info.param.window) + "_s" +
             std::to_string(info.param.slide);
    });

TEST(PanedWindowTest, WatermarkClosesWindowsItPasses) {
  Plan plan;
  auto* pw = plan.Make<GroupByAggregateOp>(
      PanedOptions(20, 10, {AggKind::kCount, -1, 0.5}));
  auto* sink = plan.Make<CollectorSink>();
  pw->SetOutput(sink);
  for (int64_t ts : {1, 5, 12}) pw->Push(Element(T(ts, 1)));
  // Ts 12 completes the window ending at 10: [-10, 10) holds 1 and 5.
  ASSERT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->ts(), -10);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 2);
  pw->Push(Element(Punctuation::Watermark(18)));
  EXPECT_EQ(sink->count(), 1u);  // [0, 20) may still get ts 19.
  pw->Push(Element(Punctuation::Watermark(19)));
  ASSERT_EQ(sink->count(), 2u);
  EXPECT_EQ(sink->tuples()[1]->ts(), 0);
  EXPECT_EQ(sink->tuples()[1]->at(1).AsInt(), 3);
  pw->Flush();  // [10, 30) holds 12.
  ASSERT_EQ(sink->count(), 3u);
  EXPECT_EQ(sink->tuples()[2]->ts(), 10);
  EXPECT_EQ(sink->tuples()[2]->at(1).AsInt(), 1);
}

TEST(PanedWindowTest, StateBoundedByPaneCount) {
  Plan plan;
  auto* pw = plan.Make<GroupByAggregateOp>(
      PanedOptions(1000, 100, {AggKind::kSum, 1, 0.5}));
  auto* sink = plan.Make<CountingSink>();
  pw->SetOutput(sink);
  for (int64_t ts = 0; ts < 100000; ++ts) {
    pw->Push(Element(T(ts, 1)));
    // 10 panes of O(1) accumulators, regardless of tuples in window.
    EXPECT_LT(pw->StateBytes(), 4096u);
  }
}

TEST(PanedWindowTest, LargeTimeJumpStaysCheap) {
  Plan plan;
  auto* pw = plan.Make<GroupByAggregateOp>(
      PanedOptions(100, 10, {AggKind::kCount, -1, 0.5}));
  auto* sink = plan.Make<CollectorSink>();
  pw->SetOutput(sink);
  pw->Push(Element(T(5, 1)));
  pw->Push(Element(T(1000000000, 1)));  // Empty-window run suppressed.
  pw->Flush();
  // Only windows that contain data are emitted.
  EXPECT_LT(sink->count(), 50u);
  for (const TupleRef& r : sink->tuples()) {
    EXPECT_GE(r->at(1).AsInt(), 0);
  }
}

// --- LEFT OUTER window join ---

BinaryWindowJoinOp::Options OuterOpts(int64_t w) {
  BinaryWindowJoinOp::Options o;
  o.left_cols = {1};
  o.right_cols = {1};
  o.left_window = WindowSpec::TimeSliding(w);
  o.right_window = WindowSpec::TimeSliding(w);
  o.left_outer = true;
  o.right_arity = 2;
  return o;
}

TEST(OuterJoinTest, UnmatchedLeftEmittedOnExpiry) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(OuterOpts(10));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  j->Push(Element(T(1, 5)), 0);   // Will never match.
  j->Push(Element(T(50, 6)), 0);  // Expires ts=1 from the left window.
  ASSERT_EQ(sink->count(), 1u);
  const TupleRef& row = sink->tuples()[0];
  EXPECT_EQ(row->arity(), 4u);  // 2 left cols + 2 null pads.
  EXPECT_EQ(row->at(0).AsInt(), 1);
  EXPECT_TRUE(row->at(2).is_null());
  EXPECT_TRUE(row->at(3).is_null());
  EXPECT_EQ(j->join_stats().unmatched_left, 1u);
}

TEST(OuterJoinTest, MatchedLeftNotReported) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(OuterOpts(10));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  j->Push(Element(T(1, 5)), 0);
  j->Push(Element(T(3, 5)), 1);   // Match.
  j->Push(Element(T(50, 9)), 0);  // Expire the matched tuple.
  j->Flush();
  j->Flush();
  EXPECT_EQ(j->join_stats().unmatched_left, 1u);  // Only ts=50 (at flush).
  // The matched row plus the flush-time unmatched for ts=50.
  ASSERT_EQ(sink->count(), 2u);
  EXPECT_EQ(sink->tuples()[0]->arity(), 4u);
  EXPECT_FALSE(sink->tuples()[0]->at(2).is_null());
}

TEST(OuterJoinTest, PunctuationDrivesExpiryReports) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(OuterOpts(10));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  j->Push(Element(T(1, 5)), 0);
  j->Push(Element(Punctuation::Watermark(100)), 0);
  EXPECT_EQ(j->join_stats().unmatched_left, 1u);
  EXPECT_EQ(sink->count(), 1u);
}

TEST(OuterJoinTest, CountsMatchInnerPlusUnmatched) {
  // Property: outer results = inner results + unmatched-left rows, and
  // unmatched + distinct-matched-left = left tuple count.
  Rng rng(32);
  std::vector<std::pair<int, TupleRef>> inputs;
  int64_t ts = 0;
  uint64_t left_count = 0;
  for (int i = 0; i < 2000; ++i) {
    ts += 1;
    int side = rng.Bernoulli(0.5) ? 0 : 1;
    left_count += side == 0 ? 1 : 0;
    inputs.emplace_back(side, T(ts, static_cast<int64_t>(rng.Uniform(40))));
  }
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(OuterOpts(30));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  for (auto& [side, t] : inputs) j->Push(Element(t), side);
  j->Flush();
  j->Flush();
  const WindowJoinStats& st = j->join_stats();
  EXPECT_EQ(sink->count(), st.results + st.unmatched_left);
  // Every left tuple is either matched at least once or reported.
  EXPECT_LE(st.unmatched_left, left_count);
}

TEST(OuterJoinTest, RttMonitorFindsFailedConnections) {
  // The outer join's motivating use: SYNs that never get a SYN-ACK.
  Plan plan;
  BinaryWindowJoinOp::Options o = OuterOpts(100);
  auto* j = plan.Make<BinaryWindowJoinOp>(o);
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  // 3 SYNs; only key 1 and 3 answered.
  j->Push(Element(T(10, 1)), 0);
  j->Push(Element(T(11, 2)), 0);
  j->Push(Element(T(12, 3)), 0);
  j->Push(Element(T(20, 1)), 1);
  j->Push(Element(T(25, 3)), 1);
  j->Push(Element(Punctuation::Watermark(500)), 0);
  const WindowJoinStats& st = j->join_stats();
  EXPECT_EQ(st.results, 2u);
  EXPECT_EQ(st.unmatched_left, 1u);  // The key-2 SYN timed out.
}

}  // namespace
}  // namespace sqp
