#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "exec/reorder.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts) { return MakeTuple(ts, {Value(ts)}); }

// --- HeartbeatOp ---

TEST(HeartbeatTest, EmitsWatermarkEveryPeriod) {
  Plan plan;
  auto* hb = plan.Make<HeartbeatOp>(10);
  auto* sink = plan.Make<CollectorSink>();
  hb->SetOutput(sink);
  for (int64_t ts : {0, 3, 9, 12, 25}) hb->Push(Element(T(ts)));
  // Beats at 10 and 20 (after ts 12 and 25 cross them).
  ASSERT_EQ(sink->punctuations().size(), 2u);
  EXPECT_EQ(sink->punctuations()[0].ts, 10);
  EXPECT_EQ(sink->punctuations()[1].ts, 20);
  EXPECT_EQ(sink->count(), 5u);  // All tuples forwarded.
}

TEST(HeartbeatTest, SlackShiftsWatermarks) {
  Plan plan;
  auto* hb = plan.Make<HeartbeatOp>(10, /*slack=*/3);
  auto* sink = plan.Make<CollectorSink>();
  hb->SetOutput(sink);
  hb->Push(Element(T(0)));
  hb->Push(Element(T(15)));
  ASSERT_EQ(sink->punctuations().size(), 1u);
  EXPECT_EQ(sink->punctuations()[0].ts, 7);  // 10 - 3.
}

TEST(HeartbeatTest, DrivesDownstreamBucketCloseout) {
  // A group-by that would otherwise wait for newer tuples closes its
  // bucket off the heartbeat.
  Plan plan;
  auto* hb = plan.Make<HeartbeatOp>(5);
  GroupByOptions opt;
  opt.aggs = {{AggKind::kCount, -1, 0.5}};
  opt.window = WindowSpec::TimeTumbling(10);
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  hb->SetOutput(gb);
  gb->SetOutput(sink);
  hb->Push(Element(T(1)));
  hb->Push(Element(T(8)));
  EXPECT_EQ(sink->count(), 0u);
  hb->Push(Element(T(11)));  // Heartbeat at 10 closes bucket [0,10).
  EXPECT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 2);
}

// --- SlackReorderOp ---

TEST(ReorderTest, RestoresOrderWithinSlack) {
  Plan plan;
  auto* ro = plan.Make<SlackReorderOp>(5);
  auto* sink = plan.Make<CollectorSink>();
  ro->SetOutput(sink);
  for (int64_t ts : {3, 1, 2, 8, 6, 12, 10, 15}) ro->Push(Element(T(ts)));
  ro->Flush();
  ASSERT_EQ(sink->count(), 8u);
  for (size_t i = 1; i < sink->tuples().size(); ++i) {
    EXPECT_LE(sink->tuples()[i - 1]->ts(), sink->tuples()[i]->ts());
  }
}

TEST(ReorderTest, HoldsBackWithinSlackWindow) {
  Plan plan;
  auto* ro = plan.Make<SlackReorderOp>(10);
  auto* sink = plan.Make<CollectorSink>();
  ro->SetOutput(sink);
  ro->Push(Element(T(5)));
  EXPECT_EQ(sink->count(), 0u);  // Might still see ts < 5.
  ro->Push(Element(T(20)));      // Releases everything <= 10.
  EXPECT_EQ(sink->count(), 1u);
  EXPECT_EQ(ro->buffered(), 1u);
}

TEST(ReorderTest, DropsBeyondBoundLateTuples) {
  Plan plan;
  auto* ro = plan.Make<SlackReorderOp>(2, /*drop_late=*/true);
  auto* sink = plan.Make<CollectorSink>();
  ro->SetOutput(sink);
  ro->Push(Element(T(10)));
  ro->Push(Element(T(20)));  // Emits 10 and 18-release threshold.
  ro->Push(Element(T(1)));   // Far too late.
  ro->Flush();
  EXPECT_EQ(ro->late_dropped(), 1u);
  EXPECT_EQ(sink->count(), 2u);
}

TEST(ReorderTest, ForwardLateWhenConfigured) {
  Plan plan;
  auto* ro = plan.Make<SlackReorderOp>(2, /*drop_late=*/false);
  auto* sink = plan.Make<CollectorSink>();
  ro->SetOutput(sink);
  ro->Push(Element(T(10)));
  ro->Push(Element(T(20)));
  ro->Push(Element(T(1)));
  ro->Flush();
  EXPECT_EQ(ro->late_dropped(), 0u);
  EXPECT_EQ(sink->count(), 3u);
}

TEST(ReorderTest, WatermarkForcesRelease) {
  Plan plan;
  auto* ro = plan.Make<SlackReorderOp>(100);
  auto* sink = plan.Make<CollectorSink>();
  ro->SetOutput(sink);
  ro->Push(Element(T(5)));
  ro->Push(Element(T(7)));
  EXPECT_EQ(sink->count(), 0u);
  ro->Push(Element(Punctuation::Watermark(6)));
  EXPECT_EQ(sink->count(), 1u);  // ts=5 released, ts=7 still held.
  EXPECT_EQ(sink->punctuations().size(), 1u);
}

// Property: random bounded-disorder streams come out sorted, no drops.
class ReorderPropertyTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(ReorderPropertyTest, BoundedDisorderFullyRestored) {
  int64_t slack = GetParam();
  Plan plan;
  auto* ro = plan.Make<SlackReorderOp>(slack);
  auto* sink = plan.Make<CollectorSink>();
  ro->SetOutput(sink);
  Rng rng(7);
  int64_t base = 0;
  const int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    ++base;
    // Jitter within the slack bound.
    int64_t ts = base - static_cast<int64_t>(rng.Uniform(
                            static_cast<uint64_t>(slack) + 1));
    ro->Push(Element(T(std::max<int64_t>(0, ts))));
  }
  ro->Flush();
  EXPECT_EQ(ro->late_dropped(), 0u);
  ASSERT_EQ(sink->count(), static_cast<size_t>(kN));
  for (size_t i = 1; i < sink->tuples().size(); ++i) {
    EXPECT_LE(sink->tuples()[i - 1]->ts(), sink->tuples()[i]->ts());
  }
}

INSTANTIATE_TEST_SUITE_P(Slacks, ReorderPropertyTest,
                         ::testing::Values(1, 5, 50));

// Integration: disorderly stream -> reorder -> heartbeat -> group-by is
// exact vs feeding the sorted stream directly.
TEST(ReorderIntegrationTest, DisorderedPipelineMatchesSorted) {
  Rng rng(8);
  std::vector<TupleRef> tuples;
  int64_t base = 0;
  for (int i = 0; i < 4000; ++i) {
    ++base;
    tuples.push_back(T(base - static_cast<int64_t>(rng.Uniform(4))));
  }

  auto run = [&](bool disordered) {
    Plan plan;
    GroupByOptions opt;
    opt.aggs = {{AggKind::kCount, -1, 0.5}};
    opt.window = WindowSpec::TimeTumbling(100);
    auto* gb = plan.Make<GroupByAggregateOp>(opt);
    auto* sink = plan.Make<CollectorSink>();
    gb->SetOutput(sink);
    if (disordered) {
      auto* ro = plan.Make<SlackReorderOp>(4);
      ro->SetOutput(gb);
      for (const TupleRef& t : tuples) ro->Push(Element(t));
      ro->Flush();
    } else {
      std::vector<TupleRef> sorted = tuples;
      std::stable_sort(sorted.begin(), sorted.end(),
                       [](const TupleRef& a, const TupleRef& b) {
                         return a->ts() < b->ts();
                       });
      for (const TupleRef& t : sorted) gb->Push(Element(t));
      gb->Flush();
    }
    std::map<int64_t, int64_t> rows;
    for (const TupleRef& r : sink->tuples()) {
      rows[r->ts()] = r->at(1).AsInt();
    }
    return rows;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace sqp
