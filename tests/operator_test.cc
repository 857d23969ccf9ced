#include <gtest/gtest.h>

#include <vector>

#include "exec/plan.h"
#include "exec/project.h"
#include "exec/select.h"
#include "exec/union.h"

namespace sqp {

// sizeof/alignof of Operator, where a derived operator's first field goes,
// and sizeof/alignof of GroupByAggregateOp: from a translation unit built
// with NDEBUG and from one built without it.
std::vector<size_t> OperatorLayoutNdebug();
std::vector<size_t> OperatorLayoutDebug();

namespace {

TupleRef T(int64_t ts, int64_t v) {
  return MakeTuple(ts, {Value(ts), Value(v)});
}

TEST(SelectOpTest, FiltersByPredicate) {
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Gt(Col(1), Lit(int64_t{5})));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  for (int64_t v : {3, 7, 5, 9}) sel->Push(Element(T(v, v)));
  ASSERT_EQ(sink->count(), 2u);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 7);
  EXPECT_EQ(sink->tuples()[1]->at(1).AsInt(), 9);
  EXPECT_DOUBLE_EQ(sel->stats().Selectivity(), 0.5);
}

TEST(SelectOpTest, PunctuationsPassThrough) {
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{0}));  // Rejects everything.
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  sel->Push(Element(T(1, 1)));
  sel->Push(Element(Punctuation::Watermark(5)));
  EXPECT_EQ(sink->count(), 0u);
  ASSERT_EQ(sink->punctuations().size(), 1u);
  EXPECT_EQ(sink->punctuations()[0].ts, 5);
}

TEST(ProjectOpTest, ComputesExpressionsKeepsTs) {
  Plan plan;
  auto* proj = plan.Make<ProjectOp>(
      std::vector<ExprRef>{Col(1), Mul(Col(1), Lit(int64_t{2}))});
  auto* sink = plan.Make<CollectorSink>();
  proj->SetOutput(sink);
  proj->Push(Element(T(42, 10)));
  ASSERT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->ts(), 42);  // Ordering attr preserved.
  EXPECT_EQ(sink->tuples()[0]->at(0).AsInt(), 10);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 20);
}

TEST(ProjectOpTest, OutputSchemaTypesAndNames) {
  Schema in({{"ts", ValueType::kInt}, {"len", ValueType::kInt}});
  auto out = ProjectOp::OutputSchema(
      in, {Col(1), Div(Mul(Col(1), Lit(1.0)), Lit(2.0))}, {"len", "half"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->field(0).name, "len");
  EXPECT_EQ(out->field(0).type, ValueType::kInt);
  EXPECT_EQ(out->field(1).name, "half");
  EXPECT_EQ(out->field(1).type, ValueType::kDouble);
}

TEST(ProjectOpTest, OutputSchemaRejectsBadExpr) {
  Schema in({{"s", ValueType::kString}});
  EXPECT_FALSE(ProjectOp::OutputSchema(in, {Add(Col(0), Lit(int64_t{1}))}).ok());
}

TEST(DistinctOpTest, EmitsFirstOccurrenceOnly) {
  Plan plan;
  auto* d = plan.Make<DistinctOp>(std::vector<int>{1});
  auto* sink = plan.Make<CollectorSink>();
  d->SetOutput(sink);
  for (int64_t v : {1, 2, 1, 3, 2, 1}) d->Push(Element(T(v, v)));
  EXPECT_EQ(sink->count(), 3u);
}

TEST(DistinctOpTest, WindowResetsSeenSet) {
  Plan plan;
  auto* d = plan.Make<DistinctOp>(std::vector<int>{1}, /*window_size=*/10);
  auto* sink = plan.Make<CollectorSink>();
  d->SetOutput(sink);
  d->Push(Element(T(1, 7)));
  d->Push(Element(T(2, 7)));   // Duplicate in same bucket.
  d->Push(Element(T(15, 7)));  // New bucket: emitted again.
  EXPECT_EQ(sink->count(), 2u);
}

TEST(DistinctOpTest, StateGrowsWithoutWindow) {
  Plan plan;
  auto* d = plan.Make<DistinctOp>(std::vector<int>{1});
  auto* sink = plan.Make<CountingSink>();
  d->SetOutput(sink);
  size_t before = d->StateBytes();
  for (int64_t v = 0; v < 1000; ++v) d->Push(Element(T(v, v)));
  EXPECT_GT(d->StateBytes(), before + 1000 * 8);
}

TEST(UnionOpTest, MergesBothInputs) {
  Plan plan;
  auto* u = plan.Make<UnionOp>();
  auto* sink = plan.Make<CollectorSink>();
  u->SetOutput(sink);
  u->Push(Element(T(1, 1)), 0);
  u->Push(Element(T(2, 2)), 1);
  u->Push(Element(T(3, 3)), 0);
  EXPECT_EQ(sink->count(), 3u);
}

TEST(UnionOpTest, WatermarkIsMinOfInputs) {
  Plan plan;
  auto* u = plan.Make<UnionOp>();
  auto* sink = plan.Make<CollectorSink>();
  u->SetOutput(sink);
  u->Push(Element(Punctuation::Watermark(10)), 0);
  EXPECT_TRUE(sink->punctuations().empty());  // Other side unknown.
  u->Push(Element(Punctuation::Watermark(4)), 1);
  ASSERT_EQ(sink->punctuations().size(), 1u);
  EXPECT_EQ(sink->punctuations()[0].ts, 4);
  // Advancing the slower side re-emits the new minimum.
  u->Push(Element(Punctuation::Watermark(12)), 1);
  ASSERT_EQ(sink->punctuations().size(), 2u);
  EXPECT_EQ(sink->punctuations()[1].ts, 10);
}

TEST(UnionOpTest, SingleFlushAfterBothInputs) {
  Plan plan;
  auto* u = plan.Make<UnionOp>();
  auto* down = plan.Make<CollectorSink>();
  u->SetOutput(down);
  u->Flush();
  u->Flush();
  SUCCEED();  // Flush propagation reaching a sink must not crash.
}

TEST(OrderedMergeOpTest, OutputIsTimestampOrdered) {
  Plan plan;
  auto* m = plan.Make<OrderedMergeOp>();
  auto* sink = plan.Make<CollectorSink>();
  m->SetOutput(sink);
  // Side 0: 1, 5, 9; side 1: 2, 3, 10 — interleaved pushes.
  m->Push(Element(T(1, 0)), 0);
  m->Push(Element(T(2, 1)), 1);
  m->Push(Element(T(5, 0)), 0);
  m->Push(Element(T(3, 1)), 1);
  m->Push(Element(T(9, 0)), 0);
  m->Push(Element(T(10, 1)), 1);
  m->Flush();
  m->Flush();
  ASSERT_EQ(sink->count(), 6u);
  for (size_t i = 1; i < sink->tuples().size(); ++i) {
    EXPECT_LE(sink->tuples()[i - 1]->ts(), sink->tuples()[i]->ts());
  }
}

TEST(OrderedMergeOpTest, HoldsBackUntilOtherSideCatchesUp) {
  Plan plan;
  auto* m = plan.Make<OrderedMergeOp>();
  auto* sink = plan.Make<CollectorSink>();
  m->SetOutput(sink);
  m->Push(Element(T(5, 0)), 0);
  EXPECT_EQ(sink->count(), 0u);  // Side 1 frontier unknown.
  m->Push(Element(T(7, 1)), 1);
  EXPECT_EQ(sink->count(), 1u);  // ts=5 released (5 <= min(5,7)).
}

TEST(PlanTest, StatsString) {
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  sel->Push(Element(T(1, 1)));
  std::string s = plan.StatsString();
  EXPECT_NE(s.find("select"), std::string::npos);
  EXPECT_NE(s.find("in=1"), std::string::npos);
}

TEST(PlanTest, RunStreamDrivesAndFlushes) {
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  int64_t next_ts = 0;
  RunStream(sel, [&]() { return T(next_ts++, 0); }, 10);
  EXPECT_EQ(sink->count(), 10u);
}

// A program built without NDEBUG links a release library: every operator
// must have one layout, whichever way NDEBUG is set.
TEST(OperatorLayoutTest, SameWithAndWithoutNdebug) {
  EXPECT_EQ(OperatorLayoutNdebug(), OperatorLayoutDebug());
}

}  // namespace
}  // namespace sqp
