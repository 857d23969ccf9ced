#include <gtest/gtest.h>

#include <map>

#include "exec/aggregate_op.h"
#include "exec/plan.h"

namespace sqp {
namespace {

// Input: [ts, key, val].
TupleRef T(int64_t ts, int64_t key, int64_t val) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(val)});
}

Schema InputSchema() {
  return *Schema::WithOrdering({{"ts", ValueType::kInt},
                                {"key", ValueType::kInt},
                                {"val", ValueType::kInt}},
                               "ts");
}

TEST(GroupByTest, UnwindowedEmitsAtFlush) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kSum, 2, 0.5}};
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);

  gb->Push(Element(T(1, 10, 5)));
  gb->Push(Element(T(2, 10, 7)));
  gb->Push(Element(T(3, 20, 1)));
  EXPECT_EQ(sink->count(), 0u);  // Nothing until flush.
  gb->Flush();

  ASSERT_EQ(sink->count(), 2u);
  std::map<int64_t, std::pair<int64_t, int64_t>> rows;
  for (const TupleRef& t : sink->tuples()) {
    rows[t->at(1).AsInt()] = {t->at(2).AsInt(), t->at(3).AsInt()};
  }
  EXPECT_EQ(rows[10], std::make_pair(int64_t{2}, int64_t{12}));
  EXPECT_EQ(rows[20], std::make_pair(int64_t{1}, int64_t{1}));
}

TEST(GroupByTest, TumblingWindowClosesBucketsInOrder) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kCount, -1, 0.5}};
  opt.window_size = 10;
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);

  gb->Push(Element(T(1, 1, 0)));
  gb->Push(Element(T(5, 1, 0)));
  EXPECT_EQ(sink->count(), 0u);
  gb->Push(Element(T(12, 1, 0)));  // Bucket [0,10) now provably complete.
  ASSERT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->ts(), 0);       // Bucket start.
  EXPECT_EQ(sink->tuples()[0]->at(2).AsInt(), 2);  // count.
  gb->Flush();
  ASSERT_EQ(sink->count(), 2u);
  EXPECT_EQ(sink->tuples()[1]->ts(), 10);
}

TEST(GroupByTest, WatermarkPunctuationClosesBuckets) {
  GroupByOptions opt;
  opt.key_cols = {};
  opt.aggs = {{AggKind::kCount, -1, 0.5}};
  opt.window_size = 10;
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);

  gb->Push(Element(T(3, 0, 0)));
  gb->Push(Element(Punctuation::Watermark(8)));
  EXPECT_EQ(sink->count(), 0u);  // ts=9 tuples may still arrive.
  // Watermark 9 asserts no tuple with ts <= 9 remains: bucket [0,10)
  // is complete.
  gb->Push(Element(Punctuation::Watermark(9)));
  EXPECT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->punctuations().size(), 2u);  // Forwarded.
}

TEST(GroupByTest, HavingFiltersGroups) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kCount, -1, 0.5}};
  // Output layout [ts, key, count]: having count > 1.
  opt.having = Gt(Col(2), Lit(int64_t{1}));
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);
  gb->Push(Element(T(1, 10, 0)));
  gb->Push(Element(T(2, 10, 0)));
  gb->Push(Element(T(3, 20, 0)));
  gb->Flush();
  ASSERT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 10);
}

TEST(GroupByTest, MultipleAggregatesPerGroup) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kMin, 2, 0.5},
              {AggKind::kMax, 2, 0.5},
              {AggKind::kAvg, 2, 0.5},
              {AggKind::kMedian, 2, 0.5}};
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);
  for (int64_t v : {1, 9, 5}) gb->Push(Element(T(v, 1, v)));
  gb->Flush();
  ASSERT_EQ(sink->count(), 1u);
  const TupleRef& r = sink->tuples()[0];
  EXPECT_EQ(r->at(2).AsInt(), 1);
  EXPECT_EQ(r->at(3).AsInt(), 9);
  EXPECT_DOUBLE_EQ(r->at(4).AsDouble(), 5.0);
  EXPECT_DOUBLE_EQ(r->at(5).AsDouble(), 5.0);
}

TEST(GroupByTest, BoundedMemoryWithWindowUnboundedWithout) {
  // Slide 36's contrast, measured: same grouping, with and without a
  // window; keys grow without bound.
  GroupByOptions bounded_opt;
  bounded_opt.key_cols = {1};
  bounded_opt.aggs = {{AggKind::kCount, -1, 0.5}};
  bounded_opt.window_size = 100;
  GroupByOptions unbounded_opt = bounded_opt;
  unbounded_opt.window_size = 0;

  Plan plan;
  auto* windowed = plan.Make<GroupByAggregateOp>(bounded_opt, "w");
  auto* unwindowed = plan.Make<GroupByAggregateOp>(unbounded_opt, "u");
  auto* s1 = plan.Make<CountingSink>();
  auto* s2 = plan.Make<CountingSink>();
  windowed->SetOutput(s1);
  unwindowed->SetOutput(s2);

  for (int64_t i = 0; i < 20000; ++i) {
    TupleRef t = T(i, i, 0);  // Every tuple a fresh group key.
    windowed->Push(Element(t));
    unwindowed->Push(Element(t));
  }
  // Windowed: only the open bucket's groups are live.
  EXPECT_LE(windowed->open_groups(), 101u);
  EXPECT_EQ(unwindowed->open_groups(), 20000u);
  EXPECT_LT(windowed->StateBytes() * 10, unwindowed->StateBytes());
}

// Closed groups wait on a free list for the next bucket: StateBytes
// counts them, new groups drain them, and they never outnumber the
// largest closed bucket.
TEST(GroupByTest, ClosedGroupsAreReusedAndCounted) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kSum, 2, 0.5}};
  opt.window_size = 100;
  auto run = [&](GroupByAggregateOp& op,
                 const std::vector<std::pair<int64_t, int64_t>>& rows) {
    for (const auto& [ts, key] : rows) op.Push(Element(T(ts, key, 1)));
  };
  std::vector<std::pair<int64_t, int64_t>> eight, eight_later;
  for (int64_t k = 0; k < 8; ++k) {
    eight.push_back({k, k});
    eight_later.push_back({500 + k, 10 + k});
  }

  GroupByAggregateOp fresh(opt);
  const size_t empty = fresh.StateBytes();
  CountingSink sink;
  GroupByAggregateOp op(opt);
  op.SetOutput(&sink);
  run(op, eight);
  const size_t full = op.StateBytes();
  op.Push(Element(Punctuation::Watermark(99)));
  EXPECT_EQ(sink.tuples(), 8u);
  EXPECT_EQ(op.open_groups(), 0u);
  EXPECT_EQ(op.StateBytes(), full);  // Eight spares, counted.

  // Eight new keys take the eight spares: nothing is added.
  run(op, eight_later);
  EXPECT_EQ(op.open_groups(), 8u);
  EXPECT_EQ(op.StateBytes(), full);
  // A closed bucket of two never lowers the bound below eight.
  op.Push(Element(Punctuation::Watermark(599)));
  run(op, {{700, 1}, {701, 2}});
  op.Push(Element(Punctuation::Watermark(799)));
  EXPECT_EQ(op.StateBytes(), full);
  EXPECT_GT(full, empty);
}

TEST(GroupByTest, OutputSchemaShape) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kAvg, 2, 0.5}};
  auto schema = GroupByAggregateOp::OutputSchema(InputSchema(), opt);
  ASSERT_TRUE(schema.ok());
  ASSERT_EQ(schema->num_fields(), 4u);
  EXPECT_EQ(schema->field(0).name, "ts");
  EXPECT_EQ(schema->field(1).name, "key");
  EXPECT_EQ(schema->field(2).name, "count");
  EXPECT_EQ(schema->field(2).type, ValueType::kInt);
  EXPECT_EQ(schema->field(3).name, "avg_val");
  EXPECT_EQ(schema->field(3).type, ValueType::kDouble);
}

TEST(GroupByTest, OutputSchemaRejectsBadColumns) {
  GroupByOptions opt;
  opt.key_cols = {9};
  EXPECT_FALSE(GroupByAggregateOp::OutputSchema(InputSchema(), opt).ok());
}

}  // namespace
}  // namespace sqp
