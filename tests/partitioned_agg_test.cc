#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "common/rng.h"
#include "cql/planner.h"
#include "exec/plan.h"
#include "exec/window_agg.h"
#include "sliding_oracle.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t key, int64_t val) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(val)});
}

TEST(PartitionedWindowAggTest, PerKeyWindowsIndependent) {
  Plan plan;
  auto* op = plan.Make<WindowAggregateOp>(
      WindowSpec::CountSliding(2),
      std::vector<AggSpec>{{AggKind::kSum, 2, 0.5}},
      "partitioned-window-agg", 1);
  auto* sink = plan.Make<CollectorSink>();
  op->SetOutput(sink);

  op->Push(Element(T(1, 7, 10)));  // Key 7: [10] -> 10.
  op->Push(Element(T(2, 8, 5)));   // Key 8: [5] -> 5.
  op->Push(Element(T(3, 7, 20)));  // Key 7: [10,20] -> 30.
  op->Push(Element(T(4, 7, 30)));  // Key 7: [20,30] -> 50 (10 evicted).
  ASSERT_EQ(sink->count(), 4u);
  EXPECT_EQ(sink->tuples()[0]->at(2).AsInt(), 10);
  EXPECT_EQ(sink->tuples()[1]->at(2).AsInt(), 5);
  EXPECT_EQ(sink->tuples()[2]->at(2).AsInt(), 30);
  EXPECT_EQ(sink->tuples()[3]->at(2).AsInt(), 50);
  EXPECT_EQ(op->num_partitions(), 2u);
  // Output carries the partition key.
  EXPECT_EQ(sink->tuples()[3]->at(1).AsInt(), 7);
}

TEST(PartitionedWindowAggTest, NonInvertibleRecomputes) {
  // Max evicts through its monotonic deque: no replay.
  {
    Plan plan;
    auto* op = plan.Make<WindowAggregateOp>(
        WindowSpec::CountSliding(2),
        std::vector<AggSpec>{{AggKind::kMax, 2, 0.5}},
        "partitioned-window-agg", 1);
    auto* sink = plan.Make<CollectorSink>();
    op->SetOutput(sink);
    op->Push(Element(T(1, 7, 100)));
    op->Push(Element(T(2, 7, 50)));
    op->Push(Element(T(3, 7, 30)));  // 100 evicted: max over [50,30] = 50.
    EXPECT_EQ(sink->tuples()[2]->at(2).AsInt(), 50);
    EXPECT_EQ(op->recompute_count(), 0u);
  }
  // Blend cannot evict: eviction replays the partition's window.
  {
    Plan plan;
    auto* op = plan.Make<WindowAggregateOp>(
        WindowSpec::CountSliding(2),
        std::vector<AggSpec>{{AggKind::kBlend, 2, 0.5}},
        "partitioned-window-agg", 1);
    auto* sink = plan.Make<CollectorSink>();
    op->SetOutput(sink);
    op->Push(Element(T(1, 7, 100)));
    op->Push(Element(T(2, 7, 50)));
    op->Push(Element(T(3, 7, 30)));  // Blend over [50,30] = 40.
    EXPECT_DOUBLE_EQ(sink->tuples()[2]->at(2).AsDouble(), 40.0);
    EXPECT_GE(op->recompute_count(), 1u);
  }
}

TEST(PartitionedWindowAggTest, PunctuationPassesThroughUntouched) {
  Plan plan;
  auto* op = plan.Make<WindowAggregateOp>(
      WindowSpec::CountSliding(2),
      std::vector<AggSpec>{{AggKind::kSum, 2, 0.5}}, "partitioned-window-agg",
      1);
  std::string trace;  // 't' per tuple, 'w' per watermark, 'k' per CloseKey.
  std::vector<TupleRef> rows;
  CallbackSink sink([&](const Element& e) {
    if (e.is_punctuation()) {
      trace += e.punctuation().has_key ? 'k' : 'w';
    } else {
      trace += 't';
      rows.push_back(e.tuple());
    }
  });
  op->SetOutput(&sink);

  std::map<int64_t, std::deque<int64_t>> brute;
  auto push = [&](int64_t ts, int64_t key, int64_t val) {
    op->Push(Element(T(ts, key, val)));
    auto& dq = brute[key];
    dq.push_back(val);
    if (dq.size() > 2) dq.pop_front();
    int64_t want = 0;
    for (int64_t v : dq) want += v;
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.back()->at(2).AsInt(), want) << "ts=" << ts;
  };
  push(1, 7, 10);
  push(2, 8, 5);
  push(3, 7, 20);
  op->Push(Element(Punctuation::Watermark(100)));
  op->Push(Element(Punctuation::CloseKey(101, Value(int64_t{7}))));
  // Both forwarded in order; neither emits an aggregate row.
  EXPECT_EQ(trace, "tttwk");
  // Neither closed or expired a window: key 7 still holds [10, 20].
  push(4, 7, 30);  // [20, 30] -> 50.
  push(5, 8, 1);   // [5, 1] -> 6.
  EXPECT_EQ(trace, "tttwktt");
  EXPECT_EQ(op->num_partitions(), 2u);
}

// A partition is a window: with a constant key, `[partition by K rows N]`
// emits the same aggregate columns, row for row, as `[rows N]`.
TEST(PartitionedWindowAggTest, ConstantKeyMatchesUnpartitionedWindow) {
  std::vector<AggSpec> specs;
  for (AggKind kind : sliding_oracle::kExactKinds) {
    specs.push_back({kind, 2, 0.5});
  }
  specs.push_back({AggKind::kBlend, 2, 0.5});  // The replay path.
  for (sliding_oracle::Shape shape : sliding_oracle::kShapes) {
    SCOPED_TRACE(sliding_oracle::ShapeName(shape));
    Plan plan;
    auto* part = plan.Make<WindowAggregateOp>(
        WindowSpec::CountSliding(5), specs, "partitioned-window-agg", 1);
    auto* whole = plan.Make<WindowAggregateOp>(WindowSpec::CountSliding(5),
                                               specs);
    auto* part_sink = plan.Make<CollectorSink>();
    auto* whole_sink = plan.Make<CollectorSink>();
    part->SetOutput(part_sink);
    whole->SetOutput(whole_sink);

    sliding_oracle::ValueSource values(shape, 43);
    for (int64_t i = 0; i < 500; ++i) {
      TupleRef t = MakeTuple(i, {Value(i), Value(int64_t{3}), values.Next()});
      part->Push(Element(t));
      whole->Push(Element(t));
    }
    ASSERT_EQ(part_sink->count(), 500u);
    ASSERT_EQ(whole_sink->count(), 500u);
    for (size_t r = 0; r < 500; ++r) {
      const Tuple& p = *part_sink->tuples()[r];
      const Tuple& w = *whole_sink->tuples()[r];
      ASSERT_EQ(p.arity(), w.arity() + 1);
      EXPECT_EQ(p.at(0).AsInt(), w.at(0).AsInt());
      for (size_t a = 0; a < specs.size(); ++a) {
        const Value& pv = p.at(2 + a);
        const Value& wv = w.at(1 + a);
        EXPECT_EQ(pv.type(), wv.type()) << "row " << r << " agg " << a;
        EXPECT_TRUE(pv == wv) << "row " << r << " agg " << a << ": "
                              << pv.ToString() << " vs " << wv.ToString();
      }
    }
    EXPECT_EQ(part->recompute_count(), whole->recompute_count());
  }
}

// Property: each emission equals a fresh NewAccumulator() fold over that
// key's last N values.

using sliding_oracle::ExpectSameResult;
using sliding_oracle::FreshFold;

class PartitionedPropertyTest
    : public ::testing::TestWithParam<std::pair<size_t, AggKind>> {};

TEST_P(PartitionedPropertyTest, MatchesBruteForce) {
  auto [rows, kind] = GetParam();
  for (sliding_oracle::Shape shape : sliding_oracle::kShapes) {
    SCOPED_TRACE(sliding_oracle::ShapeName(shape));
    Plan plan;
    auto* op = plan.Make<WindowAggregateOp>(
        WindowSpec::CountSliding(static_cast<int64_t>(rows)),
        std::vector<AggSpec>{{kind, 2, 0.5}}, "partitioned-window-agg", 1);
    auto* sink = plan.Make<CollectorSink>();
    op->SetOutput(sink);

    Rng rng(41);
    sliding_oracle::ValueSource values(shape, 42);
    std::map<int64_t, std::deque<Value>> brute;
    for (int64_t i = 0; i < 2000; ++i) {
      int64_t key = static_cast<int64_t>(rng.Uniform(7));
      Value val = values.Next();
      op->Push(Element(MakeTuple(i, {Value(i), Value(key), val})));
      auto& dq = brute[key];
      dq.push_back(val);
      if (dq.size() > rows) dq.pop_front();
      ExpectSameResult(sink->tuples().back()->at(2), FreshFold(kind, dq),
                       "i=" + std::to_string(i));
      if (HasFatalFailure()) return;
    }
    // Only aggregates that cannot evict ever replay a partition.
    if (sliding_oracle::Evicts(kind)) {
      EXPECT_EQ(op->recompute_count(), 0u);
    } else {
      EXPECT_GT(op->recompute_count(), 0u);
    }
  }
}

std::string RowsKindName(
    const ::testing::TestParamInfo<std::pair<size_t, AggKind>>& info) {
  return std::string(AggKindName(info.param.second)) + "_n" +
         std::to_string(info.param.first);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, PartitionedPropertyTest,
    ::testing::Values(std::make_pair(size_t{4}, AggKind::kSum),
                      std::make_pair(size_t{16}, AggKind::kSum),
                      std::make_pair(size_t{8}, AggKind::kMax),
                      std::make_pair(size_t{8}, AggKind::kAvg)),
    RowsKindName);

std::vector<std::pair<size_t, AggKind>> ExactKindCases() {
  std::vector<std::pair<size_t, AggKind>> cases;
  for (AggKind kind : sliding_oracle::kExactKinds) {
    for (size_t rows : {1, 5}) cases.emplace_back(rows, kind);
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ExactKinds, PartitionedPropertyTest,
                         ::testing::ValuesIn(ExactKindCases()), RowsKindName);

INSTANTIATE_TEST_SUITE_P(
    ReplayedKinds, PartitionedPropertyTest,
    ::testing::Values(std::make_pair(size_t{5}, AggKind::kBlend),
                      std::make_pair(size_t{5}, AggKind::kApproxMedian),
                      std::make_pair(size_t{5}, AggKind::kApproxCountDistinct)),
    RowsKindName);

// --- CQL integration ---

cql::Catalog Cat() {
  cql::Catalog cat;
  std::vector<FieldDomain> domains(gen::PacketSchema()->num_fields());
  domains[gen::PacketCols::kSrcIp] = {"src_ip", true, 1024};
  EXPECT_TRUE(cat.Register("packets", gen::PacketSchema(), domains).ok());
  return cat;
}

TupleRef Pkt(int64_t ts, int64_t src, int64_t len) {
  return MakeTuple(ts, {Value(ts), Value(src), Value(int64_t{0}),
                        Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{6}),
                        Value(len), Value(int64_t{0}), Value(int64_t{0}),
                        Value("")});
}

TEST(PartitionedCqlTest, ParseAndRun) {
  cql::Catalog cat = Cat();
  auto cq = cql::Compile(
      "select src_ip, avg(len), count(*) from packets "
      "[partition by src_ip rows 3]",
      cat);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  EXPECT_NE((*cq)->plan_desc().find("partitioned-window-agg"),
            std::string::npos);
  CollectorSink sink;
  (*cq)->AttachSink(&sink);
  // Key 1 gets 4 packets; window holds last 3.
  (*cq)->Push(Element(Pkt(1, 1, 10)));
  (*cq)->Push(Element(Pkt(2, 1, 20)));
  (*cq)->Push(Element(Pkt(3, 2, 99)));
  (*cq)->Push(Element(Pkt(4, 1, 30)));
  (*cq)->Push(Element(Pkt(5, 1, 40)));  // Window [20,30,40] -> avg 30.
  (*cq)->Finish();
  ASSERT_EQ(sink.count(), 5u);
  const TupleRef& last = sink.tuples().back();
  EXPECT_EQ(last->at(0).AsInt(), 1);
  EXPECT_DOUBLE_EQ(last->at(1).AsDouble(), 30.0);
  EXPECT_EQ(last->at(2).AsInt(), 3);
}

// Every aggregate plan declares the types its rows carry: one query per
// planner branch (sliding time, sliding count, partitioned, group-by).
TEST(PartitionedCqlTest, OutputSchemaMatchesRowTypes) {
  cql::Catalog cat = Cat();
  const char* kAggs = "max(len), count(*), sum(len), avg(len)";
  for (std::string query :
       {std::string("select ") + kAggs + " from packets [range 60]",
        std::string("select ") + kAggs + " from packets [rows 3]",
        std::string("select src_ip, ") + kAggs +
            " from packets [partition by src_ip rows 3]",
        std::string("select src_ip, ") + kAggs +
            " from packets group by src_ip"}) {
    SCOPED_TRACE(query);
    auto cq = cql::Compile(query, cat);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    CollectorSink sink;
    (*cq)->AttachSink(&sink);
    for (int64_t i = 0; i < 6; ++i) {
      (*cq)->Push(Element(Pkt(i, i % 2, 10 * (i + 1))));
    }
    (*cq)->Finish();
    ASSERT_GT(sink.count(), 0u);
    const Schema& schema = (*cq)->output_schema();
    for (const TupleRef& row : sink.tuples()) {
      ASSERT_EQ(row->arity(), schema.num_fields());
      for (size_t c = 0; c < row->arity(); ++c) {
        if (row->at(c).is_null()) continue;
        EXPECT_EQ(row->at(c).type(), schema.field(c).type)
            << "column " << schema.field(c).name;
      }
    }
  }
}

TEST(PartitionedCqlTest, WhereAppliesBeforeWindow) {
  cql::Catalog cat = Cat();
  auto cq = cql::Compile(
      "select src_ip, sum(len) from packets [partition by src_ip rows 2] "
      "where len > 15",
      cat);
  ASSERT_TRUE(cq.ok()) << cq.status().ToString();
  CollectorSink sink;
  (*cq)->AttachSink(&sink);
  (*cq)->Push(Element(Pkt(1, 1, 10)));  // Filtered out.
  (*cq)->Push(Element(Pkt(2, 1, 20)));
  (*cq)->Push(Element(Pkt(3, 1, 30)));
  (*cq)->Finish();
  ASSERT_EQ(sink.count(), 2u);
  EXPECT_EQ(sink.tuples()[1]->at(1).AsInt(), 50);  // 20 + 30 only.
}

TEST(PartitionedCqlTest, MemoryVerdictUsesPartitionDomain) {
  cql::Catalog cat = Cat();
  // src_ip declared bounded (1024) in this catalog: bounded partitions.
  auto bounded = cql::Compile(
      "select src_ip, sum(len) from packets [partition by src_ip rows 4]",
      cat);
  ASSERT_TRUE(bounded.ok());
  EXPECT_EQ((*bounded)->memory().verdict, MemoryVerdict::kBounded);

  // dst_ip has no domain metadata: unbounded partitions.
  auto unbounded = cql::Compile(
      "select dst_ip, sum(len) from packets [partition by dst_ip rows 4]",
      cat);
  ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
  EXPECT_EQ((*unbounded)->memory().verdict, MemoryVerdict::kUnbounded);
}

TEST(PartitionedCqlTest, GroupByPlusPartitionWindowRejected) {
  cql::Catalog cat = Cat();
  auto cq = cql::Compile(
      "select src_ip, count(*) from packets [partition by src_ip rows 3] "
      "group by src_ip",
      cat);
  ASSERT_FALSE(cq.ok());
  EXPECT_EQ(cq.status().code(), StatusCode::kUnimplemented);
}

TEST(PartitionedCqlTest, ParseErrors) {
  cql::Catalog cat = Cat();
  EXPECT_FALSE(cql::Compile(
                   "select src_ip from packets [partition by rows 3]", cat)
                   .ok());
  EXPECT_FALSE(
      cql::Compile("select src_ip from packets [partition by src_ip rows 0]",
                   cat)
          .ok());
  EXPECT_FALSE(
      cql::Compile(
          "select nosuch, sum(len) from packets [partition by nosuch rows 3]",
          cat)
          .ok());
}

TEST(PartitionedWindowAggTest, StateScalesWithPartitionsNotStream) {
  Plan plan;
  auto* op = plan.Make<WindowAggregateOp>(
      WindowSpec::CountSliding(8),
      std::vector<AggSpec>{{AggKind::kSum, 2, 0.5}},
      "partitioned-window-agg", 1);
  auto* sink = plan.Make<CountingSink>();
  op->SetOutput(sink);
  Rng rng(42);
  for (int64_t i = 0; i < 50000; ++i) {
    op->Push(Element(T(i, static_cast<int64_t>(rng.Uniform(20)), 1)));
  }
  EXPECT_EQ(op->num_partitions(), 20u);
  // 20 partitions x 8 rows, regardless of the 50k tuples seen.
  EXPECT_LT(op->StateBytes(), 64 * 1024u);
}

}  // namespace
}  // namespace sqp
