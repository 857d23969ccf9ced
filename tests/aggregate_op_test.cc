#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "dur/codec.h"
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
  opt.window = WindowSpec::TimeTumbling(10);
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
  opt.window = WindowSpec::TimeTumbling(10);
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
  bounded_opt.window = WindowSpec::TimeTumbling(100);
  GroupByOptions unbounded_opt = bounded_opt;
  unbounded_opt.window = WindowSpec::Landmark();

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
  opt.window = WindowSpec::TimeTumbling(100);
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

TEST(GroupByTest, OutputSchemaRejectsWindowsItCannotClose) {
  GroupByOptions opt;
  opt.aggs = {{AggKind::kCount, -1, 0.5}};
  opt.window = WindowSpec::TimeSliding(60);  // No slide step.
  EXPECT_FALSE(GroupByAggregateOp::OutputSchema(InputSchema(), opt).ok());
  opt.window = WindowSpec::CountSliding(10);
  EXPECT_FALSE(GroupByAggregateOp::OutputSchema(InputSchema(), opt).ok());
  opt.window = WindowSpec::Punctuated();  // Needs exactly one key column.
  EXPECT_FALSE(GroupByAggregateOp::OutputSchema(InputSchema(), opt).ok());
  opt.key_cols = {1};
  EXPECT_TRUE(GroupByAggregateOp::OutputSchema(InputSchema(), opt).ok());
  opt.window = WindowSpec::TimeSliding(60, 20);
  EXPECT_TRUE(GroupByAggregateOp::OutputSchema(InputSchema(), opt).ok());
}

// --- Checkpoints ---

// Rows in emission order, groups of one window sorted: a restored
// bucket's hash table may order its groups differently.
std::vector<std::string> Rows(const CollectorSink& sink) {
  std::vector<std::string> out;
  for (const TupleRef& t : sink.tuples()) out.push_back(t->ToString());
  auto begin = out.begin();
  for (size_t i = 1; i <= out.size(); ++i) {
    if (i == out.size() ||
        sink.tuples()[i]->ts() != sink.tuples()[i - 1]->ts()) {
      std::sort(begin, out.begin() + static_cast<std::ptrdiff_t>(i));
      begin = out.begin() + static_cast<std::ptrdiff_t>(i);
    }
  }
  return out;
}

// Runs `prefix` then `suffix` through one operator, and `prefix`, a
// checkpoint, and `suffix` through a fresh restored one: the restored
// operator must emit exactly the uninterrupted one's rows from there on.
void ExpectRestoredRunMatches(const GroupByOptions& opt,
                              const std::vector<Element>& prefix,
                              const std::vector<Element>& suffix) {
  Plan plan;
  auto* whole = plan.Make<GroupByAggregateOp>(opt);
  auto* before = plan.Make<CollectorSink>();
  whole->SetOutput(before);
  for (const Element& e : prefix) whole->Push(e);
  dur::BufWriter w;
  whole->SaveState(w);
  const size_t open_at_save = whole->open_groups();
  auto* after = plan.Make<CollectorSink>();
  whole->SetOutput(after);
  for (const Element& e : suffix) whole->Push(e);
  whole->Flush();

  auto* restored = plan.Make<GroupByAggregateOp>(opt);
  auto* resumed = plan.Make<CollectorSink>();
  restored->SetOutput(resumed);
  dur::BufReader r(w.data());
  ASSERT_TRUE(restored->RestoreState(r).ok());
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored->open_groups(), open_at_save);
  for (const Element& e : suffix) restored->Push(e);
  restored->Flush();
  ASSERT_FALSE(after->tuples().empty());
  EXPECT_EQ(Rows(*resumed), Rows(*after));
}

TEST(GroupByTest, PunctuatedCheckpointKeepsLastActivity) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kMax, 2, 0.5}};
  opt.window = WindowSpec::Punctuated();
  // Key 8 was last active at ts 9, so the watermark at 5 must leave it
  // open; key 9 (last at 4) closes. A restore that lost last_ts would
  // close both, and Flush would stamp key 8 with the wrong ts.
  std::vector<Element> prefix = {Element(T(1, 7, 10)), Element(T(2, 8, 20)),
                                 Element(T(3, 7, 30)), Element(T(4, 9, 40)),
                                 Element(T(9, 8, 50))};
  std::vector<Element> suffix = {
      Element(Punctuation::CloseKey(10, Value(int64_t{7}))),
      Element(Punctuation::Watermark(5))};
  ExpectRestoredRunMatches(opt, prefix, suffix);
}

TEST(GroupByTest, SlidingCheckpointKeepsNextWindow) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kSum, 2, 0.5}};
  opt.window = WindowSpec::TimeSliding(30, 10);
  std::vector<Element> prefix, suffix;
  for (int64_t ts = 0; ts < 90; ts += 3) {
    (ts < 45 ? prefix : suffix).push_back(Element(T(ts, ts % 2, ts)));
  }
  suffix.push_back(Element(Punctuation::Watermark(100)));
  ExpectRestoredRunMatches(opt, prefix, suffix);
}

// The tumbling layout CQL plans checkpoint is unchanged from the one
// the previous tumbling-only operator wrote, so its checkpoints restore.
TEST(GroupByTest, TumblingCheckpointLayoutIsUnchanged) {
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kSum, 2, 0.5}};
  opt.window = WindowSpec::TimeTumbling(10);
  std::vector<Element> prefix = {Element(T(1, 7, 5)), Element(T(4, 8, 6)),
                                 Element(T(12, 7, 1)), Element(T(15, 9, 2)),
                                 Element(T(17, 7, 3))};
  // Written by the tumbling-only operator for `prefix`: max ts 17, one
  // open bucket (id 1) holding keys 9 and 7.
  const std::string kSaved =
      "1100000000000000010000000100000000000000020000000100000001090000"
      "0000000000020000000001000000000000000101000000000000000000000000"
      "0000004002000000000000000100000001070000000000000002000000000200"
      "0000000000000102000000000000000000000000000010400400000000000000";
  std::string bytes;
  for (size_t i = 0; i + 1 < kSaved.size(); i += 2) {
    bytes.push_back(
        static_cast<char>(std::stoi(kSaved.substr(i, 2), nullptr, 16)));
  }
  GroupByAggregateOp op(opt);
  CountingSink sink;
  op.SetOutput(&sink);
  for (const Element& e : prefix) op.Push(e);
  dur::BufWriter w;
  op.SaveState(w);
  // Groups save in the order they opened, 7 before 9, where `kSaved`
  // has 9 first. `kSaved` restores and saves back byte for byte, and the
  // live save is `kSaved` with its two equal-width group records swapped.
  GroupByAggregateOp restored(opt);
  dur::BufReader r(bytes);
  ASSERT_TRUE(restored.RestoreState(r).ok());
  dur::BufWriter again;
  restored.SaveState(again);
  EXPECT_EQ(again.data(), bytes);
  const size_t header = 8 + 4 + 8 + 4;  // max ts, buckets, id, groups.
  const size_t group = (bytes.size() - header) / 2;
  EXPECT_EQ(w.data(), bytes.substr(0, header) +
                          bytes.substr(header + group, group) +
                          bytes.substr(header, group));
  ExpectRestoredRunMatches(opt, prefix, {Element(T(21, 7, 4))});
}

}  // namespace
}  // namespace sqp
