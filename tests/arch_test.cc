#include <gtest/gtest.h>

#include <map>

#include "arch/db_sink.h"
#include "arch/decompose.h"
#include "arch/system.h"
#include "common/rng.h"
#include "exec/select.h"

namespace sqp {
namespace {

SchemaRef KvSchema() {
  static const SchemaRef kSchema = std::make_shared<const Schema>(
      *Schema::WithOrdering({{"ts", ValueType::kInt},
                             {"key", ValueType::kInt},
                             {"val", ValueType::kInt}},
                            "ts"));
  return kSchema;
}

TupleRef T(int64_t ts, int64_t key, int64_t val) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(val)});
}

// --- DbSink ---

TEST(DbSinkTest, StoresAndScans) {
  DbSink db(KvSchema());
  db.Push(Element(T(1, 1, 10)));
  db.Push(Element(T(2, 2, 20)));
  db.Push(Element(Punctuation::Watermark(5)));  // Not stored.
  EXPECT_EQ(db.size(), 2u);
  auto rows = db.Scan(Gt(Col(2), Lit(int64_t{15})));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0]->at(1).AsInt(), 2);
  EXPECT_EQ(db.Scan(nullptr).size(), 2u);
}

TEST(DbSinkTest, OneTimeAggregate) {
  DbSink db(KvSchema());
  db.Push(Element(T(1, 1, 10)));
  db.Push(Element(T(2, 1, 20)));
  db.Push(Element(T(3, 2, 5)));
  auto results = db.Aggregate({1}, {{AggKind::kSum, 2, 0.5}});
  std::map<int64_t, int64_t> sums;
  for (auto& [key, vals] : results) {
    sums[key.parts[0].AsInt()] = vals[0].AsInt();
  }
  EXPECT_EQ(sums[1], 30);
  EXPECT_EQ(sums[2], 5);
}

// --- Decompose ---

TEST(DecomposeTest, SumCountMinMax) {
  auto d = DecomposeAggregates({{AggKind::kSum, 2, 0.5},
                                {AggKind::kCount, -1, 0.5},
                                {AggKind::kMin, 2, 0.5}},
                               1);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->low_specs.size(), 3u);
  EXPECT_EQ(d->high_specs.size(), 3u);
  EXPECT_EQ(d->high_specs[0].kind, AggKind::kSum);
  EXPECT_EQ(d->high_specs[1].kind, AggKind::kSum);  // count merges by sum.
  EXPECT_EQ(d->high_specs[2].kind, AggKind::kMin);
  EXPECT_EQ(d->finalizers.size(), 3u);
}

TEST(DecomposeTest, AvgSplitsIntoSumAndCount) {
  auto d = DecomposeAggregates({{AggKind::kAvg, 2, 0.5}}, 1);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d->low_specs.size(), 2u);
  EXPECT_EQ(d->low_specs[0].kind, AggKind::kSum);
  EXPECT_EQ(d->low_specs[1].kind, AggKind::kCount);
  EXPECT_EQ(d->finalizers.size(), 1u);
}

TEST(DecomposeTest, HolisticRejected) {
  auto d = DecomposeAggregates({{AggKind::kMedian, 2, 0.5}}, 1);
  EXPECT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kUnimplemented);
}

// --- ThreeLevelSystem ---

TEST(ThreeLevelTest, ExactResultsDespiteTinyLowLevel) {
  ThreeLevelConfig cfg;
  cfg.key_cols = {1};
  cfg.aggs = {{AggKind::kCount, -1, 0.5},
              {AggKind::kSum, 2, 0.5},
              {AggKind::kAvg, 2, 0.5}};
  cfg.window_size = 100;
  cfg.low_slots = 4;  // Brutally small: constant eviction.
  cfg.low_node.queue_limit = 0;
  cfg.low_node.capacity_per_tick = 1e9;
  cfg.high_node.capacity_per_tick = 1e9;
  auto sys = ThreeLevelSystem::Make(KvSchema(), cfg);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();

  // Ground truth computed directly.
  std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>> truth;
  Rng rng(55);
  for (int i = 0; i < 5000; ++i) {
    int64_t ts = i;
    int64_t key = static_cast<int64_t>(rng.Uniform(50));
    int64_t val = static_cast<int64_t>(rng.Uniform(100));
    auto& [cnt, sum] = truth[{ts / 100, key}];
    ++cnt;
    sum += val;
    (*sys)->Arrive(T(ts, key, val));
    (*sys)->Tick();
  }
  (*sys)->Drain();

  EXPECT_GT((*sys)->partial_agg().agg_stats().evictions, 100u);
  const DbSink& db = (*sys)->db();
  ASSERT_EQ(db.size(), truth.size());
  for (const TupleRef& row : db.table()) {
    int64_t bucket = row->at(0).AsInt() / 100;
    int64_t key = row->at(1).AsInt();
    auto it = truth.find({bucket, key});
    ASSERT_NE(it, truth.end());
    EXPECT_DOUBLE_EQ(row->at(2).ToDouble(), double(it->second.first));
    EXPECT_DOUBLE_EQ(row->at(3).ToDouble(), double(it->second.second));
    double avg = double(it->second.second) / double(it->second.first);
    EXPECT_NEAR(row->at(4).AsDouble(), avg, 1e-9);
  }
}

TEST(ThreeLevelTest, LowLevelMemoryBoundedBySlots) {
  ThreeLevelConfig cfg;
  cfg.key_cols = {1};
  cfg.aggs = {{AggKind::kCount, -1, 0.5}};
  cfg.window_size = 1000000;  // One giant bucket.
  cfg.low_slots = 8;
  auto sys = ThreeLevelSystem::Make(KvSchema(), cfg);
  ASSERT_TRUE(sys.ok());
  Rng rng(56);
  size_t peak = 0;
  for (int i = 0; i < 20000; ++i) {
    (*sys)->Arrive(T(i, static_cast<int64_t>(rng.Uniform(100000)), 1));
    (*sys)->Tick();
    peak = std::max(peak, (*sys)->partial_agg().StateBytes());
  }
  EXPECT_LT(peak, 16384u);  // O(slots), not O(distinct keys).
}

TEST(ThreeLevelTest, UndecomposableAggregateFailsCleanly) {
  ThreeLevelConfig cfg;
  cfg.key_cols = {1};
  cfg.aggs = {{AggKind::kMedian, 2, 0.5}};
  auto sys = ThreeLevelSystem::Make(KvSchema(), cfg);
  EXPECT_FALSE(sys.ok());
}

}  // namespace
}  // namespace sqp
