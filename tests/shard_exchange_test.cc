#include <gtest/gtest.h>

#include <vector>

#include "exec/exchange.h"
#include "exec/plan.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t key, int64_t payload = 0) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(payload)});
}

// --- ShardRouter ---

TEST(ShardRouterTest, SingleShardAlwaysZero) {
  ShardRouter r(1, ShardRouting::kDisjoint, {{1}});
  EXPECT_EQ(r.Route(Element(T(1, 42)), 0), 0);
  EXPECT_EQ(r.Route(Element(Punctuation::Watermark(5)), 0), 0);
}

TEST(ShardRouterTest, DisjointIsDeterministicPerKey) {
  ShardRouter r(4, ShardRouting::kDisjoint, {{1}});
  for (int64_t key = 0; key < 64; ++key) {
    int first = r.Route(Element(T(1, key)), 0);
    ASSERT_GE(first, 0);
    ASSERT_LT(first, 4);
    // Same key, different ts/payload: same shard, always.
    EXPECT_EQ(r.Route(Element(T(99, key, 7)), 0), first);
  }
}

TEST(ShardRouterTest, WatermarksBroadcast) {
  ShardRouter r(4, ShardRouting::kDisjoint, {{1}});
  EXPECT_EQ(r.Route(Element(Punctuation::Watermark(10)), 0),
            ShardRouter::kBroadcast);
  ShardRouter rep(4, ShardRouting::kReplicated, {{1}, {1}});
  EXPECT_EQ(rep.Route(Element(Punctuation::Watermark(10)), 1),
            ShardRouter::kBroadcast);
}

TEST(ShardRouterTest, CloseKeyFollowsItsTuplesUnderDisjoint) {
  // The whole point of OneValueKeyHash: a CloseKey punctuation must land
  // on the shard owning the tuples it closes.
  ShardRouter r(8, ShardRouting::kDisjoint, {{1}});
  for (int64_t key = 0; key < 100; ++key) {
    int tuple_shard = r.Route(Element(T(1, key)), 0);
    int close_shard =
        r.Route(Element(Punctuation::CloseKey(5, Value(key))), 0);
    EXPECT_EQ(close_shard, tuple_shard) << "key " << key;
  }
}

TEST(ShardRouterTest, CloseKeyBroadcastsUnderReplicated) {
  ShardRouter r(4, ShardRouting::kReplicated, {{1}});
  EXPECT_EQ(r.Route(Element(Punctuation::CloseKey(5, Value(int64_t{3}))), 0),
            ShardRouter::kBroadcast);
}

TEST(ShardRouterTest, ReplicatedBroadcastsNonZeroPorts) {
  ShardRouter r(4, ShardRouting::kReplicated, {{1}, {1}});
  // Port 0 still partitions on its key...
  int s0 = r.Route(Element(T(1, 7)), 0);
  EXPECT_GE(s0, 0);
  // ...while port 1 goes everywhere.
  EXPECT_EQ(r.Route(Element(T(1, 7)), 1), ShardRouter::kBroadcast);
}

TEST(ShardRouterTest, EmptyKeyColumnsRoundRobin) {
  ShardRouter r(3, ShardRouting::kReplicated, {{}});
  std::vector<int> seen;
  for (int i = 0; i < 6; ++i) seen.push_back(r.Route(Element(T(i, 0)), 0));
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

// --- ShardMergeOp ---

TEST(ShardMergeTest, ForwardsTuplesInArrivalOrder) {
  Plan plan;
  auto* m = plan.Make<ShardMergeOp>(2, ShardRouting::kDisjoint);
  auto* sink = plan.Make<CollectorSink>();
  m->SetOutput(sink);
  m->Push(Element(T(1, 0)), 0);
  m->Push(Element(T(2, 1)), 1);
  m->Push(Element(T(3, 0)), 0);
  ASSERT_EQ(sink->count(), 3u);
  EXPECT_EQ(sink->tuples()[0]->ts(), 1);
  EXPECT_EQ(sink->tuples()[1]->ts(), 2);
  EXPECT_EQ(sink->tuples()[2]->ts(), 3);
}

TEST(ShardMergeTest, WatermarkIsMinAcrossShards) {
  Plan plan;
  auto* m = plan.Make<ShardMergeOp>(3, ShardRouting::kDisjoint);
  auto* sink = plan.Make<CollectorSink>();
  m->SetOutput(sink);

  m->Push(Element(Punctuation::Watermark(10)), 0);
  m->Push(Element(Punctuation::Watermark(20)), 1);
  // Shard 2 hasn't reported: nothing forwarded yet.
  EXPECT_TRUE(sink->punctuations().empty());
  EXPECT_EQ(m->merged_watermark(), INT64_MIN);

  m->Push(Element(Punctuation::Watermark(15)), 2);
  // min(10, 20, 15) = 10.
  ASSERT_EQ(sink->punctuations().size(), 1u);
  EXPECT_EQ(sink->punctuations()[0].ts, 10);
  EXPECT_EQ(m->merged_watermark(), 10);

  // Shard 0 advances to 30: min becomes 15.
  m->Push(Element(Punctuation::Watermark(30)), 0);
  ASSERT_EQ(sink->punctuations().size(), 2u);
  EXPECT_EQ(sink->punctuations()[1].ts, 15);
}

TEST(ShardMergeTest, WatermarkNeverRegressesOrDuplicates) {
  Plan plan;
  auto* m = plan.Make<ShardMergeOp>(2, ShardRouting::kDisjoint);
  auto* sink = plan.Make<CollectorSink>();
  m->SetOutput(sink);
  m->Push(Element(Punctuation::Watermark(10)), 0);
  m->Push(Element(Punctuation::Watermark(10)), 1);  // min reaches 10.
  m->Push(Element(Punctuation::Watermark(10)), 0);  // No change: no emit.
  m->Push(Element(Punctuation::Watermark(5)), 1);   // Stale: ignored.
  ASSERT_EQ(sink->punctuations().size(), 1u);
  EXPECT_EQ(sink->punctuations()[0].ts, 10);
}

TEST(ShardMergeTest, CloseKeyForwardsThroughUnderDisjoint) {
  Plan plan;
  auto* m = plan.Make<ShardMergeOp>(4, ShardRouting::kDisjoint);
  auto* sink = plan.Make<CollectorSink>();
  m->SetOutput(sink);
  m->Push(Element(Punctuation::CloseKey(7, Value(int64_t{3}))), 2);
  ASSERT_EQ(sink->punctuations().size(), 1u);
  EXPECT_TRUE(sink->punctuations()[0].has_key);
  EXPECT_EQ(sink->punctuations()[0].ts, 7);
}

TEST(ShardMergeTest, CloseKeyDedupedUnderReplicated) {
  Plan plan;
  auto* m = plan.Make<ShardMergeOp>(3, ShardRouting::kReplicated);
  auto* sink = plan.Make<CollectorSink>();
  m->SetOutput(sink);
  m->Push(Element(Punctuation::CloseKey(7, Value(int64_t{3}))), 0);
  m->Push(Element(Punctuation::CloseKey(9, Value(int64_t{3}))), 1);
  EXPECT_TRUE(sink->punctuations().empty());  // One shard missing.
  m->Push(Element(Punctuation::CloseKey(8, Value(int64_t{3}))), 2);
  ASSERT_EQ(sink->punctuations().size(), 1u);
  EXPECT_EQ(sink->punctuations()[0].ts, 9);  // Max across shards.
  // The dedup entry was retired: a fresh round needs all three again.
  m->Push(Element(Punctuation::CloseKey(11, Value(int64_t{3}))), 0);
  EXPECT_EQ(sink->punctuations().size(), 1u);
}

TEST(ShardMergeTest, FlushForwardsOnlyOnNthCall) {
  Plan plan;
  auto* m = plan.Make<ShardMergeOp>(3, ShardRouting::kDisjoint);
  int flushes = 0;
  class FlushCounter : public Operator {
   public:
    explicit FlushCounter(int* n) : Operator("flush-counter"), n_(n) {}
    void Push(const Element& e, int = 0) override { CountIn(e); }
    void Flush() override { ++*n_; }

   private:
    int* n_;
  };
  auto* fc = plan.Make<FlushCounter>(&flushes);
  m->SetOutput(fc);
  m->Flush();
  m->Flush();
  EXPECT_EQ(flushes, 0);
  m->Flush();
  EXPECT_EQ(flushes, 1);
}

}  // namespace
}  // namespace sqp
