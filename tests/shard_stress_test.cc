// Concurrency stress for ShardedOp, aimed at the TSan CI job: stats
// readers racing the shard/merge workers, bounded queues under both
// backpressure policies, and teardown without a flush.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "exec/sharded_op.h"
#include "exec/window_join.h"
#include "obs/event_log.h"
#include "obs/registry.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t key, int64_t payload = 0) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(payload)});
}

GroupByOptions Grouping() {
  GroupByOptions g;
  g.key_cols = {1};
  g.aggs = {AggSpec{AggKind::kCount, -1, 0.5}};
  g.window = WindowSpec::TimeTumbling(50);
  return g;
}

TEST(ShardStressTest, StatsReadersRaceTheWorkers) {
  Plan plan;
  ShardedOpOptions so;
  so.shards = 4;
  so.key_cols = {{1}};
  so.batch = 8;
  auto* sharded = plan.Make<ShardedOp>(
      so, [](int) { return std::make_unique<GroupByAggregateOp>(Grouping()); });
  auto* sink = plan.Make<CountingSink>();
  sharded->SetOutput(sink);

  // Reader thread hammers every cross-thread accessor while the caller
  // thread ingests and the workers drain; under TSan this is the test.
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    obs::Snapshot snap;
    while (!stop.load(std::memory_order_relaxed)) {
      obs::SnapshotBuilder b(&snap);
      sharded->CollectStats(b, {{"query", "stress"}});
      for (int i = 0; i < 4; ++i) (void)sharded->shard_stats(i);
      (void)sharded->SkewRatio();
      (void)sharded->StateBytes();
      (void)sharded->dropped();
      (void)sharded->merged_tuples();
      snap.samples.clear();
    }
  });

  Rng rng(1);
  for (int i = 0; i < 20000; ++i) {
    sharded->Push(Element(T(i / 8, static_cast<int64_t>(rng.Uniform(64)))), 0);
  }
  sharded->Flush();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  uint64_t routed = 0;
  for (int i = 0; i < 4; ++i) routed += sharded->shard_stats(i).routed;
  EXPECT_EQ(routed, 20000u);
  EXPECT_GT(sink->tuples(), 0u);
}

TEST(ShardStressTest, TinyQueuesBlockWithoutDeadlockOrLoss) {
  Plan plan;
  ShardedOpOptions so;
  so.shards = 3;
  so.key_cols = {{1}, {1}};
  so.queue_limit = 4;        // Force constant producer blocking.
  so.merge_queue_limit = 4;  // And merge-side blocking too.
  so.batch = 2;
  BinaryWindowJoinOp::Options j;
  j.left_cols = {1};
  j.right_cols = {1};
  j.left_window = WindowSpec::TimeSliding(30);
  j.right_window = WindowSpec::TimeSliding(30);
  auto* sharded = plan.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<BinaryWindowJoinOp>(j); });
  auto* sink = plan.Make<CountingSink>();
  sharded->SetOutput(sink);

  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    sharded->Push(Element(T(i / 2, static_cast<int64_t>(rng.Uniform(8)))),
                  static_cast<int>(rng.Uniform(2)));
  }
  sharded->Flush();
  sharded->Flush();
  EXPECT_EQ(sharded->dropped(), 0u);  // kBlock: nothing lost.
  EXPECT_GT(sink->tuples(), 0u);
}

TEST(ShardStressTest, DropNewestShedsButNeverDropsPunctuations) {
  Plan plan;
  ShardedOpOptions so;
  so.shards = 2;
  so.key_cols = {{1}};
  so.queue_limit = 2;
  so.backpressure = Backpressure::kDropNewest;
  so.batch = 64;  // Larger than the queue: the limit must wake.
  // A deliberately slow replica so queues overflow: every tuple rescans
  // a growing window.
  GroupByOptions g;
  g.key_cols = {1};
  g.aggs = {AggSpec{AggKind::kCountDistinct, 2, 0.5}};
  g.window = WindowSpec::TimeTumbling(1000);
  auto* sharded = plan.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<GroupByAggregateOp>(g); });
  auto* sink = plan.Make<CollectorSink>();
  sharded->SetOutput(sink);

  for (int i = 0; i < 50000; ++i) {
    sharded->Push(Element(T(i / 100, i % 16, i)), 0);
  }
  for (int w = 0; w < 100; ++w) {
    sharded->Push(Element(Punctuation::Watermark(600 + w)), 0);
  }
  sharded->Flush();

  uint64_t routed = 0;
  for (int i = 0; i < 2; ++i) routed += sharded->shard_stats(i).routed;
  // Shedding happened (the queues are 2 deep), was counted, and the
  // books balance: routed + dropped = offered.
  EXPECT_EQ(routed + sharded->dropped(), 50000u + 100u * 2u);
  // Every watermark bypassed the full queues and reached both shards:
  // the merge's min rule advanced to the last one.
  // (CollectorSink keeps punctuations separately.)
  ASSERT_FALSE(sink->punctuations().empty());
  EXPECT_EQ(sink->punctuations().back().ts, 699);
}

/// Pass-through with a fixed per-element delay, so a tiny shard queue
/// stays full and the producer has to block.
class SlowReplica : public Operator {
 public:
  SlowReplica() : Operator("slow-replica") {}
  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    Emit(e);
  }
};

TEST(ShardStressTest, BlockedProducerReportsRateLimitedStall) {
  Plan plan;
  obs::EventLog events;
  ShardedOpOptions so;
  so.shards = 2;
  so.key_cols = {{1}};
  so.queue_limit = 2;
  so.events = &events;
  so.event_label = "q7";
  auto* sharded = plan.Make<ShardedOp>(
      so, [](int) { return std::make_unique<SlowReplica>(); });
  auto* sink = plan.Make<CountingSink>();
  sharded->SetOutput(sink);

  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 2000; ++i) {
    sharded->Push(Element(T(i, i % 8)), 0);
  }
  sharded->Flush();
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(sink->tuples(), 2000u);  // kBlock: the stall lost nothing.
  std::vector<obs::EngineEvent> tail = events.Tail();
  ASSERT_FALSE(tail.empty());
  for (const obs::EngineEvent& ev : tail) {
    EXPECT_EQ(ev.kind, obs::EventKind::kShardStall);
    EXPECT_EQ(ev.query, "q7");
    EXPECT_NE(ev.message.find("queue full"), std::string::npos);
  }
  // Rate limit: at most one event per shard per started second.
  EXPECT_LE(static_cast<double>(events.total()), 2.0 * (1.0 + secs));
}

TEST(ShardStressTest, DestructionWithoutFlushAbandonsCleanly) {
  for (int round = 0; round < 10; ++round) {
    Plan plan;
    ShardedOpOptions so;
    so.shards = 4;
    so.key_cols = {{1}};
    so.queue_limit = 8;
    auto* sharded = plan.Make<ShardedOp>(so, [](int) {
      return std::make_unique<GroupByAggregateOp>(Grouping());
    });
    auto* sink = plan.Make<CountingSink>();
    sharded->SetOutput(sink);
    for (int i = 0; i < 2000; ++i) {
      sharded->Push(Element(T(i / 4, i % 32)), 0);
    }
    EXPECT_TRUE(sharded->running());
    // Plan teardown destroys the ShardedOp mid-stream: StopAndJoin must
    // abandon queued work and join every worker without flushing.
  }
}

TEST(ShardStressTest, ReusableAcrossManyShortRuns) {
  // Start/drain cost and thread lifecycle: many small ShardedOps in
  // sequence, each fully drained — catches leaked threads under TSan.
  for (int round = 0; round < 20; ++round) {
    Plan plan;
    ShardedOpOptions so;
    so.shards = 2;
    so.key_cols = {{1}};
    auto* sharded = plan.Make<ShardedOp>(so, [](int) {
      return std::make_unique<GroupByAggregateOp>(Grouping());
    });
    auto* sink = plan.Make<CountingSink>();
    sharded->SetOutput(sink);
    for (int i = 0; i < 300; ++i) {
      sharded->Push(Element(T(i, i % 5)), 0);
    }
    sharded->Flush();
    EXPECT_FALSE(sharded->running());
    EXPECT_GT(sink->tuples(), 0u);
  }
}

}  // namespace
}  // namespace sqp
