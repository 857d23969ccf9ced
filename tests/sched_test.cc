#include <gtest/gtest.h>

#include "exec/plan.h"
#include "exec/select.h"
#include "sched/policies.h"
#include "sched/queued_executor.h"
#include "sched/sim.h"

namespace sqp {
namespace {

// The slide-43 setting: op1 (sel 0.2, 1 time unit), op2 (sel 0, 1 time
// unit); one tuple arrives at each of t = 0..4 (bursty: rate 1 during the
// burst, long-run average 0.5).
ChainSimConfig Slide43Config() {
  ChainSimConfig cfg;
  cfg.ops = {{1.0, 0.2}, {1.0, 0.0}};
  cfg.ticks = 5;
  return cfg;
}

TEST(ChainSimTest, Slide43FifoColumnExact) {
  auto cfg = Slide43Config();
  ScheduledArrival arrivals({1, 1, 1, 1, 1});
  auto policy = MakeFifoPolicy();
  auto result = RunChainSim(cfg, arrivals, *policy);
  // Slide 43 FIFO column: 1, 1.2, 2.0, 2.2, 3.0.
  ASSERT_EQ(result.memory_at_tick.size(), 5u);
  EXPECT_NEAR(result.memory_at_tick[0], 1.0, 1e-9);
  EXPECT_NEAR(result.memory_at_tick[1], 1.2, 1e-9);
  EXPECT_NEAR(result.memory_at_tick[2], 2.0, 1e-9);
  EXPECT_NEAR(result.memory_at_tick[3], 2.2, 1e-9);
  EXPECT_NEAR(result.memory_at_tick[4], 3.0, 1e-9);
}

TEST(ChainSimTest, Slide43GreedyColumnExact) {
  auto cfg = Slide43Config();
  ScheduledArrival arrivals({1, 1, 1, 1, 1});
  auto policy = MakeGreedyPolicy();
  auto result = RunChainSim(cfg, arrivals, *policy);
  // Slide 43 Greedy column: 1, 1.2, 1.4, 1.6, 1.8.
  ASSERT_EQ(result.memory_at_tick.size(), 5u);
  EXPECT_NEAR(result.memory_at_tick[0], 1.0, 1e-9);
  EXPECT_NEAR(result.memory_at_tick[1], 1.2, 1e-9);
  EXPECT_NEAR(result.memory_at_tick[2], 1.4, 1e-9);
  EXPECT_NEAR(result.memory_at_tick[3], 1.6, 1e-9);
  EXPECT_NEAR(result.memory_at_tick[4], 1.8, 1e-9);
}

TEST(ChainSimTest, ChainMatchesGreedyOnTwoOpChain) {
  // For this 2-operator chain the envelope makes Chain == Greedy.
  auto cfg = Slide43Config();
  ScheduledArrival a1({1, 1, 1, 1, 1}), a2({1, 1, 1, 1, 1});
  auto chain = MakeChainPolicy({1.0, 1.0}, {0.2, 0.0});
  auto greedy = MakeGreedyPolicy();
  auto r1 = RunChainSim(cfg, a1, *chain);
  auto r2 = RunChainSim(cfg, a2, *greedy);
  EXPECT_EQ(r1.memory_at_tick, r2.memory_at_tick);
}

TEST(ChainSimTest, ChainBeatsFifoOnBurstyArrivals) {
  ChainSimConfig cfg;
  cfg.ops = {{1.0, 0.5}, {1.0, 0.3}, {1.0, 0.0}};
  cfg.ticks = 2000;
  BurstyArrival a1(1.0, 20, 40, 5), a2(1.0, 20, 40, 5);
  auto chain = MakeChainPolicy({1.0, 1.0, 1.0}, {0.5, 0.3, 0.0});
  auto fifo = MakeFifoPolicy();
  auto rc = RunChainSim(cfg, a1, *chain);
  auto rf = RunChainSim(cfg, a2, *fifo);
  EXPECT_LT(rc.avg_memory, rf.avg_memory);
  EXPECT_LE(rc.peak_memory, rf.peak_memory + 1e-9);
}

TEST(ChainSimTest, AllPoliciesCompleteSameWorkEventually) {
  ChainSimConfig cfg;
  cfg.ops = {{1.0, 0.5}, {1.0, 0.0}};
  cfg.ticks = 1000;
  // Light load: every policy must keep up.
  for (auto make : {&MakeFifoPolicy, &MakeGreedyPolicy, &MakeRoundRobinPolicy}) {
    UniformArrival arrivals(0.3);
    auto policy = make();
    auto r = RunChainSim(cfg, arrivals, *policy);
    EXPECT_NEAR(static_cast<double>(r.completed), 0.3 * 1000, 5.0)
        << policy->name();
  }
}

TEST(PolicyTest, FifoPicksOldestHead) {
  auto fifo = MakeFifoPolicy();
  std::vector<OpView> views(2);
  views[0].queue_len = 1;
  views[0].head_seq = 10;
  views[1].queue_len = 1;
  views[1].head_seq = 3;
  EXPECT_EQ(fifo->Pick(views), 1);
}

TEST(PolicyTest, GreedyPicksBestReleaseRate) {
  auto greedy = MakeGreedyPolicy();
  std::vector<OpView> views(2);
  views[0] = {1, 0, 1.0, 0.2, 1.0};  // Releases 0.8/unit.
  views[1] = {1, 1, 1.0, 0.0, 4.0};  // Releases 1.0 but costs 4 -> 0.25.
  EXPECT_EQ(greedy->Pick(views), 0);
}

TEST(PolicyTest, EmptyQueuesYieldNoPick) {
  auto fifo = MakeFifoPolicy();
  auto rr = MakeRoundRobinPolicy();
  std::vector<OpView> views(3);
  EXPECT_EQ(fifo->Pick(views), -1);
  EXPECT_EQ(rr->Pick(views), -1);
}

TEST(PolicyTest, RoundRobinCycles) {
  auto rr = MakeRoundRobinPolicy();
  std::vector<OpView> views(3);
  for (auto& v : views) v.queue_len = 1;
  EXPECT_EQ(rr->Pick(views), 0);
  EXPECT_EQ(rr->Pick(views), 1);
  EXPECT_EQ(rr->Pick(views), 2);
  EXPECT_EQ(rr->Pick(views), 0);
}

TEST(PolicyTest, ChainPriorityFromEnvelope) {
  // Costs 1,1,1; sels 0.9, 0.1, 0.0. Envelope: ops 0 and 1 share the
  // steep first segment (slope -0.455); op 2 sits on a shallow one
  // (-0.09). Chain must prefer the first segment over op 2 even when
  // op 2 holds the older tuple — exactly where FIFO differs.
  auto chain = MakeChainPolicy({1, 1, 1}, {0.9, 0.1, 0.0});
  std::vector<OpView> views(3);
  views[1].queue_len = 1;
  views[1].head_seq = 5;
  views[2].queue_len = 1;
  views[2].head_seq = 0;  // Older, but on the shallow segment.
  EXPECT_EQ(chain->Pick(views), 1);
  auto fifo = MakeFifoPolicy();
  EXPECT_EQ(fifo->Pick(views), 2);
  // Within one segment, Chain falls back to FIFO order.
  views[0].queue_len = 1;
  views[0].head_seq = 7;
  EXPECT_EQ(chain->Pick(views), 1);  // Same segment as op0, older head.
}

// --- QueuedExecutor: policies over real operators ---

TEST(QueuedExecutorTest, ProcessesChainWithCosts) {
  Plan plan;
  auto* s1 = plan.Make<SelectOp>(Gt(Col(1), Lit(int64_t{10})), "s1");
  auto* s2 = plan.Make<SelectOp>(Lt(Col(1), Lit(int64_t{100})), "s2");
  auto* sink = plan.Make<CollectorSink>();

  std::vector<QueuedExecutor::Stage> stages = {
      {s1, 1.0, 0.5, 0},
      {s2, 1.0, 0.5, 0},
  };
  QueuedExecutor exec(stages, sink, MakeFifoPolicy());
  for (int64_t v : {5, 50, 500, 60}) {
    exec.Arrive(Element(MakeTuple(v, {Value(v), Value(v)})));
  }
  EXPECT_EQ(exec.QueuedElements(), 4u);
  for (int t = 0; t < 20; ++t) exec.Tick();
  exec.Drain();
  EXPECT_EQ(sink->count(), 2u);  // 50 and 60 pass both filters.
}

TEST(QueuedExecutorTest, BoundedQueueDrops) {
  Plan plan;
  auto* s1 = plan.Make<SelectOp>(Lit(int64_t{1}), "s1");
  auto* sink = plan.Make<CountingSink>();
  std::vector<QueuedExecutor::Stage> stages = {{s1, 1.0, 1.0, 2}};
  QueuedExecutor exec(stages, sink, MakeFifoPolicy());
  for (int i = 0; i < 5; ++i) {
    exec.Arrive(Element(MakeTuple(i, {Value(int64_t{i})})));
  }
  EXPECT_EQ(exec.dropped(), 3u);
  exec.Drain();
  EXPECT_EQ(sink->tuples(), 2u);
}

TEST(QueuedExecutorTest, CapacityLimitsWorkPerTick) {
  Plan plan;
  auto* s1 = plan.Make<SelectOp>(Lit(int64_t{1}), "s1");
  auto* sink = plan.Make<CountingSink>();
  std::vector<QueuedExecutor::Stage> stages = {{s1, 2.0, 1.0, 0}};  // Cost 2.
  QueuedExecutor exec(stages, sink, MakeFifoPolicy());
  for (int i = 0; i < 4; ++i) {
    exec.Arrive(Element(MakeTuple(i, {Value(int64_t{i})})));
  }
  exec.Tick(1.0);  // Half a tuple of progress.
  EXPECT_EQ(sink->tuples(), 0u);
  exec.Tick(1.0);  // Completes the first tuple.
  EXPECT_EQ(sink->tuples(), 1u);
  // The executor drives its stage through Operator::Process, so the
  // stage's slot counts one delivery per processed element.
  EXPECT_EQ(s1->stats().singles, 1u);
  exec.Drain();
  EXPECT_EQ(s1->stats().singles, 4u);
  EXPECT_EQ(s1->stats().tuples_in, 4u);
}

}  // namespace
}  // namespace sqp
