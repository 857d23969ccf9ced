#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "exec/column_batch.h"
#include "exec/expr.h"
#include "exec/plan.h"
#include "exec/project.h"
#include "exec/select.h"
#include "exec/window_agg.h"
#include "exec/window_join.h"
#include "sched/parallel_executor.h"
#include "sched/policies.h"
#include "sched/queued_executor.h"

namespace sqp {
namespace {

// Input schema for the join chain: [pair_id, side, v].
Element PairTuple(int64_t i, int64_t v) {
  return Element(MakeTuple(i, {Value(i / 2), Value(i % 2), Value(v)}));
}

/// Unary wrapper routing elements into a symmetric hash join's ports by
/// the `side` column (the executors run linear chains).
class SelfJoinStage : public Operator {
 public:
  SelfJoinStage()
      : Operator("self-join"),
        join_(BinaryWindowJoinOp::Options::Unwindowed({0}, {0})),
        bridge_([this](const Element& e) { Emit(e); }) {
    join_.SetOutput(&bridge_);
  }

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    if (e.is_punctuation()) {
      Emit(e);
      return;
    }
    join_.Push(e, static_cast<int>(e.tuple()->at(1).AsInt()));
  }

  void Flush() override {
    join_.Flush();
    join_.Flush();
    Operator::Flush();
  }

 private:
  BinaryWindowJoinOp join_;
  CallbackSink bridge_;
};

/// A pass-through operator with a fixed per-element delay, to force
/// queue build-up. Bounded per-element work keeps Stop() responsive.
class SlowPass : public Operator {
 public:
  explicit SlowPass(int delay_us) : Operator("slow-pass"), delay_us_(delay_us) {}

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
    Emit(e);
  }

 private:
  int delay_us_;
};

std::vector<Operator*> MakeJoinChain(Plan* plan) {
  auto* sel = plan->Make<SelectOp>(Gt(Col(2), Lit(int64_t{-1})), "sel");
  auto* join = plan->Make<SelfJoinStage>();
  auto* agg = plan->Make<WindowAggregateOp>(
      WindowSpec::TimeSliding(64),
      std::vector<AggSpec>{{AggKind::kCount, -1, 0.5},
                           {AggKind::kSum, 2, 0.5}},
      "agg");
  return {sel, join, agg};
}

std::vector<std::string> Sorted(const std::vector<TupleRef>& rows) {
  std::vector<std::string> s;
  s.reserve(rows.size());
  for (const TupleRef& t : rows) s.push_back(t->ToString());
  std::sort(s.begin(), s.end());
  return s;
}

TEST(ParallelExecutorTest, MatchesSerialExecutorOnJoinChain) {
  const int kN = 2000;
  // Serial reference: same chain under the QueuedExecutor.
  Plan splan;
  std::vector<Operator*> schain = MakeJoinChain(&splan);
  auto* ssink = splan.Make<CollectorSink>();
  std::vector<QueuedExecutor::Stage> sstages;
  for (Operator* op : schain) sstages.push_back({op, 1.0, 1.0, 0});
  QueuedExecutor serial(sstages, ssink, MakeFifoPolicy());
  for (int64_t i = 0; i < kN; ++i) serial.Arrive(PairTuple(i, i % 97));
  serial.Tick(1e15);
  serial.Drain();

  Plan pplan;
  std::vector<Operator*> pchain = MakeJoinChain(&pplan);
  auto* psink = pplan.Make<CollectorSink>();
  std::vector<ParallelExecutor::Stage> pstages;
  for (Operator* op : pchain) {
    pstages.push_back({op, 64, Backpressure::kBlock, 0});
  }
  ParallelExecutor par(pstages, psink);
  par.Start();
  for (int64_t i = 0; i < kN; ++i) {
    EXPECT_TRUE(par.Arrive(PairTuple(i, i % 97)));
  }
  par.Drain();

  ASSERT_EQ(ssink->count(), psink->count());
  // Order-insensitive comparison at the exchange point: the threaded
  // pipeline preserves per-stage FIFO order, but we only require
  // multiset equality.
  EXPECT_EQ(Sorted(ssink->tuples()), Sorted(psink->tuples()));
  EXPECT_EQ(par.dropped(), 0u);
}

TEST(ParallelExecutorTest, StageStatsAccount) {
  Plan plan;
  auto* a = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{-1})), "a");
  auto* b = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{49})), "b");
  auto* sink = plan.Make<CountingSink>();
  std::vector<ParallelExecutor::Stage> stages = {
      {a, 0, Backpressure::kBlock, 0}, {b, 0, Backpressure::kBlock, 0}};
  ParallelExecutor exec(stages, sink);
  exec.Start();
  for (int64_t i = 0; i < 100; ++i) {
    exec.Arrive(Element(MakeTuple(i, {Value(i)})));
  }
  exec.Drain();
  auto s0 = exec.stage_stats(0);
  auto s1 = exec.stage_stats(1);
  EXPECT_EQ(s0.enqueued, 100u);
  EXPECT_EQ(s0.processed, 100u);
  EXPECT_EQ(s0.dropped, 0u);
  EXPECT_EQ(s0.Backlog(), 0u);
  EXPECT_EQ(s1.enqueued, 100u);  // Stage a passes everything.
  EXPECT_EQ(s1.processed, 100u);
  EXPECT_GE(s0.max_queue_depth, 1u);
  EXPECT_EQ(sink->tuples(), 50u);  // 50..99 pass stage b.
}

TEST(ParallelExecutorTest, BackpressureBlocksInsteadOfDropping) {
  Plan plan;
  auto* slow = plan.Make<SlowPass>(100);
  auto* sink = plan.Make<CountingSink>();
  std::vector<ParallelExecutor::Stage> stages = {
      {slow, 4, Backpressure::kBlock, 0}};
  ParallelExecutor exec(stages, sink);
  exec.Start();
  // Pushing far more than the bound at full speed must block (not drop)
  // until the slow worker frees slots.
  for (int64_t i = 0; i < 300; ++i) {
    EXPECT_TRUE(exec.Arrive(Element(MakeTuple(i, {Value(i)}))));
  }
  exec.Drain();
  EXPECT_EQ(exec.dropped(), 0u);
  EXPECT_EQ(sink->tuples(), 300u);
  EXPECT_LE(exec.stage_stats(0).max_queue_depth, 4u);
}

TEST(ParallelExecutorTest, DropNewestShedsAndCounts) {
  Plan plan;
  auto* slow = plan.Make<SlowPass>(200);
  auto* sink = plan.Make<CountingSink>();
  std::vector<ParallelExecutor::Stage> stages = {
      {slow, 4, Backpressure::kDropNewest, 0}};
  ParallelExecutor exec(stages, sink);
  exec.Start();
  uint64_t accepted = 0;
  for (int64_t i = 0; i < 200; ++i) {
    if (exec.Arrive(Element(MakeTuple(i, {Value(i)})))) ++accepted;
  }
  exec.Drain();
  auto s = exec.stage_stats(0);
  EXPECT_GT(s.dropped, 0u);
  EXPECT_EQ(s.dropped + accepted, 200u);
  EXPECT_EQ(sink->tuples(), accepted);
}

TEST(ParallelExecutorTest, PunctuationsBypassFullQueues) {
  Plan plan;
  auto* slow = plan.Make<SlowPass>(500);
  auto* sink = plan.Make<CollectorSink>();
  std::vector<ParallelExecutor::Stage> stages = {
      {slow, 2, Backpressure::kDropNewest, 0}};
  ParallelExecutor exec(stages, sink);
  exec.Start();
  for (int64_t i = 0; i < 50; ++i) {
    exec.Arrive(Element(MakeTuple(i, {Value(i)})));
  }
  // The queue is saturated; a watermark must still get through.
  EXPECT_TRUE(exec.Arrive(Element(Punctuation::Watermark(100))));
  exec.Drain();
  ASSERT_EQ(sink->punctuations().size(), 1u);
  EXPECT_EQ(sink->punctuations()[0].ts, 100);
}

/// Pass-through that, on the trigger watermark, first emits one columnar
/// batch of four tuples with two punctuation slots (ts 10 and 20).
class ColumnarBurst : public Operator {
 public:
  static constexpr int64_t kTrigger = 1000;
  ColumnarBurst() : Operator("columnar-burst") {}

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    if (e.is_punctuation() && e.ts() == kTrigger) {
      ElementBatch rows;
      rows.push_back(Element(MakeTuple(1, {Value(int64_t{1})})));
      rows.push_back(Element(Punctuation::Watermark(10)));
      rows.push_back(Element(MakeTuple(2, {Value(int64_t{2})})));
      rows.push_back(Element(MakeTuple(3, {Value(int64_t{3})})));
      rows.push_back(Element(Punctuation::Watermark(20)));
      rows.push_back(Element(MakeTuple(4, {Value(int64_t{4})})));
      ColumnBatch cols;
      ASSERT_TRUE(ColumnBatch::FromRows(rows, &cols));
      EmitColumns(std::move(cols));
    }
    Emit(e);
  }
};

/// Records what reaches it; the first element parks the worker until
/// the test opens the gate, so the stage's queue can be filled.
class GatedRecorder : public Operator {
 public:
  GatedRecorder() : Operator("gated-recorder") {}

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    if (!entered.exchange(true)) {
      while (!open.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    if (e.is_punctuation()) {
      puncts.push_back(e.ts());
    } else {
      ++tuples;
    }
  }

  std::atomic<bool> entered{false};
  std::atomic<bool> open{false};
  std::vector<int64_t> puncts;  // Read after Drain.
  uint64_t tuples = 0;
};

TEST(ParallelExecutorTest, ShedColumnarBatchKeepsPunctuationsInOrder) {
  Plan plan;
  auto* burst = plan.Make<ColumnarBurst>();
  auto* gate = plan.Make<GatedRecorder>();
  std::vector<ParallelExecutor::Stage> stages = {
      {burst, 0, Backpressure::kBlock, 0},
      {gate, 4, Backpressure::kDropNewest, 0}};
  ParallelExecutor exec(stages, nullptr);
  exec.Start();
  auto wait_for = [](auto done) {
    for (int i = 0; i < 20000 && !done(); ++i) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return done();
  };
  // Park stage 1's worker on its first tuple, then fill its queue. The
  // waits EXPECT rather than ASSERT so a failure still opens the gate.
  exec.Arrive(Element(MakeTuple(0, {Value(int64_t{0})})));
  EXPECT_TRUE(wait_for([&] { return gate->entered.load(); }));
  for (int64_t i = 0; i < 4; ++i) {
    exec.Arrive(Element(MakeTuple(i, {Value(i)})));
  }
  EXPECT_TRUE(
      wait_for([&] { return exec.stage_stats(1).queue_depth == 4; }));
  // The columnar batch meets the full kDropNewest queue: its four rows
  // are shed, its two punctuation slots and the trigger still land.
  exec.Arrive(Element(Punctuation::Watermark(ColumnarBurst::kTrigger)));
  EXPECT_TRUE(wait_for([&] { return exec.stage_stats(1).enqueued == 8; }));
  gate->open.store(true);
  exec.Drain();
  EXPECT_EQ(exec.stage_stats(1).dropped, 4u);
  EXPECT_EQ(exec.dropped(), 4u);
  EXPECT_EQ(gate->tuples, 5u);
  EXPECT_EQ(gate->puncts,
            (std::vector<int64_t>{10, 20, ColumnarBurst::kTrigger}));
}

TEST(ParallelExecutorTest, StopWhileQueuesFullJoinsCleanly) {
  Plan plan;
  auto* slow = plan.Make<SlowPass>(1000);
  auto* pass = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{-1})), "pass");
  auto* sink = plan.Make<CountingSink>();
  std::vector<ParallelExecutor::Stage> stages = {
      {slow, 4, Backpressure::kBlock, 0}, {pass, 4, Backpressure::kBlock, 0}};
  ParallelExecutor exec(stages, sink);
  exec.Start();
  // Producer blocks on the full entry queue; Stop() must unblock it and
  // join without processing the backlog.
  std::atomic<uint64_t> accepted{0};
  std::thread producer([&] {
    for (int64_t i = 0; i < 1000; ++i) {
      if (exec.Arrive(Element(MakeTuple(i, {Value(i)})))) ++accepted;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  exec.Stop();
  producer.join();
  EXPECT_FALSE(exec.running());
  auto s = exec.stage_stats(0);
  EXPECT_LE(s.processed, s.enqueued);
  EXPECT_LT(accepted.load(), 1000u);  // The tail was refused, not queued.
}

TEST(ParallelExecutorTest, DrainWhileProducersRacingIsLossAccounted) {
  Plan plan;
  auto* pass = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{-1})), "pass");
  auto* sink = plan.Make<CountingSink>();
  std::vector<ParallelExecutor::Stage> stages = {
      {pass, 128, Backpressure::kBlock, 0}};
  ParallelExecutor exec(stages, sink);
  exec.Start();
  std::atomic<uint64_t> accepted{0};
  std::thread producer([&] {
    for (int64_t i = 0; i < 20000; ++i) {
      if (exec.Arrive(Element(MakeTuple(i, {Value(i)})))) ++accepted;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  exec.Drain();  // Races the producer: later Arrives return false.
  producer.join();
  EXPECT_EQ(sink->tuples(), accepted.load());
}

// Stress shaped for TSan: several stages, bounded queues, two producer
// threads hammering the MPSC entry queue, punctuations mixed in.
TEST(ParallelExecutorStress, MultiProducerBoundedChain) {
  Plan plan;
  auto* s0 = plan.Make<SelectOp>(Gt(Col(2), Lit(int64_t{-1})), "s0");
  auto* join = plan.Make<SelfJoinStage>();
  auto* s1 = plan.Make<SelectOp>(Gt(Col(2), Lit(int64_t{-1})), "s1");
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(0), Col(2)},
                                    "proj");
  auto* sink = plan.Make<CountingSink>();
  std::vector<ParallelExecutor::Stage> stages;
  for (Operator* op : std::vector<Operator*>{s0, join, s1, proj}) {
    stages.push_back({op, 512, Backpressure::kBlock, 0});
  }
  ParallelExecutor exec(stages, sink);
  exec.Start();
  const int kPerProducer = 20000;
  auto produce = [&](int64_t base) {
    for (int64_t i = 0; i < kPerProducer; ++i) {
      exec.Arrive(PairTuple(base + i, i % 31));
      if (i % 1000 == 999) {
        exec.Arrive(Element(Punctuation::Watermark(base + i)));
      }
    }
  };
  std::thread p1(produce, 0);
  std::thread p2(produce, int64_t{1} << 32);  // Disjoint pair_ids.
  p1.join();
  p2.join();
  exec.Drain();
  EXPECT_EQ(exec.dropped(), 0u);
  // Each producer's range pairs up internally: every two tuples with the
  // same pair_id join exactly once.
  EXPECT_EQ(sink->tuples(), static_cast<uint64_t>(kPerProducer));
  uint64_t total_in = exec.stage_stats(0).enqueued;
  EXPECT_EQ(total_in,
            2u * kPerProducer + 2u * (kPerProducer / 1000));
}

// --- QueuedExecutor / ParallelExecutor stats parity ---

TEST(StageStatsParityTest, SerialExecutorReportsPerStageDrops) {
  Plan plan;
  auto* a = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{-1})), "a");
  auto* b = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{-1})), "b");
  auto* sink = plan.Make<CountingSink>();
  // Stage 1's queue bound is 1: the relay hand-off must shed and charge
  // the drop to stage 1, not lose it silently.
  std::vector<QueuedExecutor::Stage> stages = {{a, 1.0, 1.0, 0},
                                               {b, 1.0, 1.0, 1}};
  QueuedExecutor exec(stages, sink, MakeFifoPolicy());
  for (int64_t i = 0; i < 6; ++i) {
    exec.Arrive(Element(MakeTuple(i, {Value(i)})));
  }
  // FIFO delivers all of stage a first (older sequence numbers); stage
  // b's bound of 1 holds only one hand-off, so 5 of the 6 drop.
  for (int i = 0; i < 6; ++i) exec.Tick(1.0);
  auto sb = exec.stage_stats(1);
  EXPECT_EQ(sb.dropped, 5u);
  EXPECT_EQ(exec.dropped(1), sb.dropped);
  EXPECT_EQ(exec.dropped(), exec.dropped(0) + exec.dropped(1));
  exec.Drain();
  EXPECT_EQ(sink->tuples() + sb.dropped, 6u);
}

TEST(StageStatsParityTest, SerialExecutorCountersMatchFlow) {
  Plan plan;
  auto* a = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{4})), "a");
  auto* b = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{-1})), "b");
  auto* sink = plan.Make<CountingSink>();
  std::vector<QueuedExecutor::Stage> stages = {{a, 1.0, 1.0, 0},
                                               {b, 1.0, 1.0, 0}};
  QueuedExecutor exec(stages, sink, MakeFifoPolicy());
  for (int64_t i = 0; i < 10; ++i) {
    exec.Arrive(Element(MakeTuple(i, {Value(i)})));
  }
  exec.Tick(1e6);
  auto s0 = exec.stage_stats(0);
  auto s1 = exec.stage_stats(1);
  EXPECT_EQ(s0.enqueued, 10u);
  EXPECT_EQ(s0.processed, 10u);
  EXPECT_EQ(s0.max_queue_depth, 10u);
  EXPECT_EQ(s1.enqueued, 5u);  // 5..9 pass the first filter.
  EXPECT_EQ(s1.processed, 5u);
  EXPECT_DOUBLE_EQ(s0.busy_time, 10.0);  // Cost units, not wall time.
  EXPECT_DOUBLE_EQ(s1.busy_time, 5.0);
  EXPECT_EQ(sink->tuples(), 5u);
}

}  // namespace
}  // namespace sqp
