// Batch-path equivalence suite: for every operator with a PushBatch
// override (and for whole chains under both executors), the batched
// execution path must produce output identical element-for-element to
// the per-element path — including punctuation ordering. Streams are
// seeded-random with interleaved watermarks so the batches exercised
// mix tuples and punctuations at arbitrary offsets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/select.h"
#include "exec/window_agg.h"
#include "exec/window_join.h"
#include "sched/parallel_executor.h"
#include "sched/policies.h"
#include "sched/queued_executor.h"
#include "stream/element_batch.h"

namespace sqp {
namespace {

/// Records the exact interleaved arrival order of tuples and
/// punctuations (CollectorSink splits them, which can't show an
/// ordering violation between the two kinds).
class RecordingSink : public Operator {
 public:
  RecordingSink() : Operator("record") {}

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    if (e.is_punctuation()) {
      log_.push_back("P:" + std::to_string(e.punctuation().ts));
    } else {
      log_.push_back("T:" + e.tuple()->ToString());
    }
  }

  const std::vector<std::string>& log() const { return log_; }

 private:
  std::vector<std::string> log_;
};

/// Seeded stream over schema [pair_id, side, v] with a watermark every
/// `punct_every` tuples (interleaved mid-stream, not appended).
std::vector<Element> MakeStream(uint64_t seed, int n, int punct_every) {
  Rng rng(seed);
  std::vector<Element> out;
  out.reserve(static_cast<size_t>(n + n / punct_every + 1));
  for (int64_t i = 0; i < n; ++i) {
    int64_t v = static_cast<int64_t>(rng.Next() % 97);
    out.push_back(
        Element(MakeTuple(i, {Value(i / 2), Value(i % 2), Value(v)})));
    if ((i + 1) % punct_every == 0) {
      out.push_back(Element(Punctuation::Watermark(i)));
    }
  }
  return out;
}

/// Drives `entry` with the whole stream one element at a time.
void DrivePerElement(Operator* entry, const std::vector<Element>& input) {
  for (const Element& e : input) entry->Process(e, 0);
  entry->Flush();
}

/// Drives `entry` with the stream sliced into ElementBatch runs of
/// `batch_size`.
void DriveBatched(Operator* entry, const std::vector<Element>& input,
                  size_t batch_size) {
  ElementBatch batch;
  batch.reserve(batch_size);
  for (size_t i = 0; i < input.size();) {
    batch.clear();
    for (size_t j = 0; j < batch_size && i < input.size(); ++j, ++i) {
      batch.push_back(input[i]);
    }
    entry->ProcessBatch(batch, 0);
  }
  entry->Flush();
}

/// Unary wrapper routing elements into a symmetric hash join's ports by
/// the `side` column (executors and chain drivers are single-input).
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

const size_t kBatchSizes[] = {1, 3, 8, 64, 256};

TEST(BatchEquivTest, SelectMatchesPerElement) {
  std::vector<Element> input = MakeStream(11, 1500, 37);
  SelectOp ref(Gt(Col(2), Lit(int64_t{40})));
  RecordingSink ref_sink;
  ref.SetOutput(&ref_sink);
  DrivePerElement(&ref, input);

  for (size_t bs : kBatchSizes) {
    SelectOp op(Gt(Col(2), Lit(int64_t{40})));
    RecordingSink sink;
    op.SetOutput(&sink);
    DriveBatched(&op, input, bs);
    EXPECT_EQ(sink.log(), ref_sink.log()) << "batch_size=" << bs;
    EXPECT_EQ(op.stats().tuples_in, ref.stats().tuples_in);
    EXPECT_EQ(op.stats().puncts_out, ref.stats().puncts_out);
  }
}

TEST(BatchEquivTest, ProjectMatchesPerElement) {
  std::vector<Element> input = MakeStream(12, 1200, 41);
  auto make = [] {
    return std::make_unique<ProjectOp>(
        std::vector<ExprRef>{Col(2), Col(0)});
  };
  auto ref = make();
  RecordingSink ref_sink;
  ref->SetOutput(&ref_sink);
  DrivePerElement(ref.get(), input);

  for (size_t bs : kBatchSizes) {
    auto op = make();
    RecordingSink sink;
    op->SetOutput(&sink);
    DriveBatched(op.get(), input, bs);
    EXPECT_EQ(sink.log(), ref_sink.log()) << "batch_size=" << bs;
  }
}

TEST(BatchEquivTest, DistinctMatchesPerElement) {
  std::vector<Element> input = MakeStream(13, 2000, 29);
  auto make = [] {
    return std::make_unique<DistinctOp>(std::vector<int>{2}, int64_t{256});
  };
  auto ref = make();
  RecordingSink ref_sink;
  ref->SetOutput(&ref_sink);
  DrivePerElement(ref.get(), input);

  for (size_t bs : kBatchSizes) {
    auto op = make();
    RecordingSink sink;
    op->SetOutput(&sink);
    DriveBatched(op.get(), input, bs);
    EXPECT_EQ(sink.log(), ref_sink.log()) << "batch_size=" << bs;
  }
}

TEST(BatchEquivTest, GroupByAggregateMatchesPerElement) {
  // Watermarks close buckets mid-stream, so close-out emissions must
  // land at the same position in the output either way.
  std::vector<Element> input = MakeStream(14, 1800, 23);
  auto make = [] {
    GroupByOptions opt;
    opt.key_cols = {1};
    opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kSum, 2, 0.5}};
    opt.window = WindowSpec::TimeTumbling(128);
    return std::make_unique<GroupByAggregateOp>(opt);
  };
  auto ref = make();
  RecordingSink ref_sink;
  ref->SetOutput(&ref_sink);
  DrivePerElement(ref.get(), input);

  for (size_t bs : kBatchSizes) {
    auto op = make();
    RecordingSink sink;
    op->SetOutput(&sink);
    DriveBatched(op.get(), input, bs);
    EXPECT_EQ(sink.log(), ref_sink.log()) << "batch_size=" << bs;
  }
}

TEST(BatchEquivTest, JoinChainMatchesPerElement) {
  // select -> project -> self-join: the join expands batches (one input
  // can produce many outputs), exercising the Emit coalescing buffer.
  std::vector<Element> input = MakeStream(15, 1600, 31);
  auto build = [](Operator** entry, RecordingSink* sink,
                  std::vector<std::unique_ptr<Operator>>* own) {
    auto sel = std::make_unique<SelectOp>(Gt(Col(2), Lit(int64_t{5})));
    auto proj = std::make_unique<ProjectOp>(
        std::vector<ExprRef>{Col(0), Col(1), Col(2)});
    auto join = std::make_unique<SelfJoinStage>();
    sel->SetOutput(proj.get());
    proj->SetOutput(join.get());
    join->SetOutput(sink);
    *entry = sel.get();
    own->push_back(std::move(sel));
    own->push_back(std::move(proj));
    own->push_back(std::move(join));
  };

  Operator* ref_entry = nullptr;
  RecordingSink ref_sink;
  std::vector<std::unique_ptr<Operator>> ref_own;
  build(&ref_entry, &ref_sink, &ref_own);
  DrivePerElement(ref_entry, input);

  for (size_t bs : kBatchSizes) {
    Operator* entry = nullptr;
    RecordingSink sink;
    std::vector<std::unique_ptr<Operator>> own;
    build(&entry, &sink, &own);
    DriveBatched(entry, input, bs);
    EXPECT_EQ(sink.log(), ref_sink.log()) << "batch_size=" << bs;
  }
}

TEST(BatchEquivTest, EmitCoalescingOverflowPreservesOrder) {
  // Every tuple shares one join key, so late arrivals each produce
  // hundreds of matches: one input batch expands far past the emit
  // buffer cap (1024), forcing mid-batch overflow flushes.
  std::vector<Element> input;
  for (int64_t i = 0; i < 600; ++i) {
    input.push_back(
        Element(MakeTuple(i, {Value(int64_t{7}), Value(i % 2), Value(i)})));
    if ((i + 1) % 100 == 0) {
      input.push_back(Element(Punctuation::Watermark(i)));
    }
  }
  auto run = [&](size_t bs, std::vector<std::string>* log) {
    SelfJoinStage join;
    RecordingSink sink;
    join.SetOutput(&sink);
    if (bs == 0) {
      DrivePerElement(&join, input);
    } else {
      DriveBatched(&join, input, bs);
    }
    *log = sink.log();
  };
  std::vector<std::string> ref;
  run(0, &ref);
  ASSERT_GT(ref.size(), 2048u);  // The cap is actually exercised.
  for (size_t bs : {size_t{64}, size_t{600}}) {
    std::vector<std::string> got;
    run(bs, &got);
    EXPECT_EQ(got, ref) << "batch_size=" << bs;
  }
}

// ---------------------------------------------------------------------------
// Executor-level equivalence.

std::vector<Operator*> MakeExecChain(
    std::vector<std::unique_ptr<Operator>>* own) {
  auto sel = std::make_unique<SelectOp>(Gt(Col(2), Lit(int64_t{3})));
  auto proj = std::make_unique<ProjectOp>(
      std::vector<ExprRef>{Col(0), Col(1), Col(2)});
  auto join = std::make_unique<SelfJoinStage>();
  auto agg = std::make_unique<WindowAggregateOp>(
      WindowSpec::TimeSliding(64),
      std::vector<AggSpec>{{AggKind::kCount, -1, 0.5},
                           {AggKind::kSum, 2, 0.5}});
  std::vector<Operator*> chain = {sel.get(), proj.get(), join.get(),
                                  agg.get()};
  own->push_back(std::move(sel));
  own->push_back(std::move(proj));
  own->push_back(std::move(join));
  own->push_back(std::move(agg));
  return chain;
}

std::vector<std::string> SortedLog(const RecordingSink& sink) {
  std::vector<std::string> s = sink.log();
  std::sort(s.begin(), s.end());
  return s;
}

TEST(BatchEquivTest, ParallelExecutorBatchedMatchesPerElementDelivery) {
  std::vector<Element> input = MakeStream(16, 3000, 43);

  auto run = [&](size_t max_batch, Backpressure bp, size_t queue_limit,
                 RecordingSink* sink, uint64_t* dropped) {
    std::vector<std::unique_ptr<Operator>> own;
    std::vector<Operator*> chain = MakeExecChain(&own);
    std::vector<ParallelExecutor::Stage> stages;
    for (Operator* op : chain) {
      ParallelExecutor::Stage s;
      s.op = op;
      s.queue_limit = queue_limit;
      s.backpressure = bp;
      s.max_batch = max_batch;
      stages.push_back(s);
    }
    ParallelExecutor exec(stages, sink);
    exec.Start();
    for (const Element& e : input) exec.Arrive(e);
    exec.Drain();
    *dropped = exec.dropped();
    // Batched stages report delivery batches; per-element stages don't.
    sched::StageStats s0 = exec.stage_stats(0);
    if (max_batch > 1) {
      EXPECT_GT(s0.batches, 0u);
      EXPECT_LE(s0.batches, s0.processed);
    } else {
      EXPECT_EQ(s0.batches, 0u);
    }
  };

  RecordingSink ref;
  uint64_t ref_dropped = 0;
  run(1, Backpressure::kBlock, 64, &ref, &ref_dropped);
  ASSERT_EQ(ref_dropped, 0u);

  for (size_t mb : {size_t{8}, size_t{64}, size_t{256}}) {
    RecordingSink got;
    uint64_t dropped = 0;
    run(mb, Backpressure::kBlock, 64, &got, &dropped);
    EXPECT_EQ(dropped, 0u);
    EXPECT_EQ(SortedLog(got), SortedLog(ref)) << "max_batch=" << mb;
  }

  // Drop-mode backpressure with a bound generous enough to never shed:
  // batched delivery must not introduce loss or change the output.
  RecordingSink drop_mode;
  uint64_t drop_dropped = 0;
  run(64, Backpressure::kDropNewest, 100000, &drop_mode, &drop_dropped);
  EXPECT_EQ(drop_dropped, 0u);
  EXPECT_EQ(SortedLog(drop_mode), SortedLog(ref));
}

TEST(BatchEquivTest, QueuedExecutorBatchedDeliveryMatches) {
  std::vector<Element> input = MakeStream(17, 2500, 53);

  auto run = [&](size_t max_batch, RecordingSink* sink) {
    std::vector<std::unique_ptr<Operator>> own;
    std::vector<Operator*> chain = MakeExecChain(&own);
    std::vector<QueuedExecutor::Stage> stages;
    for (Operator* op : chain) {
      QueuedExecutor::Stage s;
      s.op = op;
      s.max_batch = max_batch;
      stages.push_back(s);
    }
    QueuedExecutor exec(stages, sink, MakeFifoPolicy());
    for (const Element& e : input) exec.Arrive(e);
    exec.Tick(1e15);
    exec.Drain();
  };

  RecordingSink ref;
  run(1, &ref);
  for (size_t mb : {size_t{16}, size_t{64}}) {
    RecordingSink got;
    run(mb, &got);
    // The serial executor is deterministic: exact order must match.
    EXPECT_EQ(got.log(), ref.log()) << "max_batch=" << mb;
  }
}

}  // namespace
}  // namespace sqp
