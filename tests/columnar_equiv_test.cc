// Columnar-path equivalence suite: the vectorized execution path must be
// observationally identical to the row path — bit-identical values,
// timestamps and punctuation interleaving — across conversions,
// compiled expressions, operator chains, both executors and sharded
// plans. Streams are seeded-random over randomized schemas (nulls,
// strings, doubles, interleaved punctuations) so the batches exercised
// cover the layouts the kernels specialize on AND the shapes that must
// fall back to rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/column_batch.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/plan.h"
#include "exec/project.h"
#include "exec/select.h"
#include "exec/sharded_op.h"
#include "exec/vector_expr.h"
#include "sched/parallel_executor.h"
#include "stream/element_batch.h"

namespace sqp {
namespace {

/// Records the exact interleaved arrival order of tuples and
/// punctuations (a split collector can't show ordering violations
/// between the two kinds).
class RecordingSink : public Operator {
 public:
  RecordingSink() : Operator("record") {}

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    if (e.is_punctuation()) {
      log_.push_back("P:" + std::to_string(e.punctuation().ts));
    } else {
      log_.push_back("T:" + std::to_string(e.tuple()->ts()) + "/" +
                     e.tuple()->ToString());
    }
  }

  const std::vector<std::string>& log() const { return log_; }

 private:
  std::vector<std::string> log_;
};

std::vector<std::string> Sorted(const RecordingSink& s) {
  std::vector<std::string> v = s.log();
  std::sort(v.begin(), v.end());
  return v;
}

// Per-column value profile of a randomized schema. kMixed deliberately
// breaks FromRows (int and double in one column) to exercise the row
// fallback; the rest convert.
enum class ColKind { kInt, kDouble, kString, kIntNullable, kAllNull, kMixed };

struct RandomSchema {
  std::vector<ColKind> cols;
};

RandomSchema MakeSchema(Rng* rng, bool allow_mixed) {
  RandomSchema s;
  size_t arity = 1 + rng->Uniform(5);
  for (size_t i = 0; i < arity; ++i) {
    uint64_t k = rng->Uniform(allow_mixed ? 6 : 5);
    s.cols.push_back(static_cast<ColKind>(k));
  }
  return s;
}

Value MakeValue(Rng* rng, ColKind kind) {
  switch (kind) {
    case ColKind::kInt:
      return Value(static_cast<int64_t>(rng->Uniform(1000)) - 500);
    case ColKind::kDouble:
      return Value(static_cast<double>(rng->Uniform(1000)) / 8.0 - 60.0);
    case ColKind::kString: {
      static const char* kWords[] = {"", "a", "bc", "query", "stream",
                                     "w\"x", "punct"};
      return Value(std::string(kWords[rng->Uniform(7)]));
    }
    case ColKind::kIntNullable:
      if (rng->Uniform(4) == 0) return Value::Null();
      return Value(static_cast<int64_t>(rng->Uniform(100)));
    case ColKind::kAllNull:
      return Value::Null();
    case ColKind::kMixed:
      if (rng->Uniform(2) == 0) return Value(static_cast<int64_t>(rng->Uniform(50)));
      return Value(static_cast<double>(rng->Uniform(50)) + 0.5);
  }
  return Value::Null();
}

/// Seeded stream over `schema` with punctuations interleaved at random
/// offsets (including back-to-back and leading positions).
std::vector<Element> MakeStream(Rng* rng, const RandomSchema& schema, int n) {
  std::vector<Element> out;
  out.reserve(static_cast<size_t>(n) + static_cast<size_t>(n) / 8 + 2);
  for (int64_t i = 0; i < n; ++i) {
    if (rng->Uniform(16) == 0) {
      out.push_back(Element(Punctuation::Watermark(i)));
      if (rng->Uniform(4) == 0) {
        out.push_back(Element(Punctuation::Watermark(i)));  // back-to-back
      }
    }
    std::vector<Value> vals;
    vals.reserve(schema.cols.size());
    for (ColKind k : schema.cols) vals.push_back(MakeValue(rng, k));
    out.push_back(Element(MakeTuple(i, std::move(vals))));
  }
  if (rng->Uniform(2) == 0) {
    out.push_back(Element(Punctuation::Watermark(n)));  // trailing
  }
  return out;
}

void DrivePerElement(Operator* entry, const std::vector<Element>& input) {
  for (const Element& e : input) entry->Process(e, 0);
  entry->Flush();
}

/// Drives `entry` columnarly: slices of `batch_size` converted with
/// FromRows and delivered via ProcessColumns; slices that cannot
/// convert take ProcessBatch — the same decision an executor makes.
void DriveColumnar(Operator* entry, const std::vector<Element>& input,
                   size_t batch_size) {
  ElementBatch eb;
  ColumnBatch cb;
  for (size_t i = 0; i < input.size();) {
    eb.clear();
    for (size_t j = 0; j < batch_size && i < input.size(); ++j, ++i) {
      eb.push_back(input[i]);
    }
    if (ColumnBatch::FromRows(eb, &cb)) {
      entry->ProcessColumns(cb, 0);
    } else {
      entry->ProcessBatch(eb, 0);
    }
  }
  entry->Flush();
}

const size_t kBatchSizes[] = {1, 3, 17, 64, 256};

// ---------------------------------------------------------------------------
// Conversion round-trips.

TEST(ColumnarEquivTest, RoundTripRandomizedSchemas) {
  Rng rng(101);
  for (int trial = 0; trial < 200; ++trial) {
    RandomSchema schema = MakeSchema(&rng, /*allow_mixed=*/false);
    std::vector<Element> input =
        MakeStream(&rng, schema, 1 + static_cast<int>(rng.Uniform(120)));
    ElementBatch eb;
    for (const Element& e : input) eb.push_back(e);
    ColumnBatch cb;
    ASSERT_TRUE(ColumnBatch::FromRows(eb, &cb)) << "trial " << trial;

    ElementBatch back;
    cb.MaterializeRows(&back);
    ASSERT_EQ(back.size(), input.size()) << "trial " << trial;
    for (size_t i = 0; i < input.size(); ++i) {
      const Element& want = input[i];
      const Element& got = back[i];
      ASSERT_EQ(got.is_punctuation(), want.is_punctuation())
          << "trial " << trial << " elem " << i;
      if (want.is_punctuation()) {
        EXPECT_EQ(got.punctuation().ts, want.punctuation().ts);
      } else {
        EXPECT_EQ(got.tuple()->ts(), want.tuple()->ts());
        EXPECT_EQ(got.tuple()->ToString(), want.tuple()->ToString())
            << "trial " << trial << " elem " << i;
      }
    }
  }
}

TEST(ColumnarEquivTest, RoundTripRespectsSelectionVector) {
  Rng rng(102);
  RandomSchema schema{{ColKind::kInt, ColKind::kString, ColKind::kIntNullable}};
  std::vector<Element> input = MakeStream(&rng, schema, 64);
  ElementBatch eb;
  for (const Element& e : input) eb.push_back(e);
  ColumnBatch cb;
  ASSERT_TRUE(ColumnBatch::FromRows(eb, &cb));

  // Keep every third physical row; every punctuation must still appear,
  // anchored between the surviving rows it arrived between.
  cb.has_sel = true;
  cb.sel.clear();
  for (uint32_t r = 0; r < cb.rows(); r += 3) cb.sel.push_back(r);

  ElementBatch back;
  cb.MaterializeRows(&back);
  size_t puncts = 0;
  size_t rows = 0;
  for (const Element& e : back) {
    if (e.is_punctuation()) {
      ++puncts;
    } else {
      ++rows;
    }
  }
  size_t want_puncts = 0;
  for (const Element& e : input) want_puncts += e.is_punctuation() ? 1 : 0;
  EXPECT_EQ(puncts, want_puncts);
  EXPECT_EQ(rows, cb.sel.size());
}

TEST(ColumnarEquivTest, MixedTypeAndRaggedBatchesFallBack) {
  ElementBatch mixed;
  mixed.push_back(Element(MakeTuple(0, {Value(int64_t{1})})));
  mixed.push_back(Element(MakeTuple(1, {Value(2.5)})));
  ColumnBatch cb;
  EXPECT_FALSE(ColumnBatch::FromRows(mixed, &cb));

  ElementBatch ragged;
  ragged.push_back(Element(MakeTuple(0, {Value(int64_t{1})})));
  ragged.push_back(
      Element(MakeTuple(1, {Value(int64_t{1}), Value(int64_t{2})})));
  EXPECT_FALSE(ColumnBatch::FromRows(ragged, &cb));

  // Null + one concrete type is fine — null rows join the typed column
  // through the validity mask.
  ElementBatch nullable;
  nullable.push_back(Element(MakeTuple(0, {Value::Null()})));
  nullable.push_back(Element(MakeTuple(1, {Value(int64_t{7})})));
  EXPECT_TRUE(ColumnBatch::FromRows(nullable, &cb));
  ElementBatch back;
  cb.MaterializeRows(&back);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_TRUE(back[0].tuple()->at(0).is_null());
  EXPECT_EQ(back[1].tuple()->at(0).AsInt(), 7);
}

// ---------------------------------------------------------------------------
// Randomized expression fuzz: compiled kernels vs Expr::Eval.

/// Random expression tree over `arity` columns: comparisons, arithmetic
/// (incl. div/mod zero cases), logic, Not, Contains, typed and null
/// literals — every shape the compiler either vectorizes or rejects
/// (rejection keeps the scalar path, which is equivalence too).
ExprRef RandomExpr(Rng* rng, size_t arity, int depth) {
  if (depth <= 0 || rng->Uniform(4) == 0) {
    switch (rng->Uniform(5)) {
      case 0:
        return Col(static_cast<int>(rng->Uniform(arity)));
      case 1:
        return Lit(static_cast<int64_t>(rng->Uniform(200)) - 100);
      case 2:
        return Lit(static_cast<double>(rng->Uniform(64)) / 4.0 - 8.0);
      case 3:
        return Lit(Value(std::string(rng->Uniform(2) == 0 ? "a" : "bc")));
      default:
        return Lit(Value::Null());
    }
  }
  uint64_t pick = rng->Uniform(15);
  if (pick == 13) return Not(RandomExpr(rng, arity, depth - 1));
  if (pick == 14) {
    return ContainsFn(RandomExpr(rng, arity, depth - 1),
                      RandomExpr(rng, arity, depth - 1));
  }
  static const BinOp kOps[] = {BinOp::kEq,  BinOp::kNe,  BinOp::kLt,
                               BinOp::kLe,  BinOp::kGt,  BinOp::kGe,
                               BinOp::kAnd, BinOp::kOr,  BinOp::kAdd,
                               BinOp::kSub, BinOp::kMul, BinOp::kDiv,
                               BinOp::kMod};
  return Bin(kOps[pick], RandomExpr(rng, arity, depth - 1),
             RandomExpr(rng, arity, depth - 1));
}

TEST(ColumnarEquivTest, FuzzSelectMatchesRowPath) {
  Rng rng(201);
  for (int trial = 0; trial < 120; ++trial) {
    RandomSchema schema = MakeSchema(&rng, /*allow_mixed=*/true);
    std::vector<Element> input = MakeStream(&rng, schema, 300);
    ExprRef pred = RandomExpr(&rng, schema.cols.size(), 3);

    SelectOp ref(pred);
    RecordingSink ref_sink;
    ref.SetOutput(&ref_sink);
    DrivePerElement(&ref, input);

    size_t bs = kBatchSizes[trial % 5];
    SelectOp op(pred);
    RecordingSink sink;
    op.SetOutput(&sink);
    DriveColumnar(&op, input, bs);
    ASSERT_EQ(sink.log(), ref_sink.log())
        << "trial " << trial << " batch_size " << bs;
    EXPECT_EQ(op.stats().tuples_in, ref.stats().tuples_in);
    EXPECT_EQ(op.stats().tuples_out, ref.stats().tuples_out);
    EXPECT_EQ(op.stats().puncts_out, ref.stats().puncts_out);
  }
}

TEST(ColumnarEquivTest, FuzzProjectMatchesRowPath) {
  Rng rng(202);
  for (int trial = 0; trial < 120; ++trial) {
    RandomSchema schema = MakeSchema(&rng, /*allow_mixed=*/true);
    std::vector<Element> input = MakeStream(&rng, schema, 300);
    std::vector<ExprRef> exprs;
    size_t width = 1 + rng.Uniform(4);
    for (size_t i = 0; i < width; ++i) {
      exprs.push_back(rng.Uniform(2) == 0
                          ? Col(static_cast<int>(rng.Uniform(schema.cols.size())))
                          : RandomExpr(&rng, schema.cols.size(), 2));
    }

    ProjectOp ref(exprs);
    RecordingSink ref_sink;
    ref.SetOutput(&ref_sink);
    DrivePerElement(&ref, input);

    size_t bs = kBatchSizes[trial % 5];
    ProjectOp op(exprs);
    RecordingSink sink;
    op.SetOutput(&sink);
    DriveColumnar(&op, input, bs);
    ASSERT_EQ(sink.log(), ref_sink.log())
        << "trial " << trial << " batch_size " << bs;
  }
}

TEST(ColumnarEquivTest, FuzzSelectProjectChainMatchesRowPath) {
  Rng rng(203);
  for (int trial = 0; trial < 60; ++trial) {
    RandomSchema schema = MakeSchema(&rng, /*allow_mixed=*/true);
    std::vector<Element> input = MakeStream(&rng, schema, 400);
    size_t arity = schema.cols.size();
    ExprRef p1 = RandomExpr(&rng, arity, 3);
    ExprRef p2 = RandomExpr(&rng, arity, 2);
    std::vector<ExprRef> proj;
    for (size_t i = 0; i < arity; ++i) proj.push_back(Col(static_cast<int>(i)));

    auto build = [&](RecordingSink* sink,
                     std::vector<std::unique_ptr<Operator>>* own) {
      auto s1 = std::make_unique<SelectOp>(p1);
      auto s2 = std::make_unique<SelectOp>(p2);
      auto pr = std::make_unique<ProjectOp>(proj);
      s1->SetOutput(s2.get());
      s2->SetOutput(pr.get());
      pr->SetOutput(sink);
      Operator* entry = s1.get();
      own->push_back(std::move(s1));
      own->push_back(std::move(s2));
      own->push_back(std::move(pr));
      return entry;
    };

    RecordingSink ref_sink;
    std::vector<std::unique_ptr<Operator>> ref_own;
    DrivePerElement(build(&ref_sink, &ref_own), input);

    RecordingSink sink;
    std::vector<std::unique_ptr<Operator>> own;
    DriveColumnar(build(&sink, &own), input, kBatchSizes[trial % 5]);
    ASSERT_EQ(sink.log(), ref_sink.log()) << "trial " << trial;
  }
}

// Grouped aggregation on one key column whose groups close on
// punctuation [TMSF03].
GroupByOptions PunctuatedBy(int key_col, std::vector<AggSpec> aggs) {
  GroupByOptions opt;
  opt.key_cols = {key_col};
  opt.aggs = std::move(aggs);
  opt.window = WindowSpec::Punctuated();
  return opt;
}

TEST(ColumnarEquivTest, PunctGroupByColumnarMatchesRow) {
  std::vector<AggSpec> aggs = {AggSpec{AggKind::kCount, -1, 0.5},
                               AggSpec{AggKind::kSum, 2, 0.5}};
  Rng rng(204);
  std::vector<Element> input;
  for (int64_t i = 0; i < 3000; ++i) {
    int64_t key = static_cast<int64_t>(rng.Uniform(40));
    input.push_back(
        Element(MakeTuple(i, {Value(i), Value(key), Value(i % 17)})));
    if (rng.Uniform(9) == 0) {
      input.push_back(Element(Punctuation::CloseKey(
          i, Value(static_cast<int64_t>(rng.Uniform(40))))));
    }
    if (rng.Uniform(64) == 0) {
      input.push_back(Element(Punctuation::Watermark(i - 100)));
    }
  }

  GroupByAggregateOp ref(PunctuatedBy(1, aggs));
  RecordingSink ref_sink;
  ref.SetOutput(&ref_sink);
  DrivePerElement(&ref, input);

  for (size_t bs : kBatchSizes) {
    GroupByAggregateOp op(PunctuatedBy(1, aggs));
    RecordingSink sink;
    op.SetOutput(&sink);
    DriveColumnar(&op, input, bs);
    ASSERT_EQ(sink.log(), ref_sink.log()) << "batch_size " << bs;
  }
}

TEST(ColumnarEquivTest, GroupByEveryWindowColumnarMatchesRow) {
  Rng rng(205);
  std::vector<Element> input;
  for (int64_t i = 0; i < 3000; ++i) {
    input.push_back(Element(MakeTuple(
        i, {Value(i), Value(static_cast<int64_t>(rng.Uniform(20))),
            Value(i % 17)})));
    if (rng.Uniform(64) == 0) {
      input.push_back(Element(Punctuation::Watermark(i - 30)));
    }
  }
  const std::pair<WindowSpec, std::vector<int>> shapes[] = {
      {WindowSpec::Landmark(), {1}},
      {WindowSpec::TimeTumbling(50), {1}},
      {WindowSpec::TimeTumbling(50), {}},
      {WindowSpec::TimeSliding(60, 20), {1, 2}},
      {WindowSpec::TimeSliding(60, 20), {}},
  };
  for (const auto& [window, key_cols] : shapes) {
    SCOPED_TRACE(window.ToString() + " keys " +
                 std::to_string(key_cols.size()));
    GroupByOptions opt;
    opt.key_cols = key_cols;
    opt.aggs = {AggSpec{AggKind::kCount, -1, 0.5},
                AggSpec{AggKind::kMax, 2, 0.5}};
    opt.window = window;
    GroupByAggregateOp ref(opt);
    RecordingSink ref_sink;
    ref.SetOutput(&ref_sink);
    DrivePerElement(&ref, input);
    ASSERT_GT(ref_sink.log().size(), input.size() / 64);
    for (size_t bs : kBatchSizes) {
      GroupByAggregateOp op(opt);
      RecordingSink sink;
      op.SetOutput(&sink);
      DriveColumnar(&op, input, bs);
      ASSERT_EQ(sink.log(), ref_sink.log()) << "batch_size " << bs;
    }
  }
}

// ---------------------------------------------------------------------------
// Executor-level equivalence.

std::vector<Element> NumericStream(uint64_t seed, int n) {
  Rng rng(seed);
  std::vector<Element> out;
  out.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(Element(MakeTuple(
        i, {Value(i / 2), Value(i % 2),
            Value(static_cast<int64_t>(rng.Uniform(1000)))})));
    if (i % 97 == 96) out.push_back(Element(Punctuation::Watermark(i)));
  }
  return out;
}

std::vector<Operator*> MakeNumericChain(
    std::vector<std::unique_ptr<Operator>>* own) {
  auto s1 = std::make_unique<SelectOp>(Gt(Col(2), Lit(int64_t{99})));
  auto s2 = std::make_unique<SelectOp>(Lt(Col(2), Lit(int64_t{990})));
  auto p1 = std::make_unique<ProjectOp>(
      std::vector<ExprRef>{Col(0), Col(1), Col(2)});
  auto p2 = std::make_unique<ProjectOp>(
      std::vector<ExprRef>{Col(0), Add(Col(2), Lit(int64_t{1}))});
  std::vector<Operator*> chain = {s1.get(), s2.get(), p1.get(), p2.get()};
  own->push_back(std::move(s1));
  own->push_back(std::move(s2));
  own->push_back(std::move(p1));
  own->push_back(std::move(p2));
  return chain;
}

TEST(ColumnarEquivTest, ParallelExecutorColumnarMatchesRow) {
  std::vector<Element> input = NumericStream(302, 6000);

  auto run = [&](bool columnar, RecordingSink* sink, uint64_t* dropped) {
    std::vector<std::unique_ptr<Operator>> own;
    std::vector<Operator*> chain = MakeNumericChain(&own);
    std::vector<ParallelExecutor::Stage> stages;
    for (Operator* op : chain) {
      ParallelExecutor::Stage s;
      s.op = op;
      s.queue_limit = 256;
      s.backpressure = Backpressure::kBlock;
      s.max_batch = 64;
      s.columnar = columnar;
      stages.push_back(s);
    }
    ParallelExecutor exec(stages, sink);
    exec.Start();
    for (const Element& e : input) exec.Arrive(e);
    exec.Drain();
    *dropped = exec.dropped();
  };

  RecordingSink ref;
  uint64_t ref_dropped = 0;
  run(false, &ref, &ref_dropped);
  ASSERT_EQ(ref_dropped, 0u);

  RecordingSink got;
  uint64_t dropped = 0;
  run(true, &got, &dropped);
  EXPECT_EQ(dropped, 0u);
  // Stage hand-offs preserve order per stage, and the chain is linear:
  // exact order must match here too.
  EXPECT_EQ(got.log(), ref.log());
  ASSERT_GT(ref.log().size(), 100u);
}

TEST(ColumnarEquivTest, ShardedColumnarMatchesSerial) {
  std::vector<AggSpec> aggs = {AggSpec{AggKind::kCount, -1, 0.5},
                               AggSpec{AggKind::kMax, 2, 0.5}};

  Plan sp;
  auto* serial = sp.Make<GroupByAggregateOp>(PunctuatedBy(1, aggs));
  auto* ssink = sp.Make<CollectorSink>();
  serial->SetOutput(ssink);

  Plan pp;
  ShardedOpOptions so;
  so.shards = 4;
  so.key_cols = {{1}};
  so.columnar = true;
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) {
        return std::make_unique<GroupByAggregateOp>(PunctuatedBy(1, aggs));
      });
  auto* psink = pp.Make<CollectorSink>();
  sharded->SetOutput(psink);

  auto drive = [](auto push) {
    Rng rng(303);
    for (int64_t i = 0; i < 6000; ++i) {
      int64_t key = static_cast<int64_t>(rng.Uniform(64));
      push(Element(MakeTuple(i, {Value(i), Value(key), Value(i % 100)})));
      if (i % 7 == 6) {
        push(Element(Punctuation::CloseKey(
            i, Value(static_cast<int64_t>(rng.Uniform(64))))));
      }
    }
  };
  drive([&](const Element& e) { serial->Push(e, 0); });
  drive([&](const Element& e) { sharded->Push(e, 0); });
  serial->Flush();
  sharded->Flush();

  auto rows = [](const CollectorSink& s) {
    std::vector<std::string> out;
    for (const TupleRef& t : s.tuples()) out.push_back(t->ToString());
    std::sort(out.begin(), out.end());
    return out;
  };
  EXPECT_GT(ssink->count(), 0u);
  EXPECT_EQ(rows(*ssink), rows(*psink));
  EXPECT_EQ(ssink->punctuations().size(), psink->punctuations().size());
}

// TSan coverage: four columnar stages running on their own threads with
// small queues (constant backpressure blocking + wakeups) and strings in
// flight, so batch conversion, hand-off and drop accounting race with
// delivery if any of them share state unsafely.
TEST(ColumnarEquivTest, ParallelColumnarStress) {
  Rng rng(304);
  std::vector<Element> input;
  for (int64_t i = 0; i < 20000; ++i) {
    input.push_back(Element(MakeTuple(
        i, {Value(i), Value(static_cast<int64_t>(rng.Uniform(1000))),
            Value(std::string(rng.Uniform(2) == 0 ? "hot" : "cold"))})));
    if (i % 101 == 100) input.push_back(Element(Punctuation::Watermark(i)));
  }

  std::vector<std::unique_ptr<Operator>> own;
  auto s1 = std::make_unique<SelectOp>(Gt(Col(1), Lit(int64_t{9})));
  auto p1 = std::make_unique<ProjectOp>(
      std::vector<ExprRef>{Col(0), Col(1), Col(2)});
  auto s2 = std::make_unique<SelectOp>(Lt(Col(1), Lit(int64_t{991})));
  auto p2 = std::make_unique<ProjectOp>(
      std::vector<ExprRef>{Col(1), Col(2)});
  std::vector<Operator*> chain = {s1.get(), p1.get(), s2.get(), p2.get()};
  own.push_back(std::move(s1));
  own.push_back(std::move(p1));
  own.push_back(std::move(s2));
  own.push_back(std::move(p2));

  CountingSink sink;
  std::vector<ParallelExecutor::Stage> stages;
  for (Operator* op : chain) {
    ParallelExecutor::Stage s;
    s.op = op;
    s.queue_limit = 64;  // Small: forces constant blocking + wakeups.
    s.backpressure = Backpressure::kBlock;
    s.max_batch = 32;
    s.columnar = true;
    stages.push_back(s);
  }
  ParallelExecutor exec(stages, &sink);
  exec.Start();
  for (const Element& e : input) exec.Arrive(e);
  exec.Drain();
  EXPECT_EQ(exec.dropped(), 0u);

  // Row-path reference for the expected survivor count.
  uint64_t expect = 0;
  for (const Element& e : input) {
    if (e.is_punctuation()) continue;
    int64_t v = e.tuple()->at(1).AsInt();
    if (v > 9 && v < 991) ++expect;
  }
  EXPECT_EQ(sink.tuples(), expect);
}

}  // namespace
}  // namespace sqp
