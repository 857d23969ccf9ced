// E16: batched execution path vs per-element pushes, and the
// zero-allocation KeyView probe vs the allocating ExtractKey probe.
//
// Two sweeps, one per executor, both over a select -> project ->
// window-self-join chain with delivery batch sizes 1/8/64/256:
//
//  - Serial QueuedExecutor (FIFO policy): per-element delivery pays a
//    scheduling decision (policy Pick over fresh per-stage views) per
//    element per stage; batched delivery amortizes it across the batch
//    — the tutorial's Aurora "train" processing argument.
//  - ParallelExecutor op-per-stage: max_batch = B is the wake
//    threshold, the queue claim and the delivery unit, so B=1 is the
//    classic element-at-a-time executor (a lock round-trip, a producer
//    wakeup and a virtual Push per element) and larger B amortizes
//    queue locks, wakeups and dispatch.
//
// Output counts must match across every configuration of a sweep — the
// harness aborts otherwise. Microbenchmarks cover the directly-wired
// (no executor) chain, where per-element ref-passing is already optimal
// and batching buys nothing — the executors are the batch boundary.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "bench_util.h"
#include "common/key_table.h"
#include "common/rng.h"
#include "exec/expr.h"
#include "exec/plan.h"
#include "exec/project.h"
#include "exec/select.h"
#include "exec/window_join.h"
#include "sched/parallel_executor.h"
#include "sched/policies.h"
#include "sched/queued_executor.h"
#include "stream/element_batch.h"

namespace sqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

// Input schema: [pair_id, side, v]; each pair_id occurs once per side,
// so the self-join emits exactly one joined row per completed pair.
constexpr int kPairId = 0;
constexpr int kSide = 1;
constexpr int kV = 2;

/// Routes elements to the wrapped sliding-window hash join's two ports
/// by the `side` column (the chain drivers are unary).
class SelfJoinStage : public Operator {
 public:
  SelfJoinStage()
      : Operator("self-join"),
        join_(JoinOptions()),
        bridge_([this](const Element& e) { Emit(e); }) {
    join_.SetOutput(&bridge_);
  }

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    if (e.is_punctuation()) {
      Emit(e);
      return;
    }
    int side = static_cast<int>(e.tuple()->at(kSide).AsInt());
    join_.Push(e, side);
  }

  void Flush() override {
    join_.Flush();  // Port-0 flush...
    join_.Flush();  // ...and port-1: the join forwards after both.
    Operator::Flush();
  }

 private:
  static BinaryWindowJoinOp::Options JoinOptions() {
    BinaryWindowJoinOp::Options o;
    o.left_cols = {kPairId};
    o.right_cols = {kPairId};
    o.left_window = WindowSpec::TimeSliding(64);
    o.right_window = WindowSpec::TimeSliding(64);
    return o;
  }

  BinaryWindowJoinOp join_;
  CallbackSink bridge_;
};

/// select (~.9) -> project -> window self-join: the hot per-element
/// operators the batched path targets, ending in an expanding join.
std::vector<Operator*> BuildChain(Plan* plan) {
  std::vector<Operator*> ops;
  ops.push_back(plan->Make<SelectOp>(Gt(Col(kV), Lit(int64_t{99})), "sel"));
  ops.push_back(plan->Make<ProjectOp>(
      std::vector<ExprRef>{Col(kPairId), Col(kSide), Col(kV)}, "proj"));
  ops.push_back(plan->Make<SelfJoinStage>());
  return ops;
}

/// Four cheap stages — select -> select -> project -> project. Each
/// stage does tens of ns of real work, so per-element executor crossing
/// costs (a scheduling decision per delivery, a lock + wakeup per
/// hand-off) dominate: the fine-grained regime batched delivery
/// targets, and the regime E14 shows getting worse with stage count.
std::vector<Operator*> BuildCheapChain(Plan* plan) {
  std::vector<Operator*> ops;
  ops.push_back(plan->Make<SelectOp>(Gt(Col(kV), Lit(int64_t{99})), "sel"));
  ops.push_back(
      plan->Make<SelectOp>(Lt(Col(kV), Lit(int64_t{990})), "sel2"));
  ops.push_back(plan->Make<ProjectOp>(
      std::vector<ExprRef>{Col(kPairId), Col(kSide), Col(kV)}, "proj"));
  ops.push_back(plan->Make<ProjectOp>(
      std::vector<ExprRef>{Col(kPairId), Col(kV)}, "proj2"));
  return ops;
}

std::vector<Element> MakeInput(uint64_t n) {
  Rng rng(17);
  std::vector<Element> input;
  input.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    input.push_back(Element(MakeTuple(
        static_cast<int64_t>(i),
        {Value(static_cast<int64_t>(i / 2)),
         Value(static_cast<int64_t>(i % 2)),
         Value(static_cast<int64_t>(rng.Uniform(1000)))})));
  }
  return input;
}

struct RunResult {
  double seconds = 0;
  uint64_t out = 0;
};

/// Serial scheduled execution: elements arrive in chunks, and the FIFO
/// policy drives each chunk through the chain. Per-element delivery
/// (batch == 1) makes one scheduling decision — a Pick over freshly
/// built per-stage views — per element per stage; batched delivery
/// amortizes that decision over up to `batch` elements.
RunResult RunQueued(const std::vector<Element>& input, size_t batch) {
  Plan plan;
  std::vector<Operator*> chain = BuildCheapChain(&plan);
  auto* sink = plan.Make<CountingSink>();
  std::vector<QueuedExecutor::Stage> stages;
  for (Operator* op : chain) {
    QueuedExecutor::Stage s;
    s.op = op;
    s.cost = 1.0;
    s.max_batch = batch;
    stages.push_back(s);
  }
  QueuedExecutor exec(stages, sink, MakeFifoPolicy());
  const size_t kChunk = 256;
  // Budget per chunk covers every stage consuming every element (the
  // join expands, but Tick stops early once all queues are empty, so a
  // generous budget costs nothing).
  const double budget =
      static_cast<double>(kChunk) * static_cast<double>(stages.size()) * 2.0;
  auto t0 = std::chrono::steady_clock::now();
  size_t i = 0;
  while (i < input.size()) {
    const size_t end =
        i + kChunk < input.size() ? i + kChunk : input.size();
    for (; i < end; ++i) exec.Arrive(input[i]);
    exec.Tick(budget);
  }
  exec.Drain();
  auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), sink->tuples()};
}

/// Parallel, op-per-stage: max_batch = `batch`, so batch=1
/// is the classic element-at-a-time hand-off at every queue.
RunResult RunParallel(const std::vector<Element>& input, size_t batch) {
  Plan plan;
  std::vector<Operator*> chain = BuildCheapChain(&plan);
  auto* sink = plan.Make<CountingSink>();
  std::vector<ParallelExecutor::Stage> stages;
  for (Operator* op : chain) {
    ParallelExecutor::Stage s;
    s.op = op;
    s.queue_limit = 512;
    s.backpressure = Backpressure::kBlock;
    s.max_batch = batch;
    stages.push_back(s);
  }
  ParallelExecutor exec(stages, sink);
  exec.Start();
  auto t0 = std::chrono::steady_clock::now();
  for (const Element& e : input) exec.Arrive(e);
  exec.Drain();
  auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), sink->tuples()};
}

/// Directly-wired chain (no executor), driven per element or in
/// ElementBatch runs — the microbenchmark subject. Takes the input by
/// value: the batched drive moves elements into batches the way an
/// executor hands off ownership.
RunResult RunSerialDirect(std::vector<Element> input, size_t batch) {
  Plan plan;
  std::vector<Operator*> chain = BuildChain(&plan);
  auto* sink = plan.Make<CountingSink>();
  for (size_t i = 0; i + 1 < chain.size(); ++i) {
    Plan::Connect(chain[i], chain[i + 1]);
  }
  chain.back()->SetOutput(sink);
  Operator* entry = chain.front();
  auto t0 = std::chrono::steady_clock::now();
  if (batch == 0) {
    for (const Element& e : input) entry->Process(e, 0);
  } else {
    ElementBatch eb;
    eb.reserve(batch);
    size_t i = 0;
    while (i < input.size()) {
      eb.clear();
      for (size_t j = 0; j < batch && i < input.size(); ++j, ++i) {
        eb.push_back(std::move(input[i]));
      }
      entry->ProcessBatch(eb, 0);
    }
  }
  entry->Flush();
  auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double>(t1 - t0).count(), sink->tuples()};
}

void CheckOut(uint64_t got, uint64_t want, const char* what) {
  if (got != want || got == 0) {
    std::fprintf(stderr,
                 "FATAL: %s produced %llu output tuples, expected %llu "
                 "(nonzero) — batched path diverged\n",
                 what, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    std::abort();
  }
}

const size_t kBatchSizes[] = {1, 8, 64, 256};

void PrintQueuedSweep() {
  const uint64_t n = bench::Iters(400000, 4000);
  std::vector<Element> input = MakeInput(n);
  const int kReps = bench::SmokeMode() ? 1 : 5;

  // Interleave reps across configs (best-of-N per config) so drifting
  // background load biases no single batch size.
  RunResult results[4];
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < 4; ++i) {
      RunResult r = RunQueued(input, kBatchSizes[i]);
      if (rep == 0 || r.seconds < results[i].seconds) results[i] = r;
    }
  }
  for (size_t i = 1; i < 4; ++i) {
    CheckOut(results[i].out, results[0].out, "queued batched run");
  }
  double base_t = static_cast<double>(n) / results[0].seconds / 1000.0;
  Table t({"batch", "Ktup/s", "speedup vs batch=1", "out"});
  for (size_t i = 0; i < 4; ++i) {
    double bt = static_cast<double>(n) / results[i].seconds / 1000.0;
    t.AddRow({FmtInt(kBatchSizes[i]), Fmt(bt, 0), Fmt(bt / base_t, 2),
              FmtInt(results[i].out)});
  }
  t.Print(
      "Serial QueuedExecutor (FIFO policy), 4-stage "
      "select->select->project->project: delivery batch size sweep");
  std::printf(
      "note: batch=1 makes one scheduling decision (policy Pick over "
      "fresh stage\nviews) per element per stage; batching amortizes it "
      "— Aurora's train argument.\n");
}

void PrintParallelSweep() {
  const uint64_t n = bench::Iters(200000, 4000);
  std::vector<Element> input = MakeInput(n);
  const int kReps = bench::SmokeMode() ? 1 : 3;

  RunResult results[4];
  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t i = 0; i < 4; ++i) {
      RunResult r = RunParallel(input, kBatchSizes[i]);
      if (rep == 0 || r.seconds < results[i].seconds) results[i] = r;
    }
  }
  for (size_t i = 1; i < 4; ++i) {
    CheckOut(results[i].out, results[0].out, "parallel batched run");
  }
  double base_t = static_cast<double>(n) / results[0].seconds / 1000.0;
  Table t({"batch", "Ktup/s", "speedup vs batch=1", "out"});
  for (size_t i = 0; i < 4; ++i) {
    double bt = static_cast<double>(n) / results[i].seconds / 1000.0;
    t.AddRow({FmtInt(kBatchSizes[i]), Fmt(bt, 0), Fmt(bt / base_t, 2),
              FmtInt(results[i].out)});
  }
  t.Print(
      "Parallel op-per-stage 4-stage select->select->project->project "
      "pipeline: hand-off batch size sweep (max_batch = B)");
  std::printf(
      "note: B=1 claims one element per lock acquisition and wakes the "
      "consumer per\nelement; larger B amortizes queue locks, wakeups "
      "and dispatch across the batch.\n");
}

// ---------------------------------------------------------------------------
// Microbenchmarks.

// Directly-wired chain: per-element ref-passing vs batch-driving. A
// synchronous push chain passes references with zero per-element copies,
// so batch-driving it mostly measures the buffer shuttling cost — the
// reason batching lives at executor boundaries, not inside wired chains.
void BM_DirectPerElement(benchmark::State& state) {
  const uint64_t n = 20000;
  std::vector<Element> input = MakeInput(n);
  for (auto _ : state) {
    RunResult r = RunSerialDirect(input, 0);
    benchmark::DoNotOptimize(r.out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DirectPerElement)->UseRealTime();

void BM_DirectBatched(benchmark::State& state) {
  const uint64_t n = 20000;
  std::vector<Element> input = MakeInput(n);
  for (auto _ : state) {
    RunResult r =
        RunSerialDirect(input, static_cast<size_t>(state.range(0)));
    benchmark::DoNotOptimize(r.out);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_DirectBatched)
    ->Arg(8)->Arg(64)->Arg(256)->ArgNames({"batch"})->UseRealTime();

// KeyView probe vs materializing ExtractKey probe on a warm KeyTable —
// the per-probe allocation a borrowed key avoids.
void BM_ProbeExtractKey(benchmark::State& state) {
  std::vector<int> cols = {0, 2};
  KeyTable<int> map;
  std::vector<TupleRef> tuples;
  for (int64_t i = 0; i < 1024; ++i) {
    tuples.push_back(MakeTuple(i, {Value(i), Value(i % 2), Value(i * 3)}));
    map.Insert(ExtractKey(*tuples.back(), cols)).first->value =
        static_cast<int>(i);
  }
  size_t i = 0;
  for (auto _ : state) {
    Key key = ExtractKey(*tuples[i & 1023], cols);
    benchmark::DoNotOptimize(map.Find(key) != nullptr);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeExtractKey);

void BM_ProbeKeyView(benchmark::State& state) {
  std::vector<int> cols = {0, 2};
  KeyTable<int> map;
  std::vector<TupleRef> tuples;
  for (int64_t i = 0; i < 1024; ++i) {
    tuples.push_back(MakeTuple(i, {Value(i), Value(i % 2), Value(i * 3)}));
    map.Insert(ExtractKey(*tuples.back(), cols)).first->value =
        static_cast<int>(i);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        map.Find(KeyView(*tuples[i & 1023], cols)) != nullptr);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProbeKeyView);

}  // namespace
}  // namespace sqp

int main(int argc, char** argv) {
  sqp::bench::ParseBenchArgs(argc, argv);
  sqp::PrintQueuedSweep();
  sqp::PrintParallelSweep();
  sqp::bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
