// Experiment E11 (slide 27, window taxonomy): cost and state of the
// window kinds — agglomerative (landmark), sliding, shifting (tumbling)
// — maintained over the same stream, plus punctuation-based windows
// (slide 28) on the auction workload and sliding windows with a slide
// step over panes. Punctuated and paned windows are GroupByAggregateOp
// windows.

#include <benchmark/benchmark.h>

#include <chrono>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "exec/window_agg.h"
#include "stream/generators.h"

namespace sqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

void PrintWindowKinds() {
  const int kN = 200000;
  auto make_tuples = [&]() {
    Rng rng(71);
    std::vector<TupleRef> out;
    for (int64_t i = 0; i < kN; ++i) {
      out.push_back(MakeTuple(
          i, {Value(i), Value(static_cast<int64_t>(rng.Uniform(1000)))}));
    }
    return out;
  };
  std::vector<TupleRef> tuples = make_tuples();

  Table t({"window kind", "outputs", "peak state (KiB)", "note"});

  // Landmark (agglomerative): grows from the start, O(1) state for
  // invertible aggregates.
  {
    Plan plan;
    auto* wa = plan.Make<WindowAggregateOp>(
        WindowSpec::Landmark(0), std::vector<AggSpec>{{AggKind::kSum, 1, 0.5}});
    auto* sink = plan.Make<CountingSink>();
    wa->SetOutput(sink);
    size_t peak = 0;
    for (const TupleRef& tup : tuples) {
      wa->Push(Element(tup));
      peak = std::max(peak, wa->StateBytes());
    }
    t.AddRow({"agglomerative (landmark)", FmtInt(sink->tuples()),
              FmtInt(peak / 1024), "start..now; O(1) state for sum"});
  }
  // Sliding: per-tuple output, state = window contents.
  {
    Plan plan;
    auto* wa = plan.Make<WindowAggregateOp>(
        WindowSpec::TimeSliding(5000),
        std::vector<AggSpec>{{AggKind::kSum, 1, 0.5}});
    auto* sink = plan.Make<CountingSink>();
    wa->SetOutput(sink);
    size_t peak = 0;
    for (const TupleRef& tup : tuples) {
      wa->Push(Element(tup));
      peak = std::max(peak, wa->StateBytes());
    }
    t.AddRow({"sliding [range 5000]", FmtInt(sink->tuples()),
              FmtInt(peak / 1024), "state = window contents"});
  }
  // Tumbling (shifting): one output per bucket, one open bucket live.
  {
    Plan plan;
    GroupByOptions opt;
    opt.key_cols = {};
    opt.aggs = {{AggKind::kSum, 1, 0.5}};
    opt.window = WindowSpec::TimeTumbling(5000);
    auto* gb = plan.Make<GroupByAggregateOp>(opt);
    auto* sink = plan.Make<CountingSink>();
    gb->SetOutput(sink);
    size_t peak = 0;
    for (const TupleRef& tup : tuples) {
      gb->Push(Element(tup));
      peak = std::max(peak, gb->StateBytes());
    }
    gb->Flush();
    t.AddRow({"shifting (tumbling 5000)", FmtInt(sink->tuples()),
              FmtInt(peak / 1024), "one open bucket"});
  }
  t.Print("E11 / slide 27: window taxonomy on a 200k-tuple stream");
}

void PrintPunctuationWindows() {
  // Slide 28: auctions close on data-dependent punctuations. The winning
  // bid is max(amount) per auction, emitted when the auction closes.
  gen::AuctionGenerator auctions(gen::AuctionOptions{});
  Plan plan;
  GroupByOptions opt;
  opt.key_cols = {gen::AuctionCols::kAuctionId};
  opt.aggs = {{AggKind::kMax, gen::AuctionCols::kAmount, 0.5}};
  opt.window = WindowSpec::Punctuated();
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);
  uint64_t bids = 0;
  size_t peak_open = 0, peak_state = 0;
  for (int i = 0; i < 100000; ++i) {
    Element e = auctions.Next();
    if (e.is_tuple()) ++bids;
    gb->Push(e);
    peak_open = std::max(peak_open, gb->open_groups());
    peak_state = std::max(peak_state, gb->StateBytes());
  }
  double total_winning = 0;
  for (const TupleRef& row : sink->tuples()) {
    total_winning += row->at(2).AsDouble();
  }
  const size_t closed = sink->count();
  Table t({"metric", "value"});
  t.AddRow({"bids", FmtInt(bids)});
  t.AddRow({"auctions closed by punctuation", FmtInt(closed)});
  t.AddRow({"mean winning bid", Fmt(total_winning / double(closed), 2)});
  t.AddRow({"peak open auctions", FmtInt(peak_open)});
  t.AddRow({"peak state (B)", FmtInt(peak_state)});
  t.Print("E11 / slide 28: punctuation-delimited auction windows");
  std::printf(
      "state stays bounded by the number of *open* auctions — punctuations\n"
      "let an unbounded-domain grouping run in bounded memory.\n");
}

void PrintPanedAblation() {
  // Sliding max with window W, slide S: per-tuple maintenance vs panes.
  const int kN = 200000;
  auto make_tuples = [&]() {
    Rng rng(73);
    std::vector<TupleRef> out;
    for (int64_t i = 0; i < kN; ++i) {
      out.push_back(MakeTuple(
          i, {Value(i), Value(static_cast<int64_t>(rng.Uniform(100000)))}));
    }
    return out;
  };
  std::vector<TupleRef> tuples = make_tuples();

  Table t({"window/slide", "per-tuple sliding (ms)", "recomputes",
           "paned (ms)", "paned state (B)", "pane merges"});
  for (auto [w, s] : {std::pair<int64_t, int64_t>{2000, 100},
                      {2000, 500},
                      {10000, 500}}) {
    // Per-tuple: WindowAggregateOp evicts expired tuples from max's
    // monotonic deque and emits per tuple; `recomputes` counts buffer
    // replays (none for max).
    uint64_t recomputes = 0;
    auto t0 = std::chrono::steady_clock::now();
    {
      Plan plan;
      auto* wa = plan.Make<WindowAggregateOp>(
          WindowSpec::TimeSliding(w),
          std::vector<AggSpec>{{AggKind::kMax, 1, 0.5}});
      auto* sink = plan.Make<CountingSink>();
      wa->SetOutput(sink);
      for (const TupleRef& tup : tuples) wa->Push(Element(tup));
      recomputes = wa->recompute_count();
    }
    auto t1 = std::chrono::steady_clock::now();
    uint64_t merges = 0;
    size_t state_bytes = 0;
    {
      Plan plan;
      GroupByOptions opt;
      opt.aggs = {{AggKind::kMax, 1, 0.5}};
      opt.window = WindowSpec::TimeSliding(w, s);
      auto* pw = plan.Make<GroupByAggregateOp>(opt);
      auto* sink = plan.Make<CountingSink>();
      pw->SetOutput(sink);
      for (const TupleRef& tup : tuples) pw->Push(Element(tup));
      // Steady state: the last window's panes are all still live.
      state_bytes = pw->StateBytes();
      pw->Flush();
      merges = pw->merges();
    }
    auto t2 = std::chrono::steady_clock::now();
    t.AddRow({std::to_string(w) + "/" + std::to_string(s),
              Fmt(std::chrono::duration<double>(t1 - t0).count() * 1e3, 1),
              FmtInt(recomputes),
              Fmt(std::chrono::duration<double>(t2 - t1).count() * 1e3, 1),
              FmtInt(state_bytes), FmtInt(merges)});
  }
  t.Print("E11 ablation: sliding max — per-tuple maintenance vs panes "
          "(shared subaggregation)");
}

void BM_WindowMaintenance(benchmark::State& state) {
  int kind = static_cast<int>(state.range(0));
  Rng rng(72);
  std::vector<TupleRef> tuples;
  for (int64_t i = 0; i < 20000; ++i) {
    tuples.push_back(MakeTuple(
        i, {Value(i), Value(static_cast<int64_t>(rng.Uniform(1000)))}));
  }
  for (auto _ : state) {
    Plan plan;
    WindowSpec spec = kind == 0   ? WindowSpec::Landmark(0)
                      : kind == 1 ? WindowSpec::TimeSliding(2000)
                                  : WindowSpec::CountSliding(2000);
    auto* wa = plan.Make<WindowAggregateOp>(
        spec, std::vector<AggSpec>{{AggKind::kAvg, 1, 0.5}});
    auto* sink = plan.Make<CountingSink>();
    wa->SetOutput(sink);
    for (const TupleRef& t : tuples) wa->Push(Element(t));
    benchmark::DoNotOptimize(sink->tuples());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_WindowMaintenance)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"landmark_time_count"});

}  // namespace
}  // namespace sqp

int main(int argc, char** argv) {
  sqp::bench::ParseBenchArgs(argc, argv);
  sqp::PrintWindowKinds();
  sqp::PrintPunctuationWindows();
  sqp::PrintPanedAblation();
  sqp::bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
