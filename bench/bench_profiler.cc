// E22 — cost of the always-on per-operator slot (sqp::obs::OpCounters)
// behind \metrics and EXPLAIN ANALYZE. Every Process call counts into
// the operator's own slot with relaxed load + store (no locked RMW),
// and a randomly picked one chain in kTimeSampleEvery (256) reads the
// clock; the others pay one countdown decrement. This binary
// measures that against the raw virtual Push on the four-stage
// select->select->project->project chain (the E16 shape — the cheapest
// real operators, i.e. the worst case for relative overhead), then
// prices the scrape side: profile snapshot + render, and the event log.
//
// ROADMAP target (full run): 'always-on slot vs raw Push' <= 5%.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exec/expr.h"
#include "exec/plan.h"
#include "exec/profiler.h"
#include "exec/project.h"
#include "exec/select.h"
#include "obs/event_log.h"
#include "obs/op_counters.h"
#include "stream/generators.h"

namespace sqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

/// Packet stream with a watermark every `punct_every` tuples, so the
/// slot's watermark-forwarding path (clock read + 3 relaxed stores) is
/// exercised at a realistic punctuation rate.
std::vector<Element> MakeInput(uint64_t n, uint64_t punct_every) {
  std::vector<Element> input;
  input.reserve(n + n / punct_every + 1);
  gen::PacketGenerator packets(gen::PacketOptions{});
  int64_t last_ts = 0;
  for (uint64_t i = 0; i < n; ++i) {
    TupleRef t = packets.Next();
    last_ts = t->ts();
    input.push_back(Element(std::move(t)));
    if ((i + 1) % punct_every == 0) {
      input.push_back(Element(Punctuation::Watermark(last_ts)));
    }
  }
  return input;
}

struct ChainRun {
  double seconds = 0.0;
  uint64_t out = 0;
};

/// Builds the 4-stage select->select->project->project chain and
/// streams `input` through it, entering via the raw virtual Push or via
/// Process, the counted entry point every driver uses. The slot's in/out
/// counts live in CountIn/Emit and have no off switch, so the Push row
/// skips only the entry hop's delivery count and sampled timing; the
/// absolute ns/tuple is what compares across builds.
ChainRun RunChain(const std::vector<Element>& input, bool direct_push) {
  Plan plan;
  auto* sel1 = plan.Make<SelectOp>(
      Gt(Col(gen::PacketCols::kLen), Lit(int64_t{200})));
  auto* sel2 = plan.Make<SelectOp>(
      Gt(Lit(int64_t{1400}), Col(gen::PacketCols::kLen)));
  auto* proj1 = plan.Make<ProjectOp>(std::vector<ExprRef>{
      Col(gen::PacketCols::kTs),
      Mul(Col(gen::PacketCols::kLen), Lit(int64_t{2}))});
  auto* proj2 = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(0), Col(1)});
  auto* sink = plan.Make<CountingSink>();
  sel1->SetOutput(sel2);
  sel2->SetOutput(proj1);
  proj1->SetOutput(proj2);
  proj2->SetOutput(sink);

  auto t0 = std::chrono::steady_clock::now();
  if (direct_push) {
    for (const Element& e : input) sel1->Push(e, 0);
  } else {
    for (const Element& e : input) sel1->Process(e, 0);
  }
  sel1->Flush();
  auto t1 = std::chrono::steady_clock::now();
  ChainRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.out = sink->tuples();
  return r;
}

void PrintOverheadTable() {
  const uint64_t n = bench::Iters(4000000, 100000);
  const int reps = static_cast<int>(bench::Iters(7, 3));
  std::vector<Element> input = MakeInput(n, 1024);

  // Paired per-rep ratios against that same rep's Push baseline, median
  // across reps (min under --smoke): slow machine drift cancels, bursts
  // are rejected. The two runs alternate which goes first. Same scheme
  // as E17.
  std::vector<double> ratio;
  double best_push = 1e100;
  double best_slot = 1e100;
  uint64_t out_push = 0;
  uint64_t out_slot = 0;
  for (int r = 0; r < reps; ++r) {
    (void)RunChain(input, false);  // Untimed warmup.
    ChainRun push, slot;
    if (r % 2 == 0) {
      push = RunChain(input, true);
      slot = RunChain(input, false);
    } else {
      slot = RunChain(input, false);
      push = RunChain(input, true);
    }
    best_push = std::min(best_push, push.seconds);
    best_slot = std::min(best_slot, slot.seconds);
    out_push = push.out;
    out_slot = slot.out;
    ratio.push_back(slot.seconds / push.seconds);
  }
  if (out_slot != out_push) {
    std::fprintf(stderr, "FATAL: the slot changed results (%llu vs %llu)\n",
                 static_cast<unsigned long long>(out_slot),
                 static_cast<unsigned long long>(out_push));
    std::exit(1);
  }
  std::sort(ratio.begin(), ratio.end());
  const size_t mid = ratio.size() / 2;
  const double agg =
      bench::SmokeMode()
          ? ratio.front()
          : (ratio.size() % 2 == 1 ? ratio[mid]
                                   : (ratio[mid - 1] + ratio[mid]) / 2.0);
  auto mps = [&](double s) { return static_cast<double>(n) / s / 1e6; };
  auto ns = [&](double s) { return s / static_cast<double>(n) * 1e9; };
  Table t({"config", "Mtuples/s", "ns/tuple", "overhead %"});
  t.AddRow({"entry via Push() (no hooks)", Fmt(mps(best_push)),
            Fmt(ns(best_push), 1), "baseline"});
  t.AddRow({"always-on slot vs raw Push", Fmt(mps(best_slot)),
            Fmt(ns(best_slot), 1), Fmt((agg - 1.0) * 100.0, 1)});
  t.Print("E22: always-on operator slot, 4-stage select/project chain");
  std::printf(
      "note: overhead %% is the per-rep paired ratio vs the same rep's\n"
      "Push baseline (median rep on full runs, min under --smoke). The\n"
      "always-on row is what every operator pays, engine query or\n"
      "hand-built plan. ROADMAP target: <= 5%% on a full run.\n");
}

/// Scrape-side cost: snapshotting and rendering a live profile, and the
/// event log's emit + export path. None of these touch the hot path.
void PrintScrapeCosts() {
  const uint64_t n = bench::Iters(500000, 20000);
  std::vector<Element> input = MakeInput(n, 1024);

  Plan plan;
  auto* sel = plan.Make<SelectOp>(
      Gt(Col(gen::PacketCols::kLen), Lit(int64_t{200})));
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{
      Col(gen::PacketCols::kTs), Col(gen::PacketCols::kLen)});
  auto* sink = plan.Make<CountingSink>();
  sel->SetOutput(proj);
  proj->SetOutput(sink);
  obs::QueryProfiler profiler;
  obs::QueryProfiler::SourceWatermark* src =
      profiler.Register("e22", "scrape-cost chain");
  profiler.BindPlan("e22", plan);
  for (const Element& e : input) {
    if (e.is_punctuation() && !e.punctuation().has_key) {
      src->OnWatermark(e.punctuation().ts);
    }
    sel->Process(e, 0);
  }
  sel->Flush();

  const int snaps = static_cast<int>(bench::Iters(2000, 100));
  size_t pretty_bytes = 0;
  size_t json_bytes = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < snaps; ++i) {
    obs::QueryProfile p;
    profiler.Snapshot("e22", &p);
    pretty_bytes = p.Pretty().size();
    json_bytes = p.ToJson().size();
  }
  auto t1 = std::chrono::steady_clock::now();
  const double snap_us = std::chrono::duration<double>(t1 - t0).count() *
                         1e6 / static_cast<double>(snaps);

  obs::EventLog events(1024);
  const uint64_t emits = bench::Iters(200000, 10000);
  t0 = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < emits; ++i) {
    events.Emit(obs::EventKind::kQuerySubmit, "q0", "bench event payload");
  }
  t1 = std::chrono::steady_clock::now();
  const double emit_ns = std::chrono::duration<double>(t1 - t0).count() *
                         1e9 / static_cast<double>(emits);
  t0 = std::chrono::steady_clock::now();
  size_t events_bytes = 0;
  const int dumps = static_cast<int>(bench::Iters(500, 50));
  for (int i = 0; i < dumps; ++i) events_bytes = events.ToJson().size();
  t1 = std::chrono::steady_clock::now();
  const double dump_us = std::chrono::duration<double>(t1 - t0).count() *
                         1e6 / static_cast<double>(dumps);

  Table t({"what", "value"});
  t.AddRow({"profile snapshot+render us", Fmt(snap_us, 1)});
  t.AddRow({"profile pretty bytes", FmtInt(pretty_bytes)});
  t.AddRow({"profile json bytes", FmtInt(json_bytes)});
  t.AddRow({"event emit ns", Fmt(emit_ns, 1)});
  t.AddRow({"event log json us (full ring)", Fmt(dump_us, 1)});
  t.AddRow({"event log json bytes", FmtInt(events_bytes)});
  t.Print("E22: scrape-side cost (profile snapshot, event log)");
}

void BM_OpCountersWatermarkForward(benchmark::State& state) {
  obs::OpCounters c;
  int64_t ts = 0;
  for (auto _ : state) {
    c.OnWatermarkForward(ts++);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OpCountersWatermarkForward);

void BM_OpCountersCountIn(benchmark::State& state) {
  obs::OpCounters c;
  for (auto _ : state) {
    c.CountIn(false);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OpCountersCountIn);

void BM_EventLogEmit(benchmark::State& state) {
  obs::EventLog log(1024);
  for (auto _ : state) {
    log.Emit(obs::EventKind::kQuerySubmit, "q0", "payload");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_EventLogEmit);

void BM_SourceWatermarkTap(benchmark::State& state) {
  obs::QueryProfiler profiler;
  obs::QueryProfiler::SourceWatermark* src = profiler.Register("q0", "t");
  int64_t ts = 0;
  for (auto _ : state) {
    src->OnWatermark(ts++);
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SourceWatermarkTap);

}  // namespace
}  // namespace sqp

int main(int argc, char** argv) {
  sqp::bench::ParseBenchArgs(argc, argv);
  sqp::PrintOverheadTable();
  sqp::PrintScrapeCosts();
  sqp::bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
