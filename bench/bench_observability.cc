// E15 — observability overhead. Every operator counts into its own
// always-on slot (relaxed load + store per element, a clock read on one
// chain in 16). This binary measures that on the select->project hot
// path (the cheapest real operators, i.e. the worst case for relative
// overhead), plus the cost of sampled lineage tracing and of
// taking/rendering snapshots while the plan runs.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "arch/engine.h"
#include "bench_util.h"
#include "common/rng.h"
#include "exec/expr.h"
#include "exec/plan.h"
#include "exec/profiler.h"
#include "exec/project.h"
#include "exec/select.h"
#include "obs/monitor.h"
#include "obs/registry.h"
#include "shed/feedback_shedder.h"
#include "stream/arrival.h"
#include "stream/generators.h"

namespace sqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

std::vector<Element> MakeInput(uint64_t n) {
  std::vector<Element> input;
  input.reserve(n);
  gen::PacketGenerator packets(gen::PacketOptions{});
  for (uint64_t i = 0; i < n; ++i) input.push_back(Element(packets.Next()));
  return input;
}

struct ChainRun {
  double seconds = 0.0;
  uint64_t out = 0;
};

/// Builds the select(len > 500) -> project(ts, len*2) -> count chain
/// into `plan`; returns the entry operator.
Operator* BuildChain(Plan* plan, CountingSink** sink) {
  auto* sel = plan->Make<SelectOp>(
      Gt(Col(gen::PacketCols::kLen), Lit(int64_t{500})));
  auto* proj = plan->Make<ProjectOp>(std::vector<ExprRef>{
      Col(gen::PacketCols::kTs), Mul(Col(gen::PacketCols::kLen),
                                     Lit(int64_t{2}))});
  *sink = plan->Make<CountingSink>();
  sel->SetOutput(proj);
  proj->SetOutput(*sink);
  return sel;
}

/// Streams `input` through a fresh chain, entering via Process (or the
/// raw virtual Push), with lineage tracing every `trace_every`-th tuple
/// when non-zero.
ChainRun RunChain(const std::vector<Element>& input, uint64_t trace_every,
                  bool direct_push = false) {
  Plan plan;
  CountingSink* sink = nullptr;
  Operator* sel = BuildChain(&plan, &sink);
  obs::Tracer tracer;
  if (trace_every != 0) {
    tracer.SetSampleEvery(trace_every);
    for (const auto& op : plan.operators()) op->SetTracer(&tracer);
  }
  auto t0 = std::chrono::steady_clock::now();
  if (direct_push) {
    for (const Element& e : input) sel->Push(e, 0);
  } else {
    for (const Element& e : input) sel->Process(e, 0);
  }
  sel->Flush();
  auto t1 = std::chrono::steady_clock::now();
  ChainRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.out = sink->tuples();
  return r;
}

void PrintOverheadTable() {
  const uint64_t n = bench::Iters(4000000, 100000);
  const int reps = 3;
  std::vector<Element> input = MakeInput(n);

  // Best-of-reps per configuration, interleaved so frequency scaling
  // and cache warmth hit every configuration equally.
  double base = 1e100;
  double slot = 1e100;
  double traced = 1e100;
  uint64_t out_base = 0;
  uint64_t out_traced = 0;
  for (int r = 0; r < reps; ++r) {
    const ChainRun b = RunChain(input, 0, true);
    base = std::min(base, b.seconds);
    out_base = b.out;
    slot = std::min(slot, RunChain(input, 0).seconds);
    const ChainRun t = RunChain(input, 1024);
    traced = std::min(traced, t.seconds);
    out_traced = t.out;
  }
  if (out_base != out_traced) {
    std::fprintf(stderr, "FATAL: tracing changed results\n");
    std::exit(1);
  }

  auto mps = [&](double s) { return static_cast<double>(n) / s / 1e6; };
  auto row = [&](const char* name, double s) {
    return std::vector<std::string>{name, Fmt(mps(s)),
                                    Fmt(s / static_cast<double>(n) * 1e9, 1),
                                    Fmt((s - base) / base * 100.0, 1)};
  };
  Table t({"config", "Mtuples/s", "ns/tuple", "overhead %"});
  t.AddRow({"entry via Push()", Fmt(mps(base)),
            Fmt(base / static_cast<double>(n) * 1e9, 1), "baseline"});
  t.AddRow(row("always-on slot (Process)", slot));
  t.AddRow(row("+ trace 1/1024", traced));
  t.Print("E15: instrumentation overhead, select->project hot path");
  std::printf(
      "note: every hop counts into its slot whichever way the chain is\n"
      "entered; the Push entry skips only the entry hop's delivery count\n"
      "and sampled timing.\n");
}

void PrintSnapshotCosts() {
  const uint64_t n = bench::Iters(500000, 20000);
  std::vector<Element> input = MakeInput(n);
  Plan plan;
  CountingSink* sink = nullptr;
  Operator* sel = BuildChain(&plan, &sink);
  obs::MetricsRegistry reg;
  reg.EnableTracing(256);
  for (const auto& op : plan.operators()) op->SetTracer(reg.tracer());
  obs::QueryProfiler profiler;
  profiler.Register("e15", "select/project chain");
  profiler.BindPlan("e15", plan);
  reg.AddCollector("e15", [&profiler](obs::SnapshotBuilder& b) {
    profiler.Publish("e15", b);
  });
  for (const Element& e : input) sel->Process(e, 0);
  sel->Flush();
  const int snaps = static_cast<int>(bench::Iters(200, 20));
  auto t0 = std::chrono::steady_clock::now();
  size_t json_bytes = 0;
  size_t prom_bytes = 0;
  for (int i = 0; i < snaps; ++i) {
    obs::Snapshot s = reg.TakeSnapshot();
    json_bytes = s.ToJson().size();
    prom_bytes = s.ToPrometheus().size();
  }
  auto t1 = std::chrono::steady_clock::now();
  double us = std::chrono::duration<double>(t1 - t0).count() * 1e6 /
              static_cast<double>(snaps);
  Table t({"what", "value"});
  t.AddRow({"snapshot+render us", Fmt(us, 1)});
  t.AddRow({"json bytes", FmtInt(json_bytes)});
  t.AddRow({"prometheus bytes", FmtInt(prom_bytes)});
  t.AddRow({"trace events", FmtInt(reg.TakeSnapshot().trace.size())});
  t.Print("E15: snapshot + export cost (3-op plan, tracing on)");
}

struct EngineRun {
  double seconds = 0.0;
  size_t rows = 0;
};

/// Streams `input` through a full StreamEngine (select->project over the
/// packets stream) with the given observability configuration. The timed
/// region covers ingest through FinishAll, so it includes everything the
/// monitor/latency machinery touches on the hot path.
EngineRun RunEngineIngest(const std::vector<TupleRef>& input,
                          uint64_t latency_every, int monitor_period_ms) {
  StreamEngine engine;
  (void)engine.RegisterStream("packets", gen::PacketSchema());
  engine.SetLatencySampleEvery(latency_every);
  auto q = engine.Submit("select ts, len from packets where len > 500");
  if (!q.ok()) {
    std::fprintf(stderr, "FATAL: %s\n", q.status().ToString().c_str());
    std::exit(1);
  }
  if (monitor_period_ms > 0) {
    obs::MonitorOptions mopt;
    mopt.period_ms = monitor_period_ms;
    engine.StartMonitor(mopt);
  }
  auto t0 = std::chrono::steady_clock::now();
  for (const TupleRef& t : input) (void)engine.Ingest("packets", t);
  engine.FinishAll();
  auto t1 = std::chrono::steady_clock::now();
  EngineRun r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.rows = (*q)->result_count();
  return r;
}

/// E17 — continuous-monitor overhead. The Monitor samples the registry
/// from its own thread; the ingest path only pays the latency probe (a
/// relaxed load + occasional CAS). This measures the whole engine ingest
/// path with the monitor off vs ticking, best-of-reps interleaved.
void PrintMonitorOverheadTable() {
  const uint64_t n = bench::Iters(2000000, 100000);
  const int reps = static_cast<int>(bench::Iters(7, 5));
  std::vector<TupleRef> input;
  input.reserve(n);
  gen::PacketGenerator packets(gen::PacketOptions{});
  for (uint64_t i = 0; i < n; ++i) input.push_back(packets.Next());

  struct Config {
    const char* name;
    uint64_t latency_every;
    int monitor_period_ms;
  };
  const Config configs[] = {
      {"metrics only (no monitor)", 0, 0},
      {"+ latency sampling 1/256 (default)", 256, 0},
      {"+ monitor 100ms tick (default)", 256, 100},
      {"+ monitor 10ms tick", 256, 10},
      {"+ monitor 1ms tick (stress)", 256, 1},
  };
  constexpr int kConfigs = 5;
  // Shared machines drift several percent between runs, swamping a
  // best-of comparison across configs. Pair instead: every rep times
  // the baseline and each config back to back, the overhead is the
  // per-rep ratio (slow drift cancels), and the median rep rejects
  // scheduler bursts.
  std::vector<std::vector<double>> ratio(kConfigs);
  double best[kConfigs] = {1e100, 1e100, 1e100, 1e100, 1e100};
  size_t rows[kConfigs] = {0, 0, 0, 0, 0};
  for (int r = 0; r < reps; ++r) {
    // Untimed warmup: the first engine of a rep otherwise runs cold
    // (allocator + cache state) and inflates whichever config runs
    // first. The rotation below makes any residual within-rep drift
    // hit every config in every slot across reps, so it cancels out
    // of the aggregated ratios instead of biasing the baseline.
    (void)RunEngineIngest(input, 0, 0);
    double rep_s[kConfigs];
    for (int s = 0; s < kConfigs; ++s) {
      int c = (r + s) % kConfigs;
      EngineRun run = RunEngineIngest(input, configs[c].latency_every,
                                      configs[c].monitor_period_ms);
      rep_s[c] = run.seconds;
      best[c] = std::min(best[c], run.seconds);
      rows[c] = run.rows;
    }
    for (int c = 0; c < kConfigs; ++c) ratio[c].push_back(rep_s[c] / rep_s[0]);
  }
  for (int c = 1; c < kConfigs; ++c) {
    if (rows[c] != rows[0]) {
      std::fprintf(stderr, "FATAL: observability changed results\n");
      std::exit(1);
    }
  }
  // Median rep for real runs; min rep under --smoke, where each run is
  // milliseconds and one scheduler burst skews even the median — the
  // min stays meaningful for the CI gate because a systematic slowdown
  // (say, a lock added to the ingest path) inflates every rep.
  auto agg = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    if (bench::SmokeMode()) return v.front();
    size_t m = v.size() / 2;
    return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
  };
  auto mps = [&](double s) { return static_cast<double>(n) / s / 1e6; };
  Table t({"config", "Mtuples/s", "ns/tuple", "overhead %"});
  t.AddRow({configs[0].name, Fmt(mps(best[0])),
            Fmt(best[0] / static_cast<double>(n) * 1e9, 1), "baseline"});
  for (int c = 1; c < kConfigs; ++c) {
    t.AddRow({configs[c].name, Fmt(mps(best[c])),
              Fmt(best[c] / static_cast<double>(n) * 1e9, 1),
              Fmt((agg(ratio[c]) - 1.0) * 100.0, 1)});
  }
  t.Print("E17: continuous monitor overhead, engine ingest path");
  std::printf(
      "note: the monitor thread snapshots every period; the ingest path\n"
      "itself only pays the sampled latency probe. overhead %% is the\n"
      "per-rep paired ratio vs the same rep's baseline (median rep on\n"
      "full runs, min rep under --smoke). Acceptance gate: 'monitor\n"
      "100ms tick (default)' < 3%% on a full run; the 1ms row is a\n"
      "stress configuration (100x the default).\n");
}

/// E17b — adaptive shedding convergence. Deterministic queue simulation:
/// Poisson arrivals at 2x service capacity, the PI controller watching
/// the queue. Reports time-to-target, steady-state error, and recovery.
void PrintSheddingConvergenceTable() {
  const int ticks = static_cast<int>(bench::Iters(20000, 3000));
  FeedbackShedder::Options opt;
  opt.target_queue = 100.0;
  FeedbackShedder shed(opt);
  Rng rng(17);
  PoissonArrival arrivals(2.0, 18);
  double queue = 0;
  int first_in_band = -1;
  double tail_queue = 0.0;
  double tail_rate = 0.0;
  int tail_n = 0;
  const int tail_start = ticks * 3 / 4;
  for (int t = 0; t < ticks; ++t) {
    uint64_t arr = arrivals.ArrivalsAt(t);
    double p = shed.Observe(static_cast<size_t>(queue));
    for (uint64_t i = 0; i < arr; ++i) {
      if (!rng.Bernoulli(p)) queue += 1;
    }
    queue = std::max(0.0, queue - 1.0);
    if (first_in_band < 0 && queue >= 75.0 && queue <= 125.0) {
      first_in_band = t;
    }
    if (t >= tail_start) {
      tail_queue += queue;
      tail_rate += p;
      ++tail_n;
    }
  }
  // Load vanishes: how fast does the gate reopen?
  int recovery_ticks = 0;
  while (shed.Observe(0) >= 0.01 && recovery_ticks < 10000) ++recovery_ticks;

  Table t({"metric", "value"});
  t.AddRow({"ticks to reach +-25% of target", FmtInt(static_cast<uint64_t>(
                                                  std::max(first_in_band, 0)))});
  t.AddRow({"tail mean queue (target 100)", Fmt(tail_queue / tail_n, 1)});
  t.AddRow({"tail mean drop rate (ideal 0.50)", Fmt(tail_rate / tail_n, 3)});
  t.AddRow({"ticks to <1% drops after load ends", FmtInt(
                                                      static_cast<uint64_t>(
                                                          recovery_ticks))});
  t.Print("E17b: adaptive shedding convergence, 2x overload");
}

void BM_CounterInc(benchmark::State& state) {
  obs::Counter c;
  for (auto _ : state) {
    c.Inc();
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_CounterInc);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram h;
  uint64_t v = 1;
  for (auto _ : state) {
    h.Observe(v++);
    benchmark::DoNotOptimize(h);
  }
}
BENCHMARK(BM_HistogramObserve);

void BM_Chain(benchmark::State& state) {
  std::vector<Element> input = MakeInput(20000);
  for (auto _ : state) {
    ChainRun r = RunChain(input, 0);
    benchmark::DoNotOptimize(r.out);
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_Chain);

}  // namespace
}  // namespace sqp

int main(int argc, char** argv) {
  sqp::bench::ParseBenchArgs(argc, argv);
  sqp::PrintOverheadTable();
  sqp::PrintSnapshotCosts();
  sqp::PrintMonitorOverheadTable();
  sqp::PrintSheddingConvergenceTable();
  sqp::bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
