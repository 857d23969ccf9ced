// E18: key-partitioned sharded execution — scaling, routing modes,
// and skew.
//
// Four tables:
//
//  - Scaling sweep (the CI gate): a nested-loop sliding-window join
//    under disjoint routing at shards 1/2/4/8. shards=1 goes through
//    the full exchange/merge path (router, bounded queues, worker and
//    merge threads), so it is the honest baseline: the speedup column
//    is scaling, not wrapper-removal. Disjoint partitioning shrinks
//    each replica's window to ~1/N of the keys, so nested-loop probe
//    work drops ~N-fold — the sweep shows work reduction even on a
//    single core, and true parallelism on top of it on multi-core.
//  - Routing modes: disjoint vs replicated on the same join. Replicated
//    broadcasts the non-partitioned side to every shard (the
//    shared-nothing trade-off when one side has no usable key), and the
//    routed counters make the ingest amplification visible.
//  - Sharded windowed group-by: hash aggregation is O(1) per tuple, so
//    there is no work reduction to harvest — the sweep reports what the
//    exchange overhead costs when the operator is cheap.
//  - Zipf skew: hash partitioning sends each key to one shard, so a
//    skewed key distribution concentrates load; the skew gauge is the
//    number an operator watches before trusting a scaling factor.
//
// Every sharded configuration's output count must equal the serial
// operator's on the same input — the harness aborts otherwise, so
// correctness rides every measurement run.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/exchange.h"
#include "exec/plan.h"
#include "exec/sharded_op.h"
#include "exec/window_join.h"

namespace sqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

// Input schema: [ts, key, payload].
TupleRef T(int64_t ts, int64_t key, int64_t payload = 0) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(payload)});
}

BinaryWindowJoinOp::Options NlJoinOptions(int64_t window) {
  BinaryWindowJoinOp::Options j;
  j.left_cols = {1};
  j.right_cols = {1};
  j.left_window = WindowSpec::TimeSliding(window);
  j.right_window = WindowSpec::TimeSliding(window);
  // Nested-loop on both sides: probe cost is proportional to window
  // population, which disjoint sharding divides by N.
  j.left_strategy = JoinStrategy::kNestedLoop;
  j.right_strategy = JoinStrategy::kNestedLoop;
  return j;
}

GroupByOptions Grouping() {
  GroupByOptions g;
  g.key_cols = {1};
  g.aggs = {AggSpec{AggKind::kCount, -1, 0.5},
            AggSpec{AggKind::kSum, 2, 0.5}};
  g.window = WindowSpec::TimeTumbling(100);
  return g;
}

struct Workload {
  int n = 0;
  int keys = 64;
  int64_t rate = 4;      // Tuples per timestamp tick (per port).
  double zipf_s = 0.0;   // 0 = uniform.
};

/// Drives `push(element, port)` with a deterministic keyed two-port
/// stream: ts advances every `rate` tuples, keys are uniform or Zipf,
/// and a watermark trails on both ports every 512 tuples.
template <typename PushFn>
void Drive(const Workload& w, PushFn&& push) {
  Rng rng(42);
  ZipfGenerator zipf(w.keys, w.zipf_s > 0 ? w.zipf_s : 1.0);
  for (int i = 0; i < w.n; ++i) {
    int64_t ts = i / w.rate;
    int64_t key = w.zipf_s > 0
                      ? static_cast<int64_t>(zipf.Next(rng))
                      : static_cast<int64_t>(rng.Uniform(
                            static_cast<uint64_t>(w.keys)));
    push(Element(T(ts, key, i)), static_cast<int>(rng.Uniform(2)));
    if (i % 512 == 511) {
      push(Element(Punctuation::Watermark(ts - 64)), 0);
      push(Element(Punctuation::Watermark(ts - 64)), 1);
    }
  }
}

struct RunResult {
  double seconds = 0;
  uint64_t results = 0;
  uint64_t routed = 0;
  double skew = 1.0;
};

/// Serial reference: the bare operator, no exchange.
template <typename MakeOp>
RunResult RunSerial(const Workload& w, MakeOp&& make_op, int flushes) {
  Plan plan;
  Operator* op = plan.Add(make_op(0));
  auto* sink = plan.Make<CountingSink>();
  op->SetOutput(sink);
  auto t0 = std::chrono::steady_clock::now();
  Drive(w, [&](const Element& e, int port) { op->Push(e, port); });
  for (int f = 0; f < flushes; ++f) op->Flush();
  auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.results = sink->tuples();
  return r;
}

/// Sharded run: the operator behind a ShardedOp, including shards=1.
template <typename MakeOp>
RunResult RunSharded(const Workload& w, MakeOp&& make_op, int shards,
                     ShardRouting routing,
                     std::vector<std::vector<int>> key_cols) {
  Plan plan;
  ShardedOpOptions so;
  so.shards = shards;
  so.routing = routing;
  so.key_cols = std::move(key_cols);
  so.expected_flushes = static_cast<int>(so.key_cols.size());
  auto* sharded = plan.Make<ShardedOp>(
      so, [&](int i) { return make_op(i); }, "bench-sharded");
  auto* sink = plan.Make<CountingSink>();
  sharded->SetOutput(sink);
  auto t0 = std::chrono::steady_clock::now();
  Drive(w, [&](const Element& e, int port) { sharded->Push(e, port); });
  for (int f = 0; f < so.expected_flushes; ++f) sharded->Flush();
  auto t1 = std::chrono::steady_clock::now();
  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.results = sink->tuples();
  for (int i = 0; i < shards; ++i) r.routed += sharded->shard_stats(i).routed;
  r.skew = sharded->SkewRatio();
  return r;
}

void RequireEqualResults(const char* what, uint64_t serial,
                         uint64_t sharded) {
  if (serial != sharded) {
    std::fprintf(stderr,
                 "FATAL: %s sharded output diverged from serial "
                 "(serial=%llu sharded=%llu)\n",
                 what, static_cast<unsigned long long>(serial),
                 static_cast<unsigned long long>(sharded));
    std::abort();
  }
}

// --- Table 1: scaling sweep (the CI perf gate parses this one) ---

void PrintScalingSweep() {
  // Windows sized so nested-loop probe work dwarfs the per-tuple
  // exchange cost (~400 ticks x 16/tick / 2 sides ~= 3200 live tuples
  // scanned per probe serial): the sweep then measures partitioning's
  // work reduction, not queue overhead, and stays stable under --smoke.
  // Many keys keep selectivity low — result emission rides the shared
  // merge path at every shard count, so a high-fanout join would put a
  // constant-cost floor under the sweep and mask the scaling.
  Workload w;
  w.n = bench::Iters(32000, 4000);
  w.keys = 1024;
  w.rate = 16;
  auto make_join = [](int) {
    return std::make_unique<BinaryWindowJoinOp>(NlJoinOptions(400));
  };

  RunResult serial = RunSerial(w, make_join, 2);

  Table t({"shards", "time_ms", "ktuples/s", "results", "skew",
           "speedup vs shards=1"});
  double base_seconds = 0;
  for (int shards : {1, 2, 4, 8}) {
    RunResult r = RunSharded(w, make_join, shards, ShardRouting::kDisjoint,
                             {{1}, {1}});
    RequireEqualResults("scaling sweep", serial.results, r.results);
    if (shards == 1) base_seconds = r.seconds;
    t.AddRow({FmtInt(static_cast<uint64_t>(shards)),
              Fmt(r.seconds * 1e3, 1),
              Fmt(static_cast<double>(w.n) / r.seconds / 1e3, 1),
              FmtInt(r.results), Fmt(r.skew),
              Fmt(base_seconds / r.seconds)});
  }
  t.AddRow({"serial", Fmt(serial.seconds * 1e3, 1),
            Fmt(static_cast<double>(w.n) / serial.seconds / 1e3, 1),
            FmtInt(serial.results), "-", "-"});
  t.Print("E18: sharding scaling (NL window join, disjoint)");
}

// --- Table 2: disjoint vs replicated routing ---

void PrintRoutingModes() {
  Workload w;
  w.n = bench::Iters(16000, 2000);
  w.keys = 48;
  w.rate = 8;
  auto make_join = [](int) {
    return std::make_unique<BinaryWindowJoinOp>(NlJoinOptions(120));
  };
  RunResult serial = RunSerial(w, make_join, 2);

  Table t({"routing", "shards", "time_ms", "routed", "ingest amp",
           "results"});
  for (ShardRouting routing :
       {ShardRouting::kDisjoint, ShardRouting::kReplicated}) {
    RunResult r = RunSharded(w, make_join, 4, routing, {{1}, {1}});
    RequireEqualResults("routing modes", serial.results, r.results);
    // Routed counts tuples only; watermarks are not in the denominator.
    double amp = static_cast<double>(r.routed) / static_cast<double>(w.n);
    t.AddRow({ShardRoutingName(routing), "4", Fmt(r.seconds * 1e3, 1),
              FmtInt(r.routed), Fmt(amp), FmtInt(r.results)});
  }
  t.Print("E18: routing modes (replicated broadcasts the probe side)");
}

// --- Table 3: sharded windowed group-by ---

void PrintGroupBySweep() {
  Workload w;
  w.n = bench::Iters(200000, 20000);
  w.keys = 256;
  w.rate = 16;
  auto make_agg = [](int) {
    return std::make_unique<GroupByAggregateOp>(Grouping());
  };
  RunResult serial = RunSerial(w, make_agg, 1);

  Table t({"shards", "time_ms", "ktuples/s", "results", "skew"});
  for (int shards : {1, 2, 4}) {
    RunResult r = RunSharded(w, make_agg, shards, ShardRouting::kDisjoint,
                             {{1}});
    RequireEqualResults("group-by sweep", serial.results, r.results);
    t.AddRow({FmtInt(static_cast<uint64_t>(shards)),
              Fmt(r.seconds * 1e3, 1),
              Fmt(static_cast<double>(w.n) / r.seconds / 1e3, 1),
              FmtInt(r.results), Fmt(r.skew)});
  }
  t.AddRow({"serial", Fmt(serial.seconds * 1e3, 1),
            Fmt(static_cast<double>(w.n) / serial.seconds / 1e3, 1),
            FmtInt(serial.results), "-"});
  t.Print("E18: sharded windowed group-by (cheap operator, overhead view)");
}

// --- Table 4: Zipf skew ---

void PrintSkewSweep() {
  auto make_join = [](int) {
    return std::make_unique<BinaryWindowJoinOp>(NlJoinOptions(150));
  };
  Table t({"zipf s", "time_ms", "ktuples/s", "skew", "results"});
  for (double s : {0.0, 0.9, 1.4}) {
    Workload w;
    w.n = bench::Iters(16000, 2000);
    w.keys = 64;
    w.rate = 8;
    w.zipf_s = s;
    RunResult serial = RunSerial(w, make_join, 2);
    RunResult r = RunSharded(w, make_join, 4, ShardRouting::kDisjoint,
                             {{1}, {1}});
    RequireEqualResults("skew sweep", serial.results, r.results);
    t.AddRow({s == 0.0 ? "uniform" : Fmt(s, 1), Fmt(r.seconds * 1e3, 1),
              Fmt(static_cast<double>(w.n) / r.seconds / 1e3, 1),
              Fmt(r.skew), FmtInt(r.results)});
  }
  t.Print("E18: Zipf key skew at shards=4 (disjoint)");
}

// --- Microbenchmarks: the routing decision itself ---

void BM_RouteDisjointTuple(benchmark::State& state) {
  ShardRouter r(8, ShardRouting::kDisjoint, {{1}});
  Element e(T(7, 12345));
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Route(e, 0));
  }
}
BENCHMARK(BM_RouteDisjointTuple);

void BM_RouteCloseKeyPunct(benchmark::State& state) {
  ShardRouter r(8, ShardRouting::kDisjoint, {{1}});
  Element e(Punctuation::CloseKey(7, Value(int64_t{12345})));
  for (auto _ : state) {
    benchmark::DoNotOptimize(r.Route(e, 0));
  }
}
BENCHMARK(BM_RouteCloseKeyPunct);

}  // namespace
}  // namespace sqp

int main(int argc, char** argv) {
  sqp::bench::ParseBenchArgs(argc, argv);
  sqp::PrintScalingSweep();
  sqp::PrintRoutingModes();
  sqp::PrintGroupBySweep();
  sqp::PrintSkewSweep();
  sqp::bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
