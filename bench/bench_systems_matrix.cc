// Experiment E9 (slide 52, "Comparative Matrix"): one workload — per-
// source traffic accounting over a Zipf packet stream pushed through a
// resource-limited low level — executed under profiles modelled on the
// five surveyed prototypes. The static design axes reproduce the
// slide's matrix; the measured columns show the consequences of each
// design on the same input: drops, state, and answer error.
//
//   Aurora    : operator network + QoS-driven semantic load shedding.
//   Gigascope : two-level GSQL — fixed-slot partial aggregation low,
//               exact merge high.
//   Hancock   : stream-in relation-out block signatures (I/O-optimized).
//   STREAM    : CQL with synopsis (Count-Min) under a memory budget.
//   Telegraph : adaptive exact dataflow with rich resources.

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <unordered_map>

#include "agg/partial_agg.h"
#include "arch/system.h"
#include "bench_util.h"
#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "hancock/program.h"
#include "hancock/signature.h"
#include "shed/load_shedder.h"
#include "stream/generators.h"
#include "synopsis/count_min.h"

namespace sqp {
namespace {

using bench::Fmt;
using bench::FmtInt;
using bench::Table;

constexpr int kTuples = 200000;
constexpr uint64_t kHosts = 5000;

struct Workload {
  std::vector<TupleRef> tuples;  // [ts, src, len]
  std::unordered_map<int64_t, uint64_t> true_bytes;
  std::vector<int64_t> top_sources;
};

Workload MakeWorkload() {
  Workload w;
  Rng rng(61);
  ZipfGenerator zipf(kHosts, 1.1);
  for (int64_t i = 0; i < kTuples; ++i) {
    int64_t src = static_cast<int64_t>(zipf.Next(rng));
    int64_t len = 40 + static_cast<int64_t>(rng.Uniform(1460));
    w.tuples.push_back(MakeTuple(i, {Value(i), Value(src), Value(len)}));
    w.true_bytes[src] += static_cast<uint64_t>(len);
  }
  std::vector<std::pair<uint64_t, int64_t>> ranked;
  for (auto& [src, bytes] : w.true_bytes) ranked.emplace_back(bytes, src);
  std::sort(ranked.rbegin(), ranked.rend());
  for (int i = 0; i < 20; ++i) w.top_sources.push_back(ranked[static_cast<size_t>(i)].second);
  return w;
}

double TopKError(const Workload& w,
                 const std::function<double(int64_t)>& estimate) {
  double sum = 0;
  for (int64_t src : w.top_sources) {
    double truth = static_cast<double>(w.true_bytes.at(src));
    sum += std::fabs(estimate(src) - truth) / truth;
  }
  return sum / static_cast<double>(w.top_sources.size());
}

struct ProfileResult {
  double error;
  uint64_t drops;
  size_t state_bytes;
};

// Aurora: low-level node with limited capacity; a QoS-driven shedder
// keeps heavy-hitter traffic (len-weighted "important" tuples) and drops
// the rest when overloaded.
ProfileResult RunAurora(const Workload& w) {
  Plan plan;
  // Semantic shedder: always keep large packets (most of the byte mass).
  auto* shed = plan.Make<SemanticDropOp>(Gt(Col(2), Lit(int64_t{700})), 0.5, 62);
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kSum, 2, 0.5}};
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  shed->SetOutput(gb);
  gb->SetOutput(sink);
  for (const TupleRef& t : w.tuples) shed->Push(Element(t));
  gb->Flush();
  std::unordered_map<int64_t, double> est;
  for (const TupleRef& r : sink->tuples()) {
    est[r->at(1).AsInt()] = r->at(2).ToDouble();
  }
  // Scale the shed small-packet mass back up (approximate answer).
  double scale_small = 1.0 / (1.0 - 0.5);
  (void)scale_small;  // Aurora reports the shed answer unscaled.
  ProfileResult res;
  res.error = TopKError(w, [&](int64_t s) { return est.count(s) ? est[s] : 0.0; });
  res.drops = shed->dropped();
  res.state_bytes = gb->StateBytes();
  return res;
}

// Gigascope: two-level partial aggregation, exact after merge.
ProfileResult RunGigascope(const Workload& w) {
  std::vector<AggSpec> aggs = {{AggKind::kSum, 2, 0.5}};
  PartialAggregator low(256, {1}, aggs);
  FinalAggregator high(aggs);
  std::vector<PartialGroup> partials;
  size_t peak_low = 0;
  for (const TupleRef& t : w.tuples) {
    low.Add(*t, &partials);
    for (auto& g : partials) high.Merge(std::move(g));
    partials.clear();
    if ((t->ts() & 0x3ff) == 0) peak_low = std::max(peak_low, low.MemoryBytes());
  }
  low.Flush(&partials);
  for (auto& g : partials) high.Merge(std::move(g));
  std::unordered_map<int64_t, double> est;
  for (auto& [key, vals] : high.Results()) {
    est[key.parts[0].AsInt()] = vals[0].ToDouble();
  }
  ProfileResult res;
  res.error = TopKError(w, [&](int64_t s) { return est.count(s) ? est[s] : 0.0; });
  res.drops = 0;
  res.state_bytes = peak_low;  // The resource-limited level's footprint.
  return res;
}

// Hancock: sorted block processing, signatures in a persistent store.
ProfileResult RunHancock(const Workload& w) {
  hancock::SignatureStore store(1, 1.0);  // alpha=1: exact cumulative sums
  hancock::SignatureProgram prog(1, nullptr);
  const size_t kBlock = 20000;
  double line_sum = 0;
  for (size_t start = 0; start < w.tuples.size(); start += kBlock) {
    std::vector<TupleRef> block(
        w.tuples.begin() + static_cast<ptrdiff_t>(start),
        w.tuples.begin() +
            static_cast<ptrdiff_t>(std::min(start + kBlock, w.tuples.size())));
    hancock::SignatureProgram::Events ev;
    ev.line_begin = [&](int64_t) { line_sum = 0; };
    ev.call = [&](const Tuple& t) { line_sum += t.at(2).ToDouble(); };
    ev.line_end = [&](int64_t caller) {
      double prev = store.Contains(caller) ? store.Get(caller)[0] : 0.0;
      store.Put(caller, {prev + line_sum});
    };
    prog.RunBlock(std::move(block), ev);
  }
  ProfileResult res;
  res.error = TopKError(w, [&](int64_t s) {
    return store.Contains(s) ? store.Get(s)[0] : 0.0;
  });
  res.drops = 0;
  res.state_bytes = store.size() * (sizeof(int64_t) + sizeof(double) + 32);
  return res;
}

// STREAM: synopsis-based approximate answer in sublinear memory.
ProfileResult RunStream(const Workload& w) {
  CountMinSketch cm(4096, 4, 63);
  for (const TupleRef& t : w.tuples) {
    cm.Add(Value(t->at(1).AsInt()), static_cast<uint64_t>(t->at(2).AsInt()));
  }
  ProfileResult res;
  res.error = TopKError(w, [&](int64_t s) {
    return static_cast<double>(cm.Estimate(Value(s)));
  });
  res.drops = 0;
  res.state_bytes = cm.MemoryBytes();
  return res;
}

// Telegraph: exact adaptive dataflow with ample resources.
ProfileResult RunTelegraph(const Workload& w) {
  Plan plan;
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kSum, 2, 0.5}};
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);
  for (const TupleRef& t : w.tuples) gb->Push(Element(t));
  size_t state = gb->StateBytes();
  gb->Flush();
  std::unordered_map<int64_t, double> est;
  for (const TupleRef& r : sink->tuples()) {
    est[r->at(1).AsInt()] = r->at(2).ToDouble();
  }
  ProfileResult res;
  res.error = TopKError(w, [&](int64_t s) { return est.count(s) ? est[s] : 0.0; });
  res.drops = 0;
  res.state_bytes = state;
  return res;
}

void PrintMatrix() {
  Workload w = MakeWorkload();
  struct Row {
    const char* system;
    const char* arch;
    const char* model;
    const char* language;
    const char* answers;
    const char* plan;
    ProfileResult result;
  };
  Row rows[] = {
      {"Aurora", "low-level", "RS-in RS-out", "operators", "approximate",
       "QoS-based, load shedding", RunAurora(w)},
      {"Gigascope", "two level", "S-in S-out", "GSQL", "exact",
       "decomposition, avoid drops", RunGigascope(w)},
      {"Hancock", "high-level", "RS-in R-out", "procedural",
       "exact, signatures", "optimize I/O, blocks", RunHancock(w)},
      {"STREAM", "low-level", "RS-in RS-out", "CQL", "approximate",
       "optimize space, static analysis", RunStream(w)},
      {"Telegraph", "high-level", "RS-in RS-out", "SQL-based", "exact",
       "adaptive plans, multi-query", RunTelegraph(w)},
  };
  Table t({"System", "Architecture", "Data Model", "Language", "Answers",
           "Plan (slide 52)", "top-20 err", "drops", "state KiB"});
  for (const Row& r : rows) {
    t.AddRow({r.system, r.arch, r.model, r.language, r.answers, r.plan,
              Fmt(r.result.error, 4), FmtInt(r.result.drops),
              FmtInt(r.result.state_bytes / 1024)});
  }
  t.Print("E9 / slide 52: comparative matrix, one workload under five "
          "profiles");
  std::printf(
      "shape: exact profiles (Gigascope/Hancock/Telegraph) reach 0 error;\n"
      "Gigascope does it in bounded low-level state; STREAM trades a small\n"
      "sketch error for the smallest state; Aurora trades accuracy for\n"
      "surviving overload via semantic drops.\n");
}

void BM_Profile(benchmark::State& state) {
  Workload w = MakeWorkload();
  int which = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ProfileResult r;
    switch (which) {
      case 0: r = RunGigascope(w); break;
      case 1: r = RunStream(w); break;
      default: r = RunTelegraph(w); break;
    }
    benchmark::DoNotOptimize(r.error);
  }
  state.SetItemsProcessed(state.iterations() * kTuples);
}
BENCHMARK(BM_Profile)->Arg(0)->Arg(1)->Arg(2)->ArgNames({"giga_stream_tele"});

}  // namespace
}  // namespace sqp

int main(int argc, char** argv) {
  sqp::bench::ParseBenchArgs(argc, argv);
  sqp::PrintMatrix();
  sqp::bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
