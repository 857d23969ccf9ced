// Experiment E4 (slides 35-36, "Aggregation in Bounded Memory"): state
// growth of the two slide-36 queries. Grouping on an unrestricted
// unbounded attribute grows without bound; adding the range predicate
// (512 < len < 1024) caps live groups at 511; windowing by the ordering
// attribute keeps only the open bucket live. The [ABB+02] analyzer's
// verdicts are printed next to the measured state.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "cql/planner.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "stream/generators.h"

namespace sqp {
namespace {

using bench::FmtInt;
using bench::Table;

TupleRef Pkt(Rng& rng, int64_t ts) {
  // Heavy-tailed lengths so the unbounded query keeps finding new groups.
  int64_t len = 40 + static_cast<int64_t>(rng.Exponential(1.0 / 3000.0));
  return MakeTuple(ts, {Value(ts), Value(static_cast<int64_t>(rng.Uniform(1000))),
                        Value(int64_t{0}), Value(int64_t{0}), Value(int64_t{0}),
                        Value(gen::kProtoTcp), Value(len), Value(int64_t{0}),
                        Value(int64_t{0}), Value("")});
}

void PrintMemoryGrowth() {
  cql::Catalog cat;
  (void)cat.Register("packets", gen::PacketSchema());
  struct Variant {
    const char* label;
    const char* query;
  };
  Variant variants[] = {
      {"unbounded: group by len",
       "select len, count(*) from packets where len > 512 group by len"},
      {"bounded: 512<len<1024",
       "select len, count(*) from packets where len > 512 and len < 1024 "
       "group by len"},
      {"windowed: group by ts/1000, len",
       "select tb, len, count(*) from packets where len > 512 "
       "group by ts/1000 as tb, len"},
  };

  std::vector<std::unique_ptr<cql::CompiledQuery>> queries;
  std::vector<std::unique_ptr<CountingSink>> sinks;
  for (const Variant& v : variants) {
    auto cq = cql::Compile(v.query, cat);
    if (!cq.ok()) {
      std::printf("compile failed: %s\n", cq.status().ToString().c_str());
      return;
    }
    sinks.push_back(std::make_unique<CountingSink>());
    (*cq)->AttachSink(sinks.back().get());
    queries.push_back(std::move(*cq));
  }

  Table t({"tuples", "unbounded state (KiB)", "range-bounded (KiB)",
           "windowed (KiB)"});
  Rng rng(11);
  const int64_t kTotal = 200000;
  for (int64_t i = 1; i <= kTotal; ++i) {
    TupleRef pkt = Pkt(rng, i);
    for (auto& q : queries) q->Push(Element(pkt));
    if (i % (kTotal / 5) == 0) {
      std::vector<std::string> row = {FmtInt(static_cast<uint64_t>(i))};
      for (auto& q : queries) {
        row.push_back(FmtInt(q->plan().TotalStateBytes() / 1024));
      }
      t.AddRow(std::move(row));
    }
  }
  t.Print("E4 / slide 36: group-by state growth over stream length");

  Table v({"query", "[ABB+02] verdict", "max groups", "why"});
  for (size_t i = 0; i < queries.size(); ++i) {
    const MemoryAnalysis& m = queries[i]->memory();
    v.AddRow({variants[i].label,
              m.verdict == MemoryVerdict::kBounded ? "BOUNDED" : "UNBOUNDED",
              m.verdict == MemoryVerdict::kBounded ? FmtInt(m.max_groups) : "-",
              m.explanation});
  }
  v.Print("E4: static analyzer verdicts (match measured behaviour)");
}

void BM_GroupByThroughput(benchmark::State& state) {
  bool windowed = state.range(0) != 0;
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kSum, 2, 0.5}};
  opt.window =
      windowed ? WindowSpec::TimeTumbling(1000) : WindowSpec::Landmark();
  Rng rng(5);
  std::vector<TupleRef> tuples;
  for (int64_t i = 0; i < 10000; ++i) {
    tuples.push_back(MakeTuple(
        i, {Value(i), Value(static_cast<int64_t>(rng.Uniform(100))),
            Value(static_cast<int64_t>(rng.Uniform(1000)))}));
  }
  for (auto _ : state) {
    Plan plan;
    auto* gb = plan.Make<GroupByAggregateOp>(opt);
    auto* sink = plan.Make<CountingSink>();
    gb->SetOutput(sink);
    for (const TupleRef& t : tuples) gb->Push(Element(t));
    gb->Flush();
    benchmark::DoNotOptimize(sink->tuples());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_GroupByThroughput)->Arg(0)->Arg(1)->ArgNames({"windowed"});

void BM_HolisticVsDistributive(benchmark::State& state) {
  bool holistic = state.range(0) != 0;
  GroupByOptions opt;
  opt.key_cols = {1};
  opt.aggs = {holistic ? AggSpec{AggKind::kMedian, 2, 0.5}
                       : AggSpec{AggKind::kAvg, 2, 0.5}};
  Rng rng(6);
  std::vector<TupleRef> tuples;
  for (int64_t i = 0; i < 10000; ++i) {
    tuples.push_back(MakeTuple(
        i, {Value(i), Value(static_cast<int64_t>(rng.Uniform(10))),
            Value(static_cast<int64_t>(rng.Uniform(1000)))}));
  }
  for (auto _ : state) {
    Plan plan;
    auto* gb = plan.Make<GroupByAggregateOp>(opt);
    auto* sink = plan.Make<CountingSink>();
    gb->SetOutput(sink);
    for (const TupleRef& t : tuples) gb->Push(Element(t));
    gb->Flush();
    benchmark::DoNotOptimize(plan.TotalStateBytes());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
}
BENCHMARK(BM_HolisticVsDistributive)->Arg(0)->Arg(1)->ArgNames({"holistic"});

}  // namespace
}  // namespace sqp

int main(int argc, char** argv) {
  sqp::bench::ParseBenchArgs(argc, argv);
  sqp::PrintMemoryGrowth();
  sqp::bench::RunMicrobenchmarks(argc, argv);
  return 0;
}
