// Quickstart: build a small continuous-query plan by hand and run it.
//
// Pipeline (the shape of slide 13's first GSQL query):
//   sensor stream -> select (temperature > threshold)
//                 -> per-minute group-by (count, avg temperature)
//                 -> print
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "exec/select.h"
#include "stream/generators.h"

int main() {
  using namespace sqp;

  // 1. A synthetic measurement stream (slide 3: sensor networks).
  gen::SensorOptions options;
  options.num_sensors = 50;
  options.walk_step = 0.5;
  gen::SensorGenerator sensors(options);
  std::printf("input schema: %s\n\n", gen::SensorSchema()->ToString().c_str());

  // 2. Operators. The Plan owns them; SetOutput wires the dataflow.
  Plan plan;

  // WHERE temperature > 21.
  auto* hot = plan.Make<SelectOp>(
      Gt(Col(gen::SensorCols::kTemperature), Lit(21.0)), "hot-readings");

  // GROUP BY time/60 (a shifting window), computing count(*) and
  // avg(temperature). Output rows: [bucket_start, count, avg].
  GroupByOptions agg;
  agg.aggs = {{AggKind::kCount, -1, 0.5},
              {AggKind::kAvg, gen::SensorCols::kTemperature, 0.5}};
  agg.window = WindowSpec::TimeTumbling(60);
  auto* per_minute = plan.Make<GroupByAggregateOp>(agg, "per-minute");

  // Sink: print each result row as it streams out.
  auto* print = plan.Make<CallbackSink>([](const Element& e) {
    if (!e.is_tuple()) return;
    const Tuple& row = *e.tuple();
    std::printf("minute %5lld | hot readings: %4lld | avg temp: %.2f\n",
                static_cast<long long>(row.at(0).AsInt() / 60),
                static_cast<long long>(row.at(1).AsInt()),
                row.at(2).AsDouble());
  });

  Plan::Connect(hot, per_minute);
  Plan::Connect(per_minute, print);

  // 3. Drive the stream. Results for each minute emerge as soon as the
  // stream provably moves past it (the ordering attribute at work).
  for (int i = 0; i < 30000; ++i) {
    hot->Push(Element(sensors.Next()));
  }
  hot->Flush();  // End of stream: close the last bucket.

  std::printf("\noperator stats:\n%s", plan.StatsString().c_str());
  return 0;
}
