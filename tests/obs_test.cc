#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "arch/engine.h"
#include "exec/plan.h"
#include "exec/profiler.h"
#include "exec/project.h"
#include "exec/select.h"
#include "obs/event_log.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/trace.h"
#include "sched/parallel_executor.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t v) {
  return MakeTuple(ts, {Value(ts), Value(v)});
}

// ---------------------------------------------------------------------------
// Histogram: bucket boundaries and quantiles.

TEST(HistogramTest, BucketBoundaries) {
  // Bucket b holds values with bit width b: 0 -> bucket 0, 1 -> 1,
  // [2,3] -> 2, [4,7] -> 3, ...
  EXPECT_EQ(obs::Histogram::BucketFor(0), 0);
  EXPECT_EQ(obs::Histogram::BucketFor(1), 1);
  EXPECT_EQ(obs::Histogram::BucketFor(2), 2);
  EXPECT_EQ(obs::Histogram::BucketFor(3), 2);
  EXPECT_EQ(obs::Histogram::BucketFor(4), 3);
  EXPECT_EQ(obs::Histogram::BucketFor(7), 3);
  EXPECT_EQ(obs::Histogram::BucketFor(8), 4);
  EXPECT_EQ(obs::Histogram::BucketFor(UINT64_MAX), 64);

  EXPECT_EQ(obs::HistogramData::BucketLowerBound(0), 0u);
  EXPECT_EQ(obs::HistogramData::BucketUpperBound(0), 0u);
  EXPECT_EQ(obs::HistogramData::BucketLowerBound(3), 4u);
  EXPECT_EQ(obs::HistogramData::BucketUpperBound(3), 7u);
  EXPECT_EQ(obs::HistogramData::BucketUpperBound(64), UINT64_MAX);

  obs::Histogram h;
  h.Observe(0);
  h.Observe(1);
  h.Observe(2);
  h.Observe(3);
  h.Observe(1000);  // bit width 10
  obs::HistogramData d = h.Data();
  EXPECT_EQ(d.count, 5u);
  EXPECT_EQ(d.sum, 1006u);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 2u);
  EXPECT_EQ(d.buckets[10], 1u);
}

TEST(HistogramTest, QuantileEstimates) {
  obs::Histogram h;
  // 100 observations of 10 (bucket 4: [8,15]) and 100 of 1000
  // (bucket 10: [512,1023]).
  for (int i = 0; i < 100; ++i) h.Observe(10);
  for (int i = 0; i < 100; ++i) h.Observe(1000);
  obs::HistogramData d = h.Data();
  // Quantile error is bounded by the bucket: p25 must land in [8,15],
  // p99 in [512,1023].
  double p25 = d.Quantile(0.25);
  EXPECT_GE(p25, 8.0);
  EXPECT_LE(p25, 15.0);
  double p99 = d.Quantile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1023.0);
  // Degenerate inputs.
  EXPECT_EQ(obs::HistogramData{}.Quantile(0.5), 0.0);
  EXPECT_GE(d.Quantile(1.0), 512.0);
  EXPECT_LE(d.Quantile(0.0), 15.0);
  EXPECT_DOUBLE_EQ(d.Mean(), (100.0 * 10 + 100.0 * 1000) / 200.0);
}

// ---------------------------------------------------------------------------
// Concurrency: counters and histograms hammered from N threads (run
// under TSan in CI).

TEST(MetricsConcurrencyTest, CountersAreExactUnderContention) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("sqp_test_total");
  obs::Gauge* g = reg.GetGauge("sqp_test_hw");
  obs::Histogram* h = reg.GetHistogram("sqp_test_lat");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->Inc();
        g->UpdateMax(static_cast<double>(t * kPerThread + i));
        h->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c->Value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(g->Value(), kThreads * kPerThread - 1.0);
  EXPECT_EQ(h->Data().count, static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(MetricsConcurrencyTest, SnapshotWhileRunning) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("sqp_live_total");
  // Prime the counter so the final EXPECT_GT holds even if the writer
  // threads are never scheduled before the snapshot loop finishes.
  c->Inc();
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) c->Inc();
    });
  }
  // Concurrent snapshots must never tear a metric: each observed value
  // is monotonically non-decreasing.
  double last = 0.0;
  for (int i = 0; i < 200; ++i) {
    obs::Snapshot snap = reg.TakeSnapshot();
    ASSERT_EQ(snap.samples.size(), 1u);
    EXPECT_GE(snap.samples[0].value, last);
    last = snap.samples[0].value;
  }
  stop = true;
  for (auto& th : writers) th.join();
  EXPECT_GT(last, 0.0);
}

TEST(MetricsConcurrencyTest, SameNameSameInstance) {
  obs::MetricsRegistry reg;
  EXPECT_EQ(reg.GetCounter("a", {{"k", "v"}}), reg.GetCounter("a", {{"k", "v"}}));
  EXPECT_NE(reg.GetCounter("a", {{"k", "v"}}), reg.GetCounter("a", {{"k", "w"}}));
}

// ---------------------------------------------------------------------------
// Export goldens.

TEST(SnapshotExportTest, JsonGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_events_total", {{"stream", "pkts"}})->Inc(42);
  reg.GetGauge("sqp_depth")->Set(7);
  obs::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.ToJson(),
            "{\"metrics\":["
            "{\"name\":\"sqp_events_total\",\"labels\":{\"stream\":\"pkts\"},"
            "\"type\":\"counter\",\"value\":42},"
            "{\"name\":\"sqp_depth\",\"type\":\"gauge\",\"value\":7}"
            "],\"operators\":[],\"trace\":[]}");
}

TEST(SnapshotExportTest, PrometheusGolden) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_events_total", {{"stream", "pkts"}})->Inc(42);
  obs::Histogram* h = reg.GetHistogram("sqp_lat_ns");
  h->Observe(3);  // bucket 2, le=3
  h->Observe(3);
  h->Observe(12);  // bucket 4, le=15
  obs::Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.ToPrometheus(),
            "# TYPE sqp_events_total counter\n"
            "sqp_events_total{stream=\"pkts\"} 42\n"
            "# TYPE sqp_lat_ns histogram\n"
            "sqp_lat_ns_bucket{le=\"3\"} 2\n"
            "sqp_lat_ns_bucket{le=\"15\"} 3\n"
            "sqp_lat_ns_bucket{le=\"+Inf\"} 3\n"
            "sqp_lat_ns_sum 18\n"
            "sqp_lat_ns_count 3\n"
            "# TYPE sqp_lat_ns_p50 gauge\n"
            "sqp_lat_ns_p50 2.75\n"
            "# TYPE sqp_lat_ns_p99 gauge\n"
            "sqp_lat_ns_p99 14.79\n");
}

TEST(SnapshotExportTest, PrometheusGroupsFamiliesAndEmitsHelp) {
  // Two streams interleave with another family in registration order;
  // the exposition must still render each family as one block with a
  // single # TYPE (and # HELP for known families).
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_stream_ingested_total", {{"stream", "a"}})->Inc(1);
  reg.GetGauge("sqp_other")->Set(9);
  reg.GetCounter("sqp_stream_ingested_total", {{"stream", "b"}})->Inc(2);
  EXPECT_EQ(reg.TakeSnapshot().ToPrometheus(),
            "# HELP sqp_stream_ingested_total Elements ingested per "
            "stream.\n"
            "# TYPE sqp_stream_ingested_total counter\n"
            "sqp_stream_ingested_total{stream=\"a\"} 1\n"
            "sqp_stream_ingested_total{stream=\"b\"} 2\n"
            "# TYPE sqp_other gauge\n"
            "sqp_other 9\n");
}

TEST(SnapshotExportTest, PrometheusEscapesLabelValues) {
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_events_total", {{"q", "a\\b\"c\nd"}})->Inc(1);
  EXPECT_NE(reg.TakeSnapshot().ToPrometheus().find(
                "sqp_events_total{q=\"a\\\\b\\\"c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(SnapshotExportTest, JsonEscapesSpecials) {
  EXPECT_EQ(obs::JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

// ---------------------------------------------------------------------------
// Operator instrumentation: a published plan reports in/out/selectivity,
// self time, and sampled lineage with zero per-operator code.

TEST(OpInstrumentationTest, BoundChainReportsCounts) {
  obs::MetricsRegistry reg;
  obs::QueryProfiler profiler;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Gt(Col(1), Lit(int64_t{499})));
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(1)});
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(proj);
  proj->SetOutput(sink);
  // Published the way StreamEngine::Submit does it: a profiler entry
  // read by one registry collector.
  profiler.Register("q0", "select v from t where v > 499");
  profiler.BindPlan("q0", plan);
  reg.AddCollector("q0", [&profiler](obs::SnapshotBuilder& b) {
    profiler.Publish("q0", b);
  });

  int64_t v = 0;
  RunStream(sel, [&] { int64_t i = v++; return T(i, i % 1000); }, 10000);

  obs::Snapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.ops.size(), 3u);
  const obs::OpSnapshot& s0 = snap.ops[0];
  EXPECT_EQ(s0.query, "q0");
  EXPECT_EQ(s0.op, "select");
  EXPECT_EQ(s0.tuples_in, 10000u);
  EXPECT_EQ(s0.tuples_out, 5000u);
  EXPECT_DOUBLE_EQ(s0.Selectivity(), 0.5);
  EXPECT_GT(s0.busy_ns, 0u);
  const obs::OpSnapshot& s1 = snap.ops[1];
  EXPECT_EQ(s1.op, "project");
  EXPECT_EQ(s1.tuples_in, 5000u);
  EXPECT_EQ(s1.tuples_out, 5000u);
  // The sink is a plan operator too.
  EXPECT_EQ(snap.ops[2].tuples_in, 5000u);
  // Renderings include the operators.
  EXPECT_NE(snap.ToPrometheus().find("sqp_op_tuples_in_total{query=\"q0\","
                                     "op=\"select\",index=\"0\"} 10000"),
            std::string::npos);
  EXPECT_NE(snap.Pretty().find("select"), std::string::npos);
}

TEST(OpInstrumentationTest, TracerRecordsLineage) {
  obs::MetricsRegistry reg;
  reg.EnableTracing(100);  // Every 100th tuple.
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));  // Pass-through.
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(1)});
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(proj);
  proj->SetOutput(sink);
  for (const auto& op : plan.operators()) op->SetTracer(reg.tracer());

  int64_t v = 0;
  RunStream(sel, [&] { int64_t i = v++; return T(i, i); }, 1000);

  obs::Snapshot snap = reg.TakeSnapshot();
  // 10 sampled tuples x 3 hops each.
  ASSERT_EQ(snap.trace.size(), 30u);
  EXPECT_EQ(snap.trace[0].hop, 0u);
  EXPECT_EQ(snap.trace[0].op, "select");
  EXPECT_EQ(snap.trace[1].hop, 1u);
  EXPECT_EQ(snap.trace[1].op, "project");
  EXPECT_EQ(snap.trace[2].hop, 2u);
  EXPECT_EQ(snap.trace[2].op, "collect");
  // Hops of one trace share an id and have non-decreasing timestamps.
  EXPECT_EQ(snap.trace[0].trace_id, snap.trace[1].trace_id);
  EXPECT_LE(snap.trace[0].ts_ns, snap.trace[1].ts_ns);
  // Path latency histogram observed one value per sampled tuple.
  bool found = false;
  for (const obs::Sample& s : snap.samples) {
    if (s.name == "sqp_trace_path_ns") {
      found = true;
      EXPECT_EQ(s.hist.count, 10u);
    }
  }
  EXPECT_TRUE(found);
}

// The engine binds its registry's tracer to every operator, but sampling
// stays off until EnableTracing: until then batches must stay batches.
TEST(OpInstrumentationTest, BoundDisabledTracerKeepsBatches) {
  obs::MetricsRegistry reg;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));  // Pass-through.
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  for (const auto& op : plan.operators()) op->SetTracer(reg.tracer());

  auto make_batch = [](int64_t first) {
    ElementBatch batch;
    for (int64_t i = first; i < first + 64; ++i) {
      batch.push_back(Element(T(i, i)));
    }
    return batch;
  };
  ElementBatch batch = make_batch(0);
  sel->ProcessBatch(batch);
  obs::OpSnapshot s = sel->stats();
  EXPECT_EQ(s.singles, 0u);
  EXPECT_EQ(s.batch_rows.count, 1u);
  EXPECT_EQ(s.batch_rows.sum, 64u);
  EXPECT_EQ(sink->stats().singles, 0u);
  EXPECT_EQ(sink->count(), 64u);
  EXPECT_TRUE(reg.TakeSnapshot().trace.empty());

  // Turning sampling on at runtime takes effect without rebinding.
  reg.EnableTracing(1);
  batch = make_batch(64);
  sel->ProcessBatch(batch);
  s = sel->stats();
  EXPECT_EQ(s.singles, 64u);
  EXPECT_EQ(s.batch_rows.count, 1u);
  EXPECT_EQ(reg.TakeSnapshot().trace.size(), 2u * 64u);
}

TEST(OpInstrumentationTest, TraceRingWraps) {
  obs::Tracer tracer(4);
  tracer.SetSampleEvery(1);
  for (uint64_t i = 1; i <= 10; ++i) tracer.Record(i, 0, "op", i);
  std::vector<obs::TraceEvent> ev = tracer.Events();
  ASSERT_EQ(ev.size(), 4u);
  EXPECT_EQ(ev[0].trace_id, 7u);  // Oldest surviving entry first.
  EXPECT_EQ(ev[3].trace_id, 10u);
}

// An engine hands each tuple to its k readers in a fixed order. A
// fixed 1-in-N stride would time only the chains whose position shares
// the stride's phase (with k = 4 and a stride of 16, only the first);
// randomized gaps must reach every chain's select and sink.
TEST(OpInstrumentationTest, FanOutSamplesEveryChain) {
  std::vector<Element> input;
  for (int64_t i = 0; i < 100000; ++i) input.emplace_back(T(i, i));
  for (size_t k : {2u, 4u, 5u, 16u}) {
    Plan plan;
    std::vector<Operator*> selects, sinks;
    for (size_t c = 0; c < k; ++c) {
      auto* sel = plan.Make<SelectOp>(Gt(Col(1), Lit(int64_t{-1})));
      auto* sink = plan.Make<CountingSink>();
      sel->SetOutput(sink);
      selects.push_back(sel);
      sinks.push_back(sink);
    }
    for (const Element& e : input) {
      for (Operator* sel : selects) sel->Process(e, 0);
    }
    for (size_t c = 0; c < k; ++c) {
      EXPECT_EQ(sinks[c]->stats().tuples_in, input.size());
      EXPECT_GT(selects[c]->stats().busy_ns, 0u)
          << "k=" << k << " select of chain " << c;
      EXPECT_GT(sinks[c]->stats().busy_ns, 0u)
          << "k=" << k << " sink of chain " << c;
    }
  }
}

// The gap generator behind the sampler, over a fixed seed: one event in
// kTimeSampleEvery is timed, and no period up to 32 can align with the
// timed events — every phase of every period gets its share.
TEST(OpInstrumentationTest, TimeGapsAreUnbiasedForEveryPeriod) {
  constexpr uint64_t kDraws = 10000000;
  constexpr uint64_t kMaxPeriod = 32;
  uint64_t state = 0x2545F4914F6CDD1Dull;
  std::vector<std::vector<uint64_t>> hits(kMaxPeriod + 1);
  for (uint64_t k = 1; k <= kMaxPeriod; ++k) hits[k].assign(k, 0);
  uint64_t pos = 0;  // Index of the next timed event.
  uint32_t min_gap = UINT32_MAX, max_gap = 0;
  for (uint64_t i = 0; i < kDraws; ++i) {
    const uint32_t gap = obs::DrawTimeGap(&state);
    min_gap = std::min(min_gap, gap);
    max_gap = std::max(max_gap, gap);
    pos += gap;
    for (uint64_t k = 1; k <= kMaxPeriod; ++k) ++hits[k][pos % k];
  }
  EXPECT_EQ(min_gap, 1u);
  EXPECT_EQ(max_gap, 2 * obs::kTimeSampleEvery - 1);
  const double timed_share = static_cast<double>(kDraws) /
                             static_cast<double>(pos) *
                             obs::kTimeSampleEvery;
  EXPECT_NEAR(timed_share, 1.0, 0.03);
  for (uint64_t k = 1; k <= kMaxPeriod; ++k) {
    for (uint64_t phase = 0; phase < k; ++phase) {
      const double share = static_cast<double>(hits[k][phase]) *
                           static_cast<double>(k) /
                           static_cast<double>(kDraws);
      EXPECT_NEAR(share, 1.0, 0.15) << "period " << k << " phase " << phase;
    }
  }
}

TEST(OpInstrumentationTest, UnboundOperatorsReportNothing) {
  obs::MetricsRegistry reg;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  int64_t v = 0;
  RunStream(sel, [&] { int64_t i = v++; return T(i, i); }, 100);
  obs::Snapshot snap = reg.TakeSnapshot();
  EXPECT_TRUE(snap.ops.empty());
  EXPECT_TRUE(snap.trace.empty());
  // Classic per-operator stats still work.
  EXPECT_EQ(sel->stats().tuples_in, 100u);
}

// ---------------------------------------------------------------------------
// Engine integration: StreamEngine::Metrics() end-to-end, serial and
// parallel, snapshot taken while workers are live.

TEST(EngineMetricsTest, SerialQueryReportsPerOpRows) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts, len from packets where len > 500");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->metrics_label(), "q0");

  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();

  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  ASSERT_FALSE(snap.ops.empty());
  uint64_t select_in = 0;
  uint64_t root_out = 0;
  for (const obs::OpSnapshot& o : snap.ops) {
    if (o.op == "select") select_in = o.tuples_in;
    root_out = o.tuples_out;  // Last plan op drives the sink.
  }
  EXPECT_EQ(select_in, 2000u);
  EXPECT_EQ(root_out, (*q)->result_count());
  // The ingest counter rode along.
  bool found = false;
  for (const obs::Sample& s : snap.samples) {
    if (s.name == "sqp_stream_ingested_total") {
      found = true;
      EXPECT_EQ(s.value, 2000.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(EngineMetricsTest, ParallelQueryPublishesStageStats) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  SubmitOptions popts;
  popts.exec.parallel = true;
  auto q = engine.Submit("select ts, len from packets where len > 500", popts);
  ASSERT_TRUE(q.ok());

  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 5000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
    if (i == 2500) {
      // Snapshot while the workers are live (ingest still running).
      obs::Snapshot live = engine.Metrics().TakeSnapshot();
      EXPECT_FALSE(live.samples.empty());
    }
  }
  engine.FinishAll();

  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  uint64_t stage0_processed = 0;
  for (const obs::Sample& s : snap.samples) {
    if (s.name != "sqp_stage_processed") continue;
    for (const auto& kv : s.labels) {
      if (kv.first == "stage" && kv.second == "0") {
        stage0_processed = static_cast<uint64_t>(s.value);
      }
    }
  }
  EXPECT_EQ(stage0_processed, 5000u);
  // Per-op metrics flow from the worker threads too.
  bool saw_select = false;
  for (const obs::OpSnapshot& o : snap.ops) {
    if (o.op == "select") {
      saw_select = true;
      EXPECT_EQ(o.tuples_in, 5000u);
    }
  }
  EXPECT_TRUE(saw_select);
}

TEST(EngineMetricsTest, DisabledMetricsBindNothing) {
  // Unpublished: the query still gets its label, but no registry rows,
  // no profile and no latency histogram.
  StreamEngine engine;
  engine.SetMetricsEnabled(false);
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts, len from packets where len > 500");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->metrics_label(), "q0");
  EXPECT_EQ((*q)->latency_histogram(), nullptr);
  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();
  EXPECT_TRUE(engine.Metrics().TakeSnapshot().ops.empty());
  obs::QueryProfile p;
  EXPECT_FALSE(engine.ProfileSnapshot(*q, &p));
}

TEST(EngineMetricsTest, RemoveDropsQueryRows) {
  // Every Submit/Remove pair (each POST /query, each churn query) must
  // leave the registry as it found it: the removed query's operator
  // rows and latency histogram go with it.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  gen::PacketGenerator packets(gen::PacketOptions{});
  const obs::Snapshot base = engine.Metrics().TakeSnapshot();
  for (int i = 0; i < 1000; ++i) {
    auto q = engine.Submit("select ts, len from packets where len > 500");
    ASSERT_TRUE(q.ok());
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
    if (i == 0) {
      const obs::Snapshot live = engine.Metrics().TakeSnapshot();
      EXPECT_GT(live.ops.size(), base.ops.size());
      EXPECT_GT(live.samples.size(), base.samples.size());
    }
    ASSERT_TRUE(engine.Remove(*q).ok());
  }
  const obs::Snapshot after = engine.Metrics().TakeSnapshot();
  EXPECT_EQ(after.ops.size(), base.ops.size());
  EXPECT_EQ(after.samples.size(), base.samples.size());
  EXPECT_TRUE(engine.ProfiledQueries().empty());
}

// ---------------------------------------------------------------------------
// OpCounters: the always-on per-operator slot.

TEST(OpCountersTest, AggregatesDeliveriesWaitAndStatePeaks) {
  obs::OpCounters p;
  p.CountSingle();
  p.CountSingle();
  p.ObserveBatch(10);
  p.ObserveBatch(30);
  p.AddQueueWait(500, 5);
  p.SampleState(100);
  p.SampleState(400);
  p.SampleState(200);  // State shrank; the peak must not.
  obs::OpSnapshot d = p.Snapshot();
  EXPECT_EQ(d.singles, 2u);
  EXPECT_EQ(d.batch_rows.count, 2u);
  EXPECT_EQ(d.batch_rows.sum, 40u);
  EXPECT_EQ(d.queue_wait_ns, 500u);
  EXPECT_EQ(d.queued_items, 5u);
  EXPECT_EQ(d.state_bytes, 200u);
  EXPECT_EQ(d.peak_state_bytes, 400u);
  // No watermark forwarded yet: the sentinel survives the snapshot.
  EXPECT_EQ(d.wm_ts, obs::OpCounters::kNoWatermark);
  EXPECT_EQ(d.wm_count, 0u);

  p.OnWatermarkForward(42);
  d = p.Snapshot();
  EXPECT_EQ(d.wm_ts, 42);
  EXPECT_EQ(d.wm_count, 1u);
  EXPECT_GT(d.wm_ns, 0u);
}

TEST(OpCountersTest, StateSamplingBacksOffGeometrically) {
  obs::OpCounters p;
  int calls = 0;
  for (int i = 0; i < 1000; ++i) {
    p.MaybeSampleState([&] {
      ++calls;
      return 64;
    });
  }
  // Intervals 1, 2, 4, ..., capped at 256: far fewer probes than
  // invocations, but more than a handful.
  EXPECT_GE(calls, 5);
  EXPECT_LE(calls, 20);
  EXPECT_EQ(p.Snapshot().state_bytes, 64u);
}

/// Rows delivered into an operator, however they arrived.
uint64_t DeliveredRows(const obs::OpSnapshot& s) {
  return s.singles + s.batch_rows.sum;
}

TEST(OpCountersTest, ProcessBatchAndColumnsCountAlike) {
  // One element sequence (tuples and watermarks) through a select ->
  // project -> count chain, delivered per element, as one row batch and
  // as one column batch: every slot must end with the same in/out
  // counts and the same number of delivered rows.
  std::vector<Element> input;
  for (int64_t i = 0; i < 500; ++i) {
    input.push_back(Element(T(i, i % 100)));
    if (i % 50 == 49) input.push_back(Element(Punctuation::Watermark(i)));
  }
  std::vector<std::vector<obs::OpSnapshot>> runs;
  for (int mode = 0; mode < 3; ++mode) {
    Plan plan;
    auto* sel = plan.Make<SelectOp>(Gt(Col(1), Lit(int64_t{49})));
    auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(0), Col(1)});
    auto* sink = plan.Make<CountingSink>();
    sel->SetOutput(proj);
    proj->SetOutput(sink);
    ElementBatch batch;
    for (const Element& e : input) batch.push_back(e);
    ColumnBatch cols;
    if (mode == 0) {
      for (const Element& e : batch) sel->Process(e);
    } else if (mode == 1) {
      sel->ProcessBatch(batch);
    } else {
      ASSERT_TRUE(ColumnBatch::FromRows(batch, &cols));
      sel->ProcessColumns(cols);
    }
    std::vector<obs::OpSnapshot> slots;
    for (const auto& op : plan.operators()) slots.push_back(op->stats());
    runs.push_back(std::move(slots));
  }
  EXPECT_EQ(runs[0][0].tuples_in, 500u);
  EXPECT_EQ(runs[0][0].tuples_out, 250u);
  EXPECT_EQ(runs[0][2].tuples_in, 250u);
  for (int mode = 1; mode < 3; ++mode) {
    for (size_t i = 0; i < runs[0].size(); ++i) {
      const obs::OpSnapshot& ref = runs[0][i];
      const obs::OpSnapshot& got = runs[static_cast<size_t>(mode)][i];
      EXPECT_EQ(got.tuples_in, ref.tuples_in) << mode << "/" << i;
      EXPECT_EQ(got.tuples_out, ref.tuples_out) << mode << "/" << i;
      EXPECT_EQ(got.puncts_in, ref.puncts_in) << mode << "/" << i;
      EXPECT_EQ(got.puncts_out, ref.puncts_out) << mode << "/" << i;
      EXPECT_EQ(DeliveredRows(got), DeliveredRows(ref)) << mode << "/" << i;
      EXPECT_EQ(got.wm_ts, ref.wm_ts) << mode << "/" << i;
    }
  }
}

TEST(OpCountersTest, ScrapeWhileIngesting) {
  // The slots' single writers (the ingest thread for the serial query,
  // stage workers for the parallel one) race the scrape thread's
  // registry and profile reads — TSan checks the relaxed load + store
  // scheme in CI.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto serial = engine.Submit("select ts, len from packets where len > 500");
  SubmitOptions popts;
  popts.exec.parallel = true;
  auto parallel =
      engine.Submit("select ts, len from packets where len > 500", popts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      obs::Snapshot snap = engine.Metrics().TakeSnapshot();
      obs::QueryProfile p;
      engine.ProfileSnapshot("q0", &p);
      engine.ProfileSnapshot("q1", &p);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  gen::PacketGenerator packets(gen::PacketOptions{});
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();
  stop = true;
  scraper.join();
  EXPECT_GT(scrapes.load(), 0u);

  for (QueryHandle* h : {*serial, *parallel}) {
    obs::QueryProfile p;
    ASSERT_TRUE(engine.ProfileSnapshot(h, &p));
    ASSERT_FALSE(p.ops.empty());
    EXPECT_EQ(p.ops.back().tuples_in, static_cast<uint64_t>(n));
    EXPECT_EQ(p.ops.front().tuples_out, h->result_count());
  }
}

// ---------------------------------------------------------------------------
// EventLog: bounded ring, sequence-based tailing, JSON export.

TEST(EventLogTest, RingWrapsAndTailResumes) {
  obs::EventLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  for (int i = 1; i <= 10; ++i) {
    log.Emit(obs::EventKind::kQuerySubmit, "q0",
             "m" + std::to_string(i));
  }
  EXPECT_EQ(log.total(), 10u);

  std::vector<obs::EngineEvent> tail = log.Tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().seq, 7u);  // Oldest surviving event first.
  EXPECT_EQ(tail.back().seq, 10u);
  EXPECT_EQ(tail.back().message, "m10");

  // after_seq resumes a tail without re-reading.
  std::vector<obs::EngineEvent> after = log.Tail(0, 8);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after.front().seq, 9u);

  // max keeps only the newest events.
  std::vector<obs::EngineEvent> last2 = log.Tail(2);
  ASSERT_EQ(last2.size(), 2u);
  EXPECT_EQ(last2.front().seq, 9u);

  // Tail past the end is empty, not an error.
  EXPECT_TRUE(log.Tail(0, 10).empty());

  std::string json = log.ToJson();
  EXPECT_NE(json.find("\"total\":10"), std::string::npos);
  EXPECT_NE(json.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"query_submit\""), std::string::npos);
  EXPECT_NE(json.find("\"query\":\"q0\""), std::string::npos);
}

TEST(EventLogTest, KindNamesAreWireStable) {
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kQuerySubmit),
               "query_submit");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kCheckpointWritten),
               "checkpoint_written");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kShardStall),
               "shard_stall");
  EXPECT_STREQ(obs::EventKindName(obs::EventKind::kFlushError),
               "flush_error");
}

// ---------------------------------------------------------------------------
// QueryProfiler: plan-shaped span tree, lag math, EXPLAIN ANALYZE
// consistency with the metrics registry.

TEST(QueryProfilerTest, SnapshotTreeMatchesMetricsCounters) {
  obs::MetricsRegistry reg;
  obs::QueryProfiler profiler;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Gt(Col(1), Lit(int64_t{499})));
  auto* proj = plan.Make<ProjectOp>(std::vector<ExprRef>{Col(1)});
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(proj);
  proj->SetOutput(sink);
  obs::QueryProfiler::SourceWatermark* src =
      profiler.Register("q0", "select v from t where v > 499");
  profiler.BindPlan("q0", plan);
  reg.AddCollector("q0", [&profiler](obs::SnapshotBuilder& b) {
    profiler.Publish("q0", b);
  });

  int64_t v = 0;
  RunStream(sel, [&] { int64_t i = v++; return T(i, i % 1000); }, 10000);
  src->OnWatermark(9000);
  sel->Process(Element(Punctuation::Watermark(9000)));

  obs::QueryProfile p;
  ASSERT_TRUE(profiler.Snapshot("q0", &p));
  EXPECT_EQ(p.query, "q0");
  EXPECT_EQ(p.source_wm_ts, 9000);
  EXPECT_EQ(p.source_wm_count, 1u);
  ASSERT_EQ(p.ops.size(), 3u);

  // Pre-order from the sink-most root: collect <- project <- select.
  EXPECT_EQ(p.ops[0].op, "collect");
  EXPECT_EQ(p.ops[0].depth, 0);
  EXPECT_EQ(p.ops[1].op, "project");
  EXPECT_EQ(p.ops[1].depth, 1);
  EXPECT_EQ(p.ops[2].op, "select");
  EXPECT_EQ(p.ops[2].depth, 2);

  // Row counters are the same slots the registry snapshot renders.
  obs::Snapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.ops.size(), 3u);
  for (const obs::OpProfileRow& row : p.ops) {
    bool matched = false;
    for (const obs::OpSnapshot& o : snap.ops) {
      if (o.op != row.op || o.index != row.index) continue;
      matched = true;
      EXPECT_EQ(row.tuples_in, o.tuples_in);
      EXPECT_EQ(row.tuples_out, o.tuples_out);
      EXPECT_DOUBLE_EQ(row.Selectivity(), o.Selectivity());
    }
    EXPECT_TRUE(matched) << row.op;
  }
  EXPECT_EQ(p.ops[2].tuples_in, 10000u);
  EXPECT_EQ(p.ops[2].tuples_out, 5000u);

  // Every forwarding operator relayed the watermark: zero lag vs the
  // source, known propagation delay (the source ring still holds ts
  // 9000). The sink forwards nothing, so its row keeps the sentinel.
  for (const obs::OpProfileRow& row : p.ops) {
    // RunStream drives per-element: deliveries fold singles in.
    EXPECT_GT(row.deliveries, 0u) << row.op;
    if (row.op == "collect") {
      EXPECT_FALSE(row.has_watermark);
      EXPECT_FALSE(row.has_lag);
      continue;
    }
    EXPECT_TRUE(row.has_watermark) << row.op;
    EXPECT_TRUE(row.has_lag) << row.op;
    EXPECT_EQ(row.lag, 0) << row.op;
    EXPECT_GE(row.propagation_ms, 0.0) << row.op;
  }

  // Renderings carry the table and the tree.
  std::string pretty = p.Pretty();
  EXPECT_NE(pretty.find("EXPLAIN ANALYZE q0"), std::string::npos);
  EXPECT_NE(pretty.find("select"), std::string::npos);
  std::string json = p.ToJson();
  EXPECT_NE(json.find("\"query\":\"q0\""), std::string::npos);
  EXPECT_NE(json.find("\"watermark_lag\":0"), std::string::npos);
}

TEST(QueryProfilerTest, LagNeedsBothSourceAndOperatorWatermarks) {
  obs::QueryProfiler profiler;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  obs::QueryProfiler::SourceWatermark* src = profiler.Register("q0", "t");
  profiler.BindPlan("q0", plan);

  // Source saw a watermark but no operator forwarded one yet: the
  // INT64_MIN sentinel must suppress lag, not produce a huge number.
  src->OnWatermark(100);
  obs::QueryProfile p;
  ASSERT_TRUE(profiler.Snapshot("q0", &p));
  for (const obs::OpProfileRow& row : p.ops) {
    EXPECT_FALSE(row.has_watermark);
    EXPECT_FALSE(row.has_lag);
  }

  // Operators forwarded a watermark the source never tapped: same
  // suppression on a fresh registration (source at the sentinel). Only
  // the forwarding operator records it — the sink keeps the sentinel.
  profiler.Register("q1", "t");
  profiler.BindPlan("q1", plan);
  sel->Process(Element(Punctuation::Watermark(7)));
  ASSERT_TRUE(profiler.Snapshot("q1", &p));
  EXPECT_EQ(p.source_wm_ts, obs::OpCounters::kNoWatermark);
  for (const obs::OpProfileRow& row : p.ops) {
    EXPECT_EQ(row.has_watermark, row.op == "select") << row.op;
    EXPECT_FALSE(row.has_lag);
    EXPECT_LT(row.propagation_ms, 0.0);  // Unknown without a source tap.
  }
}

TEST(QueryProfilerTest, UnregisterDropsAndLabelsList) {
  obs::QueryProfiler profiler;
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Lit(int64_t{1}));
  auto* sink = plan.Make<CollectorSink>();
  sel->SetOutput(sink);
  profiler.Register("q0", "t");
  profiler.BindPlan("q0", plan);
  EXPECT_EQ(profiler.Labels(), std::vector<std::string>{"q0"});
  obs::QueryProfile p;
  EXPECT_TRUE(profiler.Snapshot("q0", &p));
  EXPECT_FALSE(profiler.Snapshot("q9", &p));
  profiler.Unregister("q0");
  EXPECT_FALSE(profiler.Snapshot("q0", &p));
  EXPECT_TRUE(profiler.Labels().empty());
}

TEST(EngineProfilerTest, ExplainAnalyzeWindowedAggregate) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit(
      "select tb, count(*) from packets group by ts/60 as tb");
  ASSERT_TRUE(q.ok());

  gen::PacketGenerator packets(gen::PacketOptions{});
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", packets.Next()).ok());
  }
  engine.FinishAll();

  obs::QueryProfile p;
  ASSERT_TRUE(engine.ProfileSnapshot(*q, &p));
  EXPECT_EQ(p.query, "q0");
  ASSERT_FALSE(p.ops.empty());
  // The leaf of the tree is the plan's entry operator: all 2000 tuples
  // entered it, and the numbers agree with the metrics registry.
  EXPECT_EQ(p.ops.back().tuples_in, 2000u);
  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  for (const obs::OpProfileRow& row : p.ops) {
    for (const obs::OpSnapshot& o : snap.ops) {
      if (o.op == row.op && o.index == row.index) {
        EXPECT_EQ(row.tuples_in, o.tuples_in) << row.op;
        EXPECT_EQ(row.tuples_out, o.tuples_out) << row.op;
      }
    }
  }
  // The engine also answers by label, and lists the query.
  EXPECT_TRUE(engine.ProfileSnapshot("q0", &p));
  EXPECT_EQ(engine.ProfiledQueries(), std::vector<std::string>{"q0"});

  // Submit/stop made it into the event log.
  bool saw_submit = false;
  for (const obs::EngineEvent& e : engine.Events().Tail()) {
    if (e.kind == obs::EventKind::kQuerySubmit && e.query == "q0") {
      saw_submit = true;
    }
  }
  EXPECT_TRUE(saw_submit);
}

// ---------------------------------------------------------------------------
// StageStats satellites: unified rendering + backlog underflow guard.

TEST(StageStatsTest, BacklogClampsTransientUnderflow) {
  sched::StageStats s;
  s.enqueued = 10;
  s.processed = 12;  // Torn concurrent read: processed ran ahead.
  EXPECT_EQ(s.Backlog(), 0u);
  s.enqueued = 20;
  EXPECT_EQ(s.Backlog(), 8u);
}

TEST(StageStatsTest, ToStringMatchesPublishedFields) {
  sched::StageStats s;
  s.enqueued = 5;
  s.processed = 3;
  s.batches = 2;
  s.dropped = 1;
  s.queue_depth = 3;
  s.max_queue_depth = 4;
  s.busy_time = 0.25;
  EXPECT_EQ(s.ToString(),
            "enqueued=5 processed=3 batches=2 dropped=1 backlog=2 "
            "queue_depth=3 max_queue_depth=4 busy_time=0.250000");
  // The obs bridge publishes exactly the same fields.
  obs::Snapshot snap;
  obs::SnapshotBuilder b(&snap);
  sched::PublishStageStats(b, {{"stage", "0"}}, s);
  ASSERT_EQ(snap.samples.size(), 8u);
  EXPECT_EQ(snap.samples[0].name, "sqp_stage_enqueued");
  EXPECT_EQ(snap.samples[0].value, 5.0);
  EXPECT_EQ(snap.samples[2].name, "sqp_stage_batches");
  EXPECT_EQ(snap.samples[2].value, 2.0);
  EXPECT_EQ(snap.samples[4].name, "sqp_stage_backlog");
  EXPECT_EQ(snap.samples[4].value, 2.0);
  EXPECT_EQ(snap.samples[5].name, "sqp_stage_queue_depth");
  EXPECT_EQ(snap.samples[5].value, 3.0);
}

}  // namespace
}  // namespace sqp
