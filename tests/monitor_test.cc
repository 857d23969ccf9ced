#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arch/engine.h"
#include "obs/monitor.h"
#include "server/query_server.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef Pkt(int64_t ts, int64_t src, int64_t proto, int64_t len) {
  return MakeTuple(ts, {Value(ts), Value(src), Value(int64_t{9}),
                        Value(int64_t{1}), Value(int64_t{2}), Value(proto),
                        Value(len), Value(int64_t{0}), Value(int64_t{0}),
                        Value("")});
}

/// Minimal in-process HTTP client: one blocking GET against localhost,
/// returning the raw response (status line + headers + body).
std::string FetchRaw(int port, const std::string& target) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return "";
  }
  std::string req = "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t sent = 0;
  while (sent < req.size()) {
    ssize_t n = ::send(fd, req.data() + sent, req.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return resp;
}

// ---------------------------------------------------------------------------
// SeriesRing.

TEST(SeriesRingTest, FillsThenWrapsOldestFirst) {
  obs::SeriesRing ring(4);
  EXPECT_TRUE(ring.empty());
  for (uint64_t t = 1; t <= 3; ++t) {
    ring.Push({t, t * 10, static_cast<double>(t)});
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.Back().tick, 3u);
  auto pts = ring.Points();
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_EQ(pts.front().tick, 1u);

  for (uint64_t t = 4; t <= 10; ++t) {
    ring.Push({t, t * 10, static_cast<double>(t)});
  }
  EXPECT_EQ(ring.size(), 4u);
  pts = ring.Points();
  ASSERT_EQ(pts.size(), 4u);
  // Last 4 pushes survive, oldest first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(pts[i].tick, 7u + i);
    EXPECT_DOUBLE_EQ(pts[i].value, static_cast<double>(7 + i));
  }
  EXPECT_EQ(ring.Back().tick, 10u);
}

TEST(SeriesRingTest, CapacityOneKeepsNewest) {
  obs::SeriesRing ring(1);
  ring.Push({1, 0, 1.0});
  ring.Push({2, 0, 2.0});
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.Points().front().tick, 2u);
  EXPECT_EQ(ring.Back().tick, 2u);
}

// ---------------------------------------------------------------------------
// Monitor rate derivation (manual ticks, scripted deltas).

TEST(MonitorTest, EwmaRateFromScriptedCounter) {
  obs::MetricsRegistry reg;
  auto* c = reg.GetCounter("sqp_stream_ingested_total", {{"stream", "s"}});
  obs::MonitorOptions opt;
  opt.period_ms = 0;  // Manual mode.
  opt.alpha = 0.5;
  obs::Monitor mon(&reg, opt);
  const std::string key = "rate(sqp_stream_ingested_total{stream=s})";

  c->Inc(100);
  mon.TickOnce(1.0);  // First observation only seeds the delta baseline.
  EXPECT_TRUE(mon.Series(key).empty());
  EXPECT_EQ(mon.ticks(), 1u);

  c->Inc(100);
  mon.TickOnce(1.0);  // delta 100 over 1s -> rate 100 seeds the EWMA.
  EXPECT_DOUBLE_EQ(mon.Current(key), 100.0);

  c->Inc(400);
  mon.TickOnce(1.0);  // 0.5*400 + 0.5*100.
  EXPECT_DOUBLE_EQ(mon.Current(key), 250.0);

  c->Inc(400);
  mon.TickOnce(2.0);  // delta 400 over 2s -> 200; 0.5*200 + 0.5*250.
  EXPECT_DOUBLE_EQ(mon.Current(key), 225.0);

  // The EWMA is republished as a derived gauge in the next snapshot.
  obs::Snapshot snap = reg.TakeSnapshot();
  bool found = false;
  for (const auto& s : snap.samples) {
    if (s.name == "sqp_monitor_stream_rate") {
      found = true;
      EXPECT_DOUBLE_EQ(s.value, 225.0);
    }
  }
  EXPECT_TRUE(found);
  EXPECT_NE(snap.ToPrometheus().find("sqp_monitor_stream_rate"),
            std::string::npos);
}

TEST(MonitorTest, GaugeHistoryAndRingCap) {
  obs::MetricsRegistry reg;
  auto* g = reg.GetGauge("depth");
  obs::MonitorOptions opt;
  opt.period_ms = 0;
  opt.history = 3;
  obs::Monitor mon(&reg, opt);
  for (int t = 1; t <= 5; ++t) {
    g->Set(t);
    mon.TickOnce(1.0);
  }
  auto pts = mon.Series("depth");
  ASSERT_EQ(pts.size(), 3u);  // Ring capped at history.
  EXPECT_DOUBLE_EQ(pts[0].value, 3.0);
  EXPECT_DOUBLE_EQ(pts[2].value, 5.0);
  EXPECT_EQ(pts[2].tick, 5u);
}

TEST(MonitorTest, HistogramQuantileSeriesAndDerivedGauges) {
  obs::MetricsRegistry reg;
  auto* h = reg.GetHistogram("sqp_query_latency_ns", {{"query", "q0"}});
  for (int i = 0; i < 100; ++i) h->Observe(1000);
  obs::MonitorOptions opt;
  opt.period_ms = 0;
  obs::Monitor mon(&reg, opt);
  mon.TickOnce(1.0);
  EXPECT_GT(mon.Current("p50(sqp_query_latency_ns{query=q0})"), 0.0);
  EXPECT_GT(mon.Current("p99(sqp_query_latency_ns{query=q0})"), 0.0);
  obs::Snapshot snap = reg.TakeSnapshot();
  bool p50 = false;
  bool p99 = false;
  for (const auto& s : snap.samples) {
    if (s.name == "sqp_monitor_latency_p50_ns") p50 = true;
    if (s.name == "sqp_monitor_latency_p99_ns") p99 = true;
  }
  EXPECT_TRUE(p50 && p99);
}

TEST(MonitorTest, SkipsItsOwnDerivedGauges) {
  // The monitor's derived gauges come back through the registry
  // collector on the next snapshot; recording them again would double
  // the series set every tick.
  obs::MetricsRegistry reg;
  reg.GetCounter("sqp_stream_ingested_total", {{"stream", "s"}})->Inc(1);
  obs::MonitorOptions opt;
  opt.period_ms = 0;
  obs::Monitor mon(&reg, opt);
  for (int t = 0; t < 4; ++t) mon.TickOnce(1.0);
  for (const std::string& name : mon.SeriesNames()) {
    EXPECT_NE(name.rfind("sqp_monitor_", 0), 0u) << name;
  }
}

TEST(MonitorTest, MaxSeriesBoundsHistory) {
  obs::MetricsRegistry reg;
  for (int i = 0; i < 8; ++i) {
    reg.GetGauge("g" + std::to_string(i))->Set(i);
  }
  obs::MonitorOptions opt;
  opt.period_ms = 0;
  opt.max_series = 3;
  obs::Monitor mon(&reg, opt);
  mon.TickOnce(1.0);
  EXPECT_LE(mon.SeriesNames().size(), 3u);
}

TEST(MonitorTest, TickListenersFireAndDetach) {
  obs::MetricsRegistry reg;
  obs::MonitorOptions opt;
  opt.period_ms = 0;
  obs::Monitor mon(&reg, opt);
  int calls = 0;
  uint64_t last_tick = 0;
  mon.AddTickListener("t", [&](uint64_t tick) {
    ++calls;
    last_tick = tick;
  });
  mon.TickOnce(1.0);
  mon.TickOnce(1.0);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(last_tick, 2u);
  mon.RemoveTickListener("t");
  mon.TickOnce(1.0);
  EXPECT_EQ(calls, 2);
}

TEST(MonitorTest, RemoveTickListenerBarriersAgainstInFlightTick) {
  obs::MetricsRegistry reg;
  obs::MonitorOptions opt;
  opt.period_ms = 0;
  obs::Monitor mon(&reg, opt);

  std::atomic<bool> stop{false};
  std::thread ticker([&] {
    while (!stop.load(std::memory_order_relaxed)) mon.TickOnce(1.0);
  });

  // Each listener captures heap state that is freed the moment removal
  // returns — exactly what the adaptive-shedding teardown does. A tick
  // that copied the listener list before RemoveTickListener's barrier
  // acquisition must not still invoke the stale copy afterwards; under
  // TSan this loop flags any such copy/invoke gap as a use-after-free.
  for (int i = 0; i < 4000; ++i) {
    auto state = std::make_unique<std::atomic<uint64_t>>(0);
    std::atomic<uint64_t>* raw = state.get();
    const std::string name = "l" + std::to_string(i % 4);
    mon.AddTickListener(name, [raw](uint64_t tick) {
      raw->store(tick, std::memory_order_relaxed);
    });
    mon.RemoveTickListener(name);
    state.reset();  // Safe only because removal barriers on the tick.
  }
  stop.store(true, std::memory_order_relaxed);
  ticker.join();
}

TEST(MonitorTest, BackgroundSamplerTicks) {
  obs::MetricsRegistry reg;
  reg.GetGauge("depth")->Set(1);
  obs::MonitorOptions opt;
  opt.period_ms = 1;
  obs::Monitor mon(&reg, opt);
  mon.Start();
  EXPECT_TRUE(mon.running());
  while (mon.ticks() < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  mon.Stop();
  EXPECT_FALSE(mon.running());
  EXPECT_GE(mon.ticks(), 3u);
  EXPECT_FALSE(mon.Series("depth").empty());
}

// ---------------------------------------------------------------------------
// Engine-level end-to-end latency tracking.

TEST(EngineLatencyTest, LatencyHistogramInEveryExport) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts from packets where len > 100");
  ASSERT_TRUE(q.ok());
  engine.SetLatencySampleEvery(4);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 200)).ok());
  }
  engine.FinishAll();

  ASSERT_NE((*q)->latency_histogram(), nullptr);
  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  const obs::Sample* lat = nullptr;
  for (const auto& s : snap.samples) {
    if (s.name == "sqp_query_latency_ns") lat = &s;
  }
  ASSERT_NE(lat, nullptr);
  ASSERT_EQ(lat->labels.size(), 1u);
  EXPECT_EQ(lat->labels[0].second, "q0");
  // 200 tuples at 1/4 sampling: ~50 samples (armed slots are claimed by
  // the next output, so allow slack for samples still in flight).
  EXPECT_GE(lat->hist.count, 25u);
  EXPECT_GT(lat->hist.Quantile(0.5), 0.0);

  // p50/p99 present in all three export formats.
  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("sqp_query_latency_ns"), std::string::npos);
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  const std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("sqp_query_latency_ns_p50{query=\"q0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("sqp_query_latency_ns_p99{query=\"q0\"}"),
            std::string::npos);
  EXPECT_NE(snap.Pretty().find("p50="), std::string::npos);
}

TEST(EngineLatencyTest, SamplingDisabledRecordsNothing) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts from packets");
  ASSERT_TRUE(q.ok());
  engine.SetLatencySampleEvery(0);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 200)).ok());
  }
  engine.FinishAll();
  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  for (const auto& s : snap.samples) {
    if (s.name == "sqp_query_latency_ns") {
      EXPECT_EQ(s.hist.count, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// The engine's observability routes, fetched by a real in-process client.

TEST(EngineHttpTest, ServesAllThreeEndpoints) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts from packets where len > 100");
  ASSERT_TRUE(q.ok());
  obs::MonitorOptions mopt;
  mopt.period_ms = 0;  // Manual ticks keep the test deterministic.
  engine.StartMonitor(mopt);
  auto port = engine.Serve(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  ASSERT_GT(*port, 0);

  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 200)).ok());
  }
  engine.monitor()->TickOnce(1.0);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 200)).ok());
  }
  engine.monitor()->TickOnce(1.0);

  const std::string metrics = FetchRaw(*port, "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE sqp_stream_ingested_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.find("sqp_stream_ingested_total{stream=\"packets\"} 128"),
            std::string::npos);
  EXPECT_NE(metrics.find("sqp_monitor_stream_rate"), std::string::npos);
  EXPECT_NE(metrics.find("sqp_query_latency_ns_p99"), std::string::npos);

  const std::string snapshot = FetchRaw(*port, "/snapshot.json");
  EXPECT_NE(snapshot.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(snapshot.find("application/json"), std::string::npos);
  EXPECT_NE(snapshot.find("\"metrics\":["), std::string::npos);
  EXPECT_NE(snapshot.find("sqp_stream_ingested_total"), std::string::npos);

  const std::string series = FetchRaw(*port, "/series.json");
  EXPECT_NE(series.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(series.find("\"ticks\":2"), std::string::npos);
  EXPECT_NE(
      series.find("rate(sqp_stream_ingested_total{stream=packets})"),
      std::string::npos);

  EXPECT_NE(FetchRaw(*port, "/nope").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_NE(FetchRaw(*port, "/").find("/metrics"), std::string::npos);
  // Query strings are stripped before routing.
  EXPECT_NE(FetchRaw(*port, "/metrics?x=1").find("HTTP/1.0 200 OK"),
            std::string::npos);

  // Second Serve while serving is rejected.
  EXPECT_FALSE(engine.Serve(0).ok());
  engine.FinishAll();
}

TEST(EngineHttpTest, RegistryCounterOnServedEngine) {
  StreamEngine engine;
  engine.Metrics().GetCounter("hits")->Inc(3);
  auto port = engine.Serve(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  const std::string metrics = FetchRaw(*port, "/metrics");
  EXPECT_NE(metrics.find("hits 3"), std::string::npos);
  engine.query_server()->Stop();
  EXPECT_FALSE(engine.query_server()->serving());
}

TEST(EngineHttpTest, RoutingTable) {
  StreamEngine engine;
  EXPECT_FALSE(engine.Serve(70000).ok());  // Port out of range.
  auto port = engine.Serve(0);
  ASSERT_TRUE(port.ok()) << port.status().ToString();
  EXPECT_NE(FetchRaw(*port, "/metrics").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(FetchRaw(*port, "/snapshot.json").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(FetchRaw(*port, "/series.json").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(FetchRaw(*port, "/").find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(FetchRaw(*port, "/missing").find("HTTP/1.0 404"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency: live ticking monitor + HTTP scrapes + parallel query
// ingest, all at once. Run under TSan in CI.

TEST(MonitorEngineTest, ConcurrentTickIngestAndScrape) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  SubmitOptions popts;
  popts.exec.parallel = true;
  auto q = engine.Submit("select ts from packets where len > 100", popts);
  ASSERT_TRUE(q.ok());
  obs::MonitorOptions mopt;
  mopt.period_ms = 1;
  engine.StartMonitor(mopt);
  auto port = engine.Serve(0);
  ASSERT_TRUE(port.ok());

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)FetchRaw(*port, "/metrics");
      (void)FetchRaw(*port, "/series.json");
    }
  });
  const int kTuples = 20000;
  for (int i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 200)).ok());
  }
  engine.FinishAll();
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  EXPECT_EQ((*q)->result_count(), static_cast<size_t>(kTuples));
  EXPECT_GE(engine.monitor()->ticks(), 1u);
}

TEST(MonitorEngineTest, FourClientsScrapeConcurrently) {
  // Handler threads run scrapes in parallel: two /metrics or
  // /series.json handlers (registry snapshots, monitor reads) race each
  // other, the 1 ms sampler and parallel ingest. Run under TSan in CI.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  SubmitOptions popts;
  popts.exec.parallel = true;
  auto q = engine.Submit("select ts from packets where len > 100", popts);
  ASSERT_TRUE(q.ok());
  obs::MonitorOptions mopt;
  mopt.period_ms = 1;
  engine.StartMonitor(mopt);
  auto port = engine.Serve(0);
  ASSERT_TRUE(port.ok());

  const std::vector<std::string> routes = {"/metrics", "/series.json",
                                           "/profile/q0.json"};
  std::atomic<bool> done{false};
  std::atomic<int> ok{0};
  std::atomic<int> failed{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&] {
      // At least two passes each, so the four overlap even if ingest
      // ends first.
      for (int pass = 0; pass < 2 || !done.load(std::memory_order_relaxed);
           ++pass) {
        for (const std::string& route : routes) {
          if (FetchRaw(*port, route).rfind("HTTP/1.0 200 OK", 0) == 0) {
            ok.fetch_add(1, std::memory_order_relaxed);
          } else {
            failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  const int kTuples = 20000;
  for (int i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 200)).ok());
  }
  engine.FinishAll();
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : clients) t.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(ok.load(), 4 * 2 * static_cast<int>(routes.size()));
  EXPECT_EQ((*q)->result_count(), static_cast<size_t>(kTuples));
  EXPECT_GE(engine.monitor()->ticks(), 1u);
}

TEST(MonitorEngineTest, ConcurrentProfileScrapeWhileIngesting) {
  // The profiler's scrape path (ProfileSnapshot, /profile/<q>.json,
  // /events.json) races parallel ingest; TSan in CI proves the snapshot
  // reads only atomics and registration-time copies.
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  SubmitOptions popts;
  popts.exec.parallel = true;
  auto q = engine.Submit(
      "select tb, count(*) from packets group by ts/60 as tb", popts);
  ASSERT_TRUE(q.ok());
  auto port = engine.Serve(0);
  ASSERT_TRUE(port.ok());

  std::atomic<bool> done{false};
  std::atomic<int> profile_hits{0};
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      obs::QueryProfile p;
      if (engine.ProfileSnapshot("q0", &p)) {
        profile_hits.fetch_add(1, std::memory_order_relaxed);
        (void)p.Pretty();
        (void)p.ToJson();
      }
      (void)engine.Events().ToJson();
      (void)engine.Metrics().TakeSnapshot();
    }
  });
  std::thread http_scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      (void)FetchRaw(*port, "/profile/q0.json");
      (void)FetchRaw(*port, "/events.json");
    }
  });
  const int kTuples = 20000;
  for (int i = 0; i < kTuples; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 200)).ok());
  }
  engine.FinishAll();
  done.store(true, std::memory_order_relaxed);
  scraper.join();
  http_scraper.join();

  EXPECT_GT(profile_hits.load(), 0);
  obs::QueryProfile final_profile;
  ASSERT_TRUE(engine.ProfileSnapshot(*q, &final_profile));
  EXPECT_EQ(final_profile.ops.back().tuples_in,
            static_cast<uint64_t>(kTuples));
  // The HTTP routes answer for real labels and 404 unknown ones.
  EXPECT_NE(FetchRaw(*port, "/profile/q0.json").find("HTTP/1.0 200"),
            std::string::npos);
  EXPECT_NE(FetchRaw(*port, "/profile/zz.json").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_NE(FetchRaw(*port, "/events.json").find("query_submit"),
            std::string::npos);
}

TEST(MonitorEngineTest, TopStringCarriesWatermarkLag) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit("select ts from packets where len > 100");
  ASSERT_TRUE(q.ok());
  obs::MonitorOptions mopt;
  mopt.period_ms = 0;  // Deterministic ticks.
  engine.StartMonitor(mopt);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 200)).ok());
  }
  // A watermark through the chain gives the query an output watermark;
  // the source tap saw it at ingest, so lag is publishable.
  ASSERT_TRUE(
      engine.IngestElement("packets", Element(Punctuation::Watermark(90)))
          .ok());
  engine.monitor()->TickOnce(1.0);
  std::string top = engine.monitor()->TopString();
  EXPECT_NE(top.find("watermark lag"), std::string::npos);
  EXPECT_NE(top.find("query=q0"), std::string::npos);
  // And the same gauges ride the registry snapshot (/snapshot.json).
  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("sqp_query_source_watermark{query=\"q0\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("sqp_query_watermark_lag{query=\"q0\"}"),
            std::string::npos);
  engine.FinishAll();
}

// ---------------------------------------------------------------------------
// The closed loop: monitor-driven adaptive shedding.

TEST(AdaptiveSheddingTest, Validation) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  // Serial query without a probe has nothing to observe.
  SubmitOptions unprobed;
  unprobed.exec.shed.emplace();
  EXPECT_FALSE(engine.Submit("select ts from packets", unprobed).ok());
  SubmitOptions opt;
  opt.exec.shed.emplace();
  opt.exec.shed->backlog_probe = [] { return size_t{0}; };
  auto q = engine.Submit("select ts from packets", opt);
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE((*q)->adaptive_shedding());
}

TEST(AdaptiveSheddingTest, ConvergesUnderOverloadAndRecovers) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  obs::MonitorOptions mopt;
  mopt.period_ms = 0;  // The test drives ticks deterministically.
  engine.StartMonitor(mopt);

  // Simulated downstream queue: accepted tuples enter, capacity 1/tick
  // leaves. Arrivals are 2/tick — a 2x overload whose steady state
  // needs a ~50% drop rate.
  size_t sim_queue = 0;
  const double kTarget = 20.0;
  SubmitOptions sopt;
  sopt.exec.shed.emplace();
  sopt.exec.shed->controller.target_queue = kTarget;
  sopt.exec.shed->backlog_probe = [&sim_queue] { return sim_queue; };
  auto qr = engine.Submit("select ts from packets", sopt);
  ASSERT_TRUE(qr.ok());
  QueryHandle* q = *qr;

  uint64_t ingested = 0;
  size_t prev_results = 0;
  double tail_backlog = 0.0;
  int tail_n = 0;
  const int kTicks = 4000;
  for (int t = 0; t < kTicks; ++t) {
    for (int i = 0; i < 2; ++i) {
      ASSERT_TRUE(engine.Ingest("packets", Pkt(t, 1, 6, 200)).ok());
      ++ingested;
    }
    // Tuples that survived the gate reached the sink; they feed the
    // simulated queue, which drains at capacity 1/tick.
    size_t now = q->result_count();
    sim_queue += now - prev_results;
    prev_results = now;
    if (sim_queue > 0) --sim_queue;
    engine.monitor()->TickOnce(1.0);
    if (t >= kTicks * 3 / 4) {
      tail_backlog += static_cast<double>(sim_queue);
      ++tail_n;
    }
  }
  // Backlog settles within +-25% of the target under 2x overload.
  EXPECT_NEAR(tail_backlog / tail_n, kTarget, kTarget * 0.25);
  // The gate really shed tuples out of the ingest path.
  EXPECT_GT(q->shed_dropped(), 0u);
  EXPECT_LT(q->result_count(), ingested);
  EXPECT_GT(q->shed_drop_rate(), 0.3);
  // Shedding state is visible in exports.
  obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  EXPECT_NE(snap.ToPrometheus().find("sqp_shed_drop_rate{query=\"q0\"}"),
            std::string::npos);

  // Load subsides: the queue drains and the drop rate must fall below
  // 1% within a bounded number of ticks (anti-windup at work).
  int recover_ticks = 0;
  while (q->shed_drop_rate() >= 0.01 && recover_ticks < 500) {
    if (sim_queue > 0) --sim_queue;
    engine.monitor()->TickOnce(1.0);
    ++recover_ticks;
  }
  EXPECT_LT(recover_ticks, 500);
  EXPECT_LT(q->shed_drop_rate(), 0.01);
  engine.FinishAll();
}

}  // namespace
}  // namespace sqp
