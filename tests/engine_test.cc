#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <set>
#include <thread>

#include "arch/engine.h"
#include "common/rng.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef Pkt(int64_t ts, int64_t src, int64_t proto, int64_t len) {
  return MakeTuple(ts, {Value(ts), Value(src), Value(int64_t{9}),
                        Value(int64_t{1}), Value(int64_t{2}), Value(proto),
                        Value(len), Value(int64_t{0}), Value(int64_t{0}),
                        Value("")});
}

TEST(EngineTest, RegisterAndSubmit) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  EXPECT_FALSE(engine.RegisterStream("packets", gen::PacketSchema()).ok());

  auto q = engine.Submit("select src_ip from packets where len > 100");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(engine.num_queries(), 1u);
  EXPECT_EQ((*q)->output_schema().field(0).name, "src_ip");

  EXPECT_FALSE(engine.Submit("select nosuch from packets").ok());
  EXPECT_FALSE(engine.Submit("select x from nostream").ok());
}

TEST(EngineTest, IngestFansOutToAllQueries) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto big = engine.Submit("select ts from packets where len > 100");
  auto tcp = engine.Submit("select ts from packets where protocol = 6");
  ASSERT_TRUE(big.ok() && tcp.ok());

  ASSERT_TRUE(engine.Ingest("packets", Pkt(1, 1, 6, 50)).ok());
  ASSERT_TRUE(engine.Ingest("packets", Pkt(2, 1, 17, 500)).ok());
  ASSERT_TRUE(engine.Ingest("packets", Pkt(3, 1, 6, 500)).ok());
  engine.FinishAll();

  EXPECT_EQ((*big)->result_count(), 2u);  // len 500 twice.
  EXPECT_EQ((*tcp)->result_count(), 2u);  // proto 6 twice.
}

TEST(EngineTest, UnknownStreamRejected) {
  StreamEngine engine;
  EXPECT_EQ(engine.Ingest("ghost", Pkt(1, 1, 6, 1)).code(),
            StatusCode::kNotFound);
}

TEST(EngineTest, IngestAfterFinishRejected) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  engine.FinishAll();
  EXPECT_FALSE(engine.Ingest("packets", Pkt(1, 1, 6, 1)).ok());
}

TEST(EngineTest, CallbackStreamsResults) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  std::vector<int64_t> seen;
  SubmitOptions opts;
  opts.on_result = [&](const TupleRef& t) { seen.push_back(t->at(1).AsInt()); };
  auto q = engine.Submit("select ts, len from packets where len > 10", opts);
  ASSERT_TRUE(q.ok());
  (void)engine.Ingest("packets", Pkt(1, 1, 6, 5));
  (void)engine.Ingest("packets", Pkt(2, 1, 6, 50));
  EXPECT_EQ(seen, std::vector<int64_t>{50});
  EXPECT_EQ((*q)->result_count(), 1u);  // Collected too.
}

TEST(EngineTest, GroupByQueryThroughEngine) {
  StreamEngine engine;
  std::vector<FieldDomain> domains(gen::PacketSchema()->num_fields());
  domains[gen::PacketCols::kProtocol] = {"protocol", true, 256};
  ASSERT_TRUE(
      engine.RegisterStream("packets", gen::PacketSchema(), domains).ok());
  auto q = engine.Submit(
      "select tb, src_ip, count(*) from packets group by ts/10 as tb, src_ip");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  for (int64_t i = 0; i < 25; ++i) {
    (void)engine.Ingest("packets", Pkt(i, i % 2, 6, 100));
  }
  engine.FinishAll();
  // Buckets 0,1,2 x sources 0,1.
  EXPECT_EQ((*q)->result_count(), 6u);
}

TEST(EngineTest, ReorderSlackRestoresOrderForWindows) {
  StreamEngine engine;
  StreamOptions opt;
  opt.reorder_slack = 5;
  ASSERT_TRUE(
      engine.RegisterStream("packets", gen::PacketSchema(), {}, opt).ok());
  auto q = engine.Submit(
      "select tb, count(*) from packets group by ts/10 as tb");
  ASSERT_TRUE(q.ok());
  // Slightly disordered arrival; the reorder front-end fixes it before
  // the group-by sees it.
  for (int64_t ts : {2, 1, 4, 3, 6, 5, 12, 11, 14, 13, 22, 21}) {
    (void)engine.Ingest("packets", Pkt(ts, 1, 6, 1));
  }
  engine.FinishAll();
  std::map<int64_t, int64_t> rows;
  for (const TupleRef& r : (*q)->results()) {
    rows[r->at(0).AsInt()] = r->at(1).AsInt();
  }
  EXPECT_EQ(rows[0], 6);
  EXPECT_EQ(rows[1], 4);
  EXPECT_EQ(rows[2], 2);
}

TEST(EngineTest, HeartbeatClosesIdleBuckets) {
  StreamEngine engine;
  StreamOptions opt;
  opt.heartbeat_period = 10;
  ASSERT_TRUE(
      engine.RegisterStream("packets", gen::PacketSchema(), {}, opt).ok());
  auto q = engine.Submit(
      "select tb, count(*) from packets group by ts/10 as tb");
  ASSERT_TRUE(q.ok());
  (void)engine.Ingest("packets", Pkt(1, 1, 6, 1));
  (void)engine.Ingest("packets", Pkt(2, 1, 6, 1));
  EXPECT_EQ((*q)->result_count(), 0u);
  // A much later tuple triggers heartbeats 10 and 20, closing bucket 0 —
  // without needing the application to punctuate.
  (void)engine.Ingest("packets", Pkt(25, 1, 6, 1));
  EXPECT_EQ((*q)->result_count(), 1u);
}

TEST(EngineTest, FrontEndsArePlanOperators) {
  StreamEngine engine;
  StreamOptions opt;
  opt.reorder_slack = 100;
  opt.heartbeat_period = 10;
  ASSERT_TRUE(
      engine.RegisterStream("packets", gen::PacketSchema(), {}, opt).ok());
  auto q = engine.Submit("select ts from packets where len > 5000");
  ASSERT_TRUE(q.ok());
  const size_t before = engine.TotalStateBytes();
  size_t held = 0;
  for (int64_t ts : {5, 3, 4, 1, 2}) {
    TupleRef t = Pkt(ts, 1, 6, 1);
    held += t->MemoryBytes();
    ASSERT_TRUE(engine.Ingest("packets", t).ok());
  }
  // All five wait in the reorder buffer, which the engine now counts.
  EXPECT_GE(engine.TotalStateBytes(), before + held);
  // EXPLAIN ANALYZE lists the front-ends as rows of the query's plan.
  obs::QueryProfile p;
  ASSERT_TRUE(engine.ProfileSnapshot(*q, &p));
  std::map<std::string, uint64_t> tuples_in;
  for (const obs::OpProfileRow& row : p.ops) tuples_in[row.op] = row.tuples_in;
  ASSERT_EQ(tuples_in.count("reorder"), 1u);
  ASSERT_EQ(tuples_in.count("heartbeat"), 1u);
  EXPECT_EQ(tuples_in["reorder"], 5u);
  EXPECT_EQ(tuples_in["heartbeat"], 0u);
  engine.FinishAll();
  ASSERT_TRUE(engine.ProfileSnapshot(*q, &p));
  for (const obs::OpProfileRow& row : p.ops) tuples_in[row.op] = row.tuples_in;
  EXPECT_EQ(tuples_in["heartbeat"], 5u);
  EXPECT_EQ(tuples_in["select"], 5u);
}

TEST(EngineTest, MultiQuerySoak) {
  // Several queries of different shapes share one ingest path; results
  // cross-check against directly computed truths.
  StreamEngine engine;
  std::vector<FieldDomain> domains(gen::PacketSchema()->num_fields());
  domains[gen::PacketCols::kProtocol] = {"protocol", true, 256};
  ASSERT_TRUE(
      engine.RegisterStream("packets", gen::PacketSchema(), domains).ok());

  auto q_filter = engine.Submit("select ts from packets where len > 1000");
  auto q_agg = engine.Submit(
      "select tb, sum(len) from packets where protocol = 6 "
      "group by ts/100 as tb");
  auto q_distinct = engine.Submit("select distinct protocol from packets");
  ASSERT_TRUE(q_filter.ok() && q_agg.ok() && q_distinct.ok());

  gen::PacketGenerator tap(gen::PacketOptions{});
  uint64_t truth_big = 0;
  std::map<int64_t, int64_t> truth_sum;
  std::set<int64_t> truth_protos;
  for (int i = 0; i < 20000; ++i) {
    TupleRef p = tap.Next();
    truth_big += p->at(gen::PacketCols::kLen).AsInt() > 1000 ? 1 : 0;
    if (p->at(gen::PacketCols::kProtocol).AsInt() == 6) {
      truth_sum[p->ts() / 100] += p->at(gen::PacketCols::kLen).AsInt();
    }
    truth_protos.insert(p->at(gen::PacketCols::kProtocol).AsInt());
    ASSERT_TRUE(engine.Ingest("packets", p).ok());
  }
  engine.FinishAll();

  EXPECT_EQ((*q_filter)->result_count(), truth_big);
  EXPECT_EQ((*q_distinct)->result_count(), truth_protos.size());
  std::map<int64_t, int64_t> got_sum;
  for (const TupleRef& r : (*q_agg)->results()) {
    got_sum[r->at(0).AsInt()] = r->at(1).AsInt();
  }
  EXPECT_EQ(got_sum, truth_sum);
  EXPECT_GT(engine.TotalStateBytes(), 0u);
}

TEST(EngineTest, TwoStreamJoinThroughEngine) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("syn", gen::PacketSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("synack", gen::PacketSchema()).ok());
  auto q = engine.Submit(
      "select s.ts, a.ts - s.ts as rtt "
      "from syn s [range 100], synack a [range 100] "
      "where s.src_ip = a.dst_ip");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  auto syn = [&](int64_t ts, int64_t src) {
    return MakeTuple(ts, {Value(ts), Value(src), Value(int64_t{0}),
                          Value(int64_t{0}), Value(int64_t{0}),
                          Value(int64_t{6}), Value(int64_t{60}),
                          Value(int64_t{1}), Value(int64_t{0}), Value("")});
  };
  auto ack = [&](int64_t ts, int64_t dst) {
    return MakeTuple(ts, {Value(ts), Value(int64_t{0}), Value(dst),
                          Value(int64_t{0}), Value(int64_t{0}),
                          Value(int64_t{6}), Value(int64_t{60}),
                          Value(int64_t{1}), Value(int64_t{1}), Value("")});
  };
  (void)engine.Ingest("syn", syn(10, 42));
  (void)engine.Ingest("synack", ack(15, 42));
  engine.FinishAll();
  ASSERT_EQ((*q)->result_count(), 1u);
  EXPECT_EQ((*q)->results()[0]->at(1).AsInt(), 5);
}

// --- Per-stream routing: ingest reaches only the stream's readers ---

std::vector<std::string> SortedRows(const QueryHandle* q) {
  std::vector<std::string> rows;
  for (const TupleRef& t : q->results()) rows.push_back(t->ToString());
  std::sort(rows.begin(), rows.end());
  return rows;
}

TEST(EngineRoutingTest, QueryOnOtherStreamIsNeverTouched) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("other", gen::PacketSchema()).ok());
  auto busy = engine.Submit("select ts from packets where len > 10");
  auto idle = engine.Submit("select ts from other where len > 10");
  ASSERT_TRUE(busy.ok() && idle.ok());
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", Pkt(i, 1, 6, 50)).ok());
  }
  ASSERT_TRUE(
      engine.IngestElement("packets", Element(Punctuation::Watermark(100)))
          .ok());

  obs::QueryProfile p;
  ASSERT_TRUE(engine.ProfileSnapshot(*idle, &p));
  ASSERT_FALSE(p.ops.empty());
  for (const obs::OpProfileRow& row : p.ops) {
    EXPECT_EQ(row.tuples_in, 0u) << row.op;
    EXPECT_EQ(row.puncts_in, 0u) << row.op;
  }
  // Never fed, so the post-Submit shard rewrite still applies to it.
  EXPECT_TRUE(engine.EnableSharding(*idle).ok());
  EXPECT_FALSE(engine.EnableSharding(*busy).ok());
  engine.FinishAll();
  EXPECT_EQ((*busy)->result_count(), 100u);
  EXPECT_EQ((*idle)->result_count(), 0u);
}

TEST(EngineRoutingTest, SelfJoinGetsElementOnBothPortsInTapOrder) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto q = engine.Submit(
      "select a.ts, b.ts from packets a [range 100], packets b [range 100] "
      "where a.src_ip = b.src_ip");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_TRUE(engine.Ingest("packets", Pkt(1, 7, 6, 10)).ok());
  ASSERT_TRUE(engine.Ingest("packets", Pkt(2, 7, 6, 10)).ok());
  engine.FinishAll();

  std::vector<std::pair<int64_t, int64_t>> got;
  for (const TupleRef& t : (*q)->results()) {
    got.emplace_back(t->at(0).AsInt(), t->at(1).AsInt());
  }
  // Each element enters port 0 (a), then port 1 (b). Tuple 1 meets only
  // itself, on port 1. Tuple 2 on port 0 probes b = {1}, giving (2, 1);
  // on port 1 it probes a = {1, 2}. Reversed taps would emit (1, 2)
  // second instead.
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(got[0], std::make_pair(int64_t{1}, int64_t{1}));
  EXPECT_EQ(got[1], std::make_pair(int64_t{2}, int64_t{1}));
  std::sort(got.begin() + 2, got.end());
  EXPECT_EQ(got[2], std::make_pair(int64_t{1}, int64_t{2}));
  EXPECT_EQ(got[3], std::make_pair(int64_t{2}, int64_t{2}));
}

TEST(EngineRoutingTest, SubmitAndRemoveBetweenIngests) {
  const char* kKeepA = "select ts, len from packets where len > 100";
  const char* kGone = "select ts from packets where protocol = 6";
  const char* kKeepB = "select ts, src_ip from packets where len <= 100";
  auto pkt = [](int64_t i) {
    return Pkt(i, i % 5, i % 2 == 0 ? 6 : 17, i * 7 % 300);
  };

  StreamEngine ref;
  ASSERT_TRUE(ref.RegisterStream("packets", gen::PacketSchema()).ok());
  auto ref_a = ref.Submit(kKeepA);
  auto ref_b = ref.Submit(kKeepB);
  ASSERT_TRUE(ref_a.ok() && ref_b.ok());

  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  auto keep_a = engine.Submit(kKeepA);
  size_t gone_seen = 0;
  SubmitOptions count_gone;
  count_gone.on_result = [&gone_seen](const TupleRef&) { ++gone_seen; };
  auto gone = engine.Submit(kGone, count_gone);
  auto keep_b = engine.Submit(kKeepB);
  ASSERT_TRUE(keep_a.ok() && gone.ok() && keep_b.ok());

  for (int64_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", pkt(i)).ok());
    ASSERT_TRUE(ref.Ingest("packets", pkt(i)).ok());
  }
  EXPECT_EQ(gone_seen, 20u);  // Even i are protocol 6.
  ASSERT_TRUE(engine.Remove(*gone).ok());
  for (int64_t i = 40; i < 80; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", pkt(i)).ok());
    ASSERT_TRUE(ref.Ingest("packets", pkt(i)).ok());
  }
  EXPECT_EQ(gone_seen, 20u);

  // The same text submitted again is a new query: it sees only what is
  // ingested from now on.
  auto again = engine.Submit(kGone);
  ASSERT_TRUE(again.ok());
  for (int64_t i = 80; i < 100; ++i) {
    ASSERT_TRUE(engine.Ingest("packets", pkt(i)).ok());
    ASSERT_TRUE(ref.Ingest("packets", pkt(i)).ok());
  }
  engine.FinishAll();
  ref.FinishAll();
  EXPECT_EQ(gone_seen, 20u);
  EXPECT_EQ(SortedRows(*keep_a), SortedRows(*ref_a));
  EXPECT_EQ(SortedRows(*keep_b), SortedRows(*ref_b));
  ASSERT_EQ((*again)->result_count(), 10u);
  EXPECT_EQ((*again)->results().front()->at(0).AsInt(), 80);
}

TEST(EngineRoutingTest, ConcurrentChurnLeavesStableQueryExact) {
  const char* kStable = "select ts, len from packets where len > 100";
  auto pkt = [](int64_t i) { return Pkt(i, i % 9, 6, i * 13 % 400); };

  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("other", gen::PacketSchema()).ok());
  auto stable = engine.Submit(kStable);
  ASSERT_TRUE(stable.ok());

  // One ingest thread (the engine's contract) keeps going until the
  // churn is over; a second thread submits and removes queries on both
  // streams meanwhile.
  std::atomic<bool> churn_done{false};
  int64_t ingested = 0;
  bool ingest_failed = false;
  std::thread ingest([&] {
    for (int64_t i = 0; i < 2000 || !churn_done.load(); ++i) {
      ingest_failed = !engine.Ingest("packets", pkt(i)).ok() ||
                      !engine.Ingest("other", pkt(i)).ok();
      if (ingest_failed) return;
      ingested = i + 1;
    }
  });
  int churn_failures = 0;
  for (int i = 0; i < 500; ++i) {
    auto q = engine.Submit(i % 2 == 0
                               ? "select ts from packets where len > 50"
                               : "select ts from other where len > 50");
    if (!q.ok() || !engine.Remove(*q).ok()) ++churn_failures;
  }
  churn_done = true;
  ingest.join();
  ASSERT_FALSE(ingest_failed);
  EXPECT_EQ(churn_failures, 0);
  engine.FinishAll();
  EXPECT_EQ(engine.num_queries(), 1u);

  StreamEngine ref;
  ASSERT_TRUE(ref.RegisterStream("packets", gen::PacketSchema()).ok());
  auto ref_q = ref.Submit(kStable);
  ASSERT_TRUE(ref_q.ok());
  for (int64_t i = 0; i < ingested; ++i) {
    ASSERT_TRUE(ref.Ingest("packets", pkt(i)).ok());
  }
  ref.FinishAll();
  EXPECT_EQ(SortedRows(*stable), SortedRows(*ref_q));
}

// --- Opt-in threaded execution (ExecutionOptions::parallel) ---

TEST(EngineParallelTest, ChainQueryMatchesSerial) {
  const char* kQuery =
      "select tb, src_ip, count(*) from packets "
      "where protocol = 6 group by ts/60 as tb, src_ip";
  auto feed = [](StreamEngine& engine) {
    Rng rng(7);
    for (int64_t i = 0; i < 5000; ++i) {
      ASSERT_TRUE(engine
                      .Ingest("packets",
                              Pkt(i, static_cast<int64_t>(rng.Uniform(8)),
                                  (i % 3 == 0) ? 17 : 6,
                                  static_cast<int64_t>(rng.Uniform(1500))))
                      .ok());
    }
    engine.FinishAll();
  };

  StreamEngine serial;
  ASSERT_TRUE(serial.RegisterStream("packets", gen::PacketSchema()).ok());
  auto sq = serial.Submit(kQuery);
  ASSERT_TRUE(sq.ok());
  feed(serial);

  StreamEngine par;
  ASSERT_TRUE(par.RegisterStream("packets", gen::PacketSchema()).ok());
  SubmitOptions popts;
  popts.exec.parallel = true;
  auto pq = par.Submit(kQuery, popts);
  ASSERT_TRUE(pq.ok());
  EXPECT_TRUE((*pq)->parallel());
  // Single-input plan: one worker per operator of the chain.
  ASSERT_NE((*pq)->parallel_executor(), nullptr);
  EXPECT_GE((*pq)->parallel_executor()->num_stages(), 2u);
  feed(par);

  ASSERT_EQ((*sq)->result_count(), (*pq)->result_count());
  // The chain preserves order stage-to-stage, so rows match 1:1.
  for (size_t i = 0; i < (*sq)->result_count(); ++i) {
    EXPECT_EQ(*(*sq)->results()[i], *(*pq)->results()[i]) << "row " << i;
  }
  // Every stage saw the full (post-filter) flow; nothing was shed.
  const ParallelExecutor* exec = (*pq)->parallel_executor();
  for (size_t i = 0; i < exec->num_stages(); ++i) {
    EXPECT_EQ(exec->stage_stats(i).dropped, 0u) << "stage " << i;
  }
}

TEST(EngineParallelTest, JoinQueryRunsWholePlanOnWorker) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("syn", gen::PacketSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("synack", gen::PacketSchema()).ok());
  SubmitOptions popts;
  popts.exec.parallel = true;
  auto q = engine.Submit(
      "select s.ts, a.ts - s.ts as rtt "
      "from syn s [range 100], synack a [range 100] "
      "where s.src_ip = a.dst_ip",
      popts);
  ASSERT_TRUE(q.ok());
  // Multi-input plans fall back to one whole-query stage.
  EXPECT_EQ((*q)->parallel_executor()->num_stages(), 1u);

  auto syn = [&](int64_t ts, int64_t src) {
    return MakeTuple(ts, {Value(ts), Value(src), Value(int64_t{0}),
                          Value(int64_t{0}), Value(int64_t{0}),
                          Value(int64_t{6}), Value(int64_t{60}),
                          Value(int64_t{1}), Value(int64_t{0}), Value("")});
  };
  auto ack = [&](int64_t ts, int64_t dst) {
    return MakeTuple(ts, {Value(ts), Value(int64_t{0}), Value(dst),
                          Value(int64_t{0}), Value(int64_t{0}),
                          Value(int64_t{6}), Value(int64_t{60}),
                          Value(int64_t{1}), Value(int64_t{1}), Value("")});
  };
  for (int64_t i = 0; i < 200; ++i) {
    (void)engine.Ingest("syn", syn(10 * i, i % 16));
    (void)engine.Ingest("synack", ack(10 * i + 5, i % 16));
  }
  engine.FinishAll();
  // Each synack joins the syns of the same key within range 100.
  EXPECT_GT((*q)->result_count(), 0u);
  for (const TupleRef& row : (*q)->results()) {
    EXPECT_EQ(row->at(1).AsInt(), 5);
  }
}

// --- One configuration path (SubmitOptions::exec) ---

TupleRef Packet(int64_t ts, int64_t src, int64_t dst, int64_t len) {
  return MakeTuple(ts, {Value(ts), Value(src), Value(dst), Value(int64_t{1}),
                        Value(int64_t{2}), Value(int64_t{6}), Value(len),
                        Value(int64_t{0}), Value(int64_t{0}), Value("")});
}

std::multiset<std::string> RowSet(const QueryHandle* q) {
  std::multiset<std::string> rows;
  for (const TupleRef& t : q->results()) rows.insert(t->ToString());
  return rows;
}

/// Runs `query` under `exec` over one fixed feed: every tuple goes to
/// `packets` and, alternately, to `syn` or `synack`, with a watermark on
/// all three every 100 tuples. A disordered copy of the feed goes to
/// `late`, `late_syn` and `late_synack`, which reorder (slack 8) and
/// heartbeat (period 16) instead of being punctuated; one tuple in 97
/// arrives beyond the slack and is dropped.
/// Checks that the handle runs the mode it was given: a stateless query
/// has nothing to shard, and an op-per-stage chain (more than one stage)
/// converts runs to columns exactly when `exec.columnar` asks.
std::multiset<std::string> RunUnder(const std::string& query,
                                    const ExecutionOptions& exec,
                                    bool stateful = false) {
  StreamEngine engine;
  for (const char* s : {"packets", "syn", "synack"}) {
    EXPECT_TRUE(engine.RegisterStream(s, gen::PacketSchema()).ok());
  }
  StreamOptions disordered;
  disordered.reorder_slack = 8;
  disordered.heartbeat_period = 16;
  for (const char* s : {"late", "late_syn", "late_synack"}) {
    EXPECT_TRUE(
        engine.RegisterStream(s, gen::PacketSchema(), {}, disordered).ok());
  }
  SubmitOptions opts;
  opts.exec = exec;
  auto q = engine.Submit(query, opts);
  EXPECT_TRUE(q.ok()) << q.status().ToString();
  if (!q.ok()) return {};
  EXPECT_EQ((*q)->parallel(), exec.parallel);
  EXPECT_EQ((*q)->sharded(), stateful && exec.sharding.has_value());
  const ParallelExecutor* px = (*q)->parallel_executor();
  if (px != nullptr && px->num_stages() > 1) {
    bool columnar_stage = false;
    for (size_t i = 0; i < px->num_stages(); ++i) {
      columnar_stage = columnar_stage || px->stage_config(i).columnar;
    }
    EXPECT_EQ(columnar_stage, exec.columnar);
  }
  Rng rng(19);
  Rng jitter(23);
  for (int64_t i = 0; i < 3000; ++i) {
    const int64_t ts = i / 2;
    TupleRef t = Packet(ts, static_cast<int64_t>(rng.Uniform(16)),
                        static_cast<int64_t>(rng.Uniform(16)),
                        static_cast<int64_t>(rng.Uniform(1500)));
    EXPECT_TRUE(engine.Ingest("packets", t).ok());
    EXPECT_TRUE(engine.Ingest(i % 2 == 0 ? "syn" : "synack", t).ok());
    const int64_t lag =
        i % 97 == 96 ? 40 : static_cast<int64_t>(jitter.Uniform(7));
    TupleRef lt = Packet(ts + 20 - lag, t->at(1).AsInt(), t->at(2).AsInt(),
                         t->at(6).AsInt());
    EXPECT_TRUE(engine.Ingest("late", lt).ok());
    EXPECT_TRUE(
        engine.Ingest(i % 2 == 0 ? "late_syn" : "late_synack", lt).ok());
    if (i % 100 == 99) {
      for (const char* s : {"packets", "syn", "synack"}) {
        EXPECT_TRUE(
            engine.IngestElement(s, Element(Punctuation::Watermark(ts)))
                .ok());
      }
    }
  }
  engine.FinishAll();
  return RowSet(*q);
}

TEST(EngineExecTest, EveryModeMatchesSerial) {
  const std::vector<std::string> queries = {
      "select ts, len * 2 as l2 from packets where len > 700",
      "select tb, src_ip, count(*), sum(len) from packets "
      "group by ts/60 as tb, src_ip",
      "select s.ts, a.ts - s.ts as rtt "
      "from syn s [range 40], synack a [range 40] "
      "where s.src_ip = a.dst_ip",
      "select s.ts, a.ts from syn s, synack a "
      "where s.src_ip = a.dst_ip and s.dst_ip = a.src_ip",
      // Behind reorder and heartbeat front-ends. The join's first Flush
      // (from the left input) arrives before the right input's reorder
      // has released its last tuples. Each reorder releases on its own
      // stream's high water, so the two inputs reach the join up to a
      // slack apart: only a join that never expires matches serial
      // under sharding.
      "select tb, src_ip, count(*), sum(len) from late "
      "group by ts/60 as tb, src_ip",
      "select s.ts, a.ts from late_syn s, late_synack a "
      "where s.src_ip = a.dst_ip and s.dst_ip = a.src_ip",
  };
  struct Mode {
    const char* name;
    bool parallel;
    bool columnar;
    int shards;  // 0 = no sharding.
  };
  const Mode modes[] = {
      {"parallel", true, false, 0},       {"parallel+columnar", true, true, 0},
      {"shards4", false, false, 4},       {"shards4+parallel", true, false, 4},
      {"shards4+parallel+columnar", true, true, 4},
  };
  for (const std::string& query : queries) {
    const bool stateful = query != queries[0];
    const std::multiset<std::string> serial = RunUnder(query, {}, stateful);
    EXPECT_GT(serial.size(), 0u) << query;
    for (const Mode& m : modes) {
      ExecutionOptions exec;
      exec.columnar = m.columnar;
      exec.parallel = m.parallel;
      if (m.shards > 0) {
        exec.sharding.emplace();
        exec.sharding->shards = m.shards;
      }
      EXPECT_EQ(RunUnder(query, exec, stateful), serial)
          << m.name << ": " << query;
    }
  }
}

TEST(EngineExecTest, RefusedSubmitPublishesNothing) {
  StreamEngine engine;
  ASSERT_TRUE(engine.RegisterStream("packets", gen::PacketSchema()).ok());
  ASSERT_TRUE(engine.RegisterStream("synack", gen::PacketSchema()).ok());
  const std::string chain = "select ts from packets where len > 0";
  const std::string join =
      "select s.ts from packets s [range 10], synack a [range 10] "
      "where s.src_ip = a.dst_ip";
  AdaptiveShedOptions probed;
  probed.backlog_probe = [] { return size_t{0}; };

  struct Refusal {
    const char* why;
    std::string query;
    ExecutionOptions exec;
  };
  std::vector<Refusal> refusals(6);
  refusals[0] = {"shed on a multi-input query", join, {}};
  refusals[0].exec.shed = probed;
  refusals[1] = {"shed on a serial query with no probe", chain, {}};
  refusals[1].exec.shed.emplace();
  refusals[2] = {"shards < 1", chain, {}};
  refusals[2].exec.sharding.emplace();
  refusals[2].exec.sharding->shards = 0;
  refusals[3] = {"columnar with neither parallel nor shards", chain, {}};
  refusals[3].exec.columnar = true;
  // Columnar without parallel runs only inside shard replicas, so a
  // sharding request that splices nothing leaves it nowhere to run.
  refusals[4] = {"columnar with shards 1",
                 "select tb, src_ip, count(*) from packets "
                 "group by ts/60 as tb, src_ip",
                 {}};
  refusals[4].exec.columnar = true;
  refusals[4].exec.sharding.emplace();
  refusals[4].exec.sharding->shards = 1;
  refusals[5] = {"columnar with shards but nothing shardable", chain, {}};
  refusals[5].exec.columnar = true;
  refusals[5].exec.sharding.emplace();

  for (const Refusal& r : refusals) {
    SubmitOptions opts;
    opts.exec = r.exec;
    auto q = engine.Submit(r.query, opts);
    ASSERT_FALSE(q.ok()) << r.why;
    EXPECT_EQ(q.status().code(), StatusCode::kFailedPrecondition) << r.why;
  }
  // No handle, registry collector, profile, monitor tick listener (the
  // shed refusals never started the monitor) or lifecycle event.
  EXPECT_EQ(engine.num_queries(), 0u);
  EXPECT_TRUE(engine.ProfiledQueries().empty());
  const obs::Snapshot snap = engine.Metrics().TakeSnapshot();
  EXPECT_TRUE(snap.ops.empty());
  for (const obs::Sample& smp : snap.samples) {
    for (const auto& [key, value] : smp.labels) {
      EXPECT_NE(key, "query") << smp.name;
    }
  }
  EXPECT_EQ(engine.monitor(), nullptr);
  EXPECT_EQ(engine.Events().total(), 0u);
  // And no label was spent: the next accepted query is still q0.
  auto ok = engine.Submit(chain);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->metrics_label(), "q0");
  engine.FinishAll();
}

}  // namespace
}  // namespace sqp
