// Equivalence proofs for key-partitioned execution: the merged output of
// a ShardedOp must be the serial operator's output up to inter-shard
// reordering — bit-identical as a multiset of rows — and punctuation
// ordering must still be trustworthy downstream.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "arch/engine.h"
#include "common/rng.h"
#include "dur/codec.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "exec/sharded_op.h"
#include "exec/sharding.h"
#include "exec/window_join.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t key, int64_t payload = 0) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(payload)});
}

std::multiset<std::string> Rows(const CollectorSink& s) {
  std::multiset<std::string> out;
  for (const TupleRef& t : s.tuples()) out.insert(t->ToString());
  return out;
}

std::multiset<std::string> Rows(const std::vector<TupleRef>& ts) {
  std::multiset<std::string> out;
  for (const TupleRef& t : ts) out.insert(t->ToString());
  return out;
}

BinaryWindowJoinOp::Options JoinOpts() {
  BinaryWindowJoinOp::Options o;
  o.left_cols = {1};
  o.right_cols = {1};
  o.left_window = WindowSpec::TimeSliding(50);
  o.right_window = WindowSpec::TimeSliding(50);
  return o;
}

/// Drives the same element sequence into both a serial operator and its
/// sharded counterpart: interleaved two-port tuples with periodic
/// watermarks, then the binary flush protocol.
template <typename PushFn>
void DriveJoinWorkload(PushFn push, uint64_t seed, int n, int keys) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    int64_t ts = i / 2;
    int port = static_cast<int>(rng.Uniform(2));
    int64_t key = static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(keys)));
    push(Element(T(ts, key, i)), port);
    if (i % 256 == 255) {
      push(Element(Punctuation::Watermark(ts - 80)), 0);
    }
  }
}

TEST(ShardEquivTest, WindowJoinDisjointMatchesSerial) {
  auto opts = JoinOpts();
  Plan sp;
  auto* serial = sp.Make<BinaryWindowJoinOp>(opts);
  auto* ssink = sp.Make<CollectorSink>();
  serial->SetOutput(ssink);

  Plan pp;
  ShardedOpOptions so;
  so.shards = 4;
  so.key_cols = {{1}, {1}};
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<BinaryWindowJoinOp>(opts); });
  auto* psink = pp.Make<CollectorSink>();
  sharded->SetOutput(psink);

  DriveJoinWorkload([&](const Element& e, int p) { serial->Push(e, p); }, 11,
                    4000, 40);
  DriveJoinWorkload([&](const Element& e, int p) { sharded->Push(e, p); }, 11,
                    4000, 40);
  serial->Flush();
  serial->Flush();
  sharded->Flush();
  sharded->Flush();

  EXPECT_GT(ssink->count(), 0u);
  EXPECT_EQ(Rows(*ssink), Rows(*psink));
  EXPECT_EQ(sharded->merged_tuples(), psink->count());
  EXPECT_EQ(sharded->dropped(), 0u);
  EXPECT_FALSE(sharded->running());
}

TEST(ShardEquivTest, WindowJoinReplicatedMatchesSerial) {
  auto opts = JoinOpts();
  Plan sp;
  auto* serial = sp.Make<BinaryWindowJoinOp>(opts);
  auto* ssink = sp.Make<CollectorSink>();
  serial->SetOutput(ssink);

  Plan pp;
  ShardedOpOptions so;
  so.shards = 3;
  so.routing = ShardRouting::kReplicated;
  so.key_cols = {{1}, {1}};
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<BinaryWindowJoinOp>(opts); });
  auto* psink = pp.Make<CollectorSink>();
  sharded->SetOutput(psink);

  DriveJoinWorkload([&](const Element& e, int p) { serial->Push(e, p); }, 23,
                    3000, 16);
  DriveJoinWorkload([&](const Element& e, int p) { sharded->Push(e, p); }, 23,
                    3000, 16);
  serial->Flush();
  serial->Flush();
  sharded->Flush();
  sharded->Flush();

  EXPECT_GT(ssink->count(), 0u);
  // Replicated routing: each shard joins its slice of the left stream
  // against the full right stream — every pair exactly once.
  EXPECT_EQ(Rows(*ssink), Rows(*psink));
  // The broadcast side's ingest amplification is visible in routed
  // counts: total routed exceeds elements pushed.
  uint64_t routed = 0;
  for (int i = 0; i < 3; ++i) routed += sharded->shard_stats(i).routed;
  EXPECT_GT(routed, sharded->stats().tuples_in);
}

TEST(ShardEquivTest, SkewedKeysStillMatchAndReportSkew) {
  auto opts = JoinOpts();
  Plan sp;
  auto* serial = sp.Make<BinaryWindowJoinOp>(opts);
  auto* ssink = sp.Make<CollectorSink>();
  serial->SetOutput(ssink);

  Plan pp;
  ShardedOpOptions so;
  so.shards = 4;
  so.key_cols = {{1}, {1}};
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<BinaryWindowJoinOp>(opts); });
  auto* psink = pp.Make<CollectorSink>();
  sharded->SetOutput(psink);

  auto drive = [](auto push) {
    Rng rng(5);
    ZipfGenerator zipf(64, 1.4);
    for (int i = 0; i < 3000; ++i) {
      int64_t ts = i / 2;
      int port = static_cast<int>(rng.Uniform(2));
      int64_t key = static_cast<int64_t>(zipf.Next(rng));
      push(Element(T(ts, key, i)), port);
    }
  };
  drive([&](const Element& e, int p) { serial->Push(e, p); });
  drive([&](const Element& e, int p) { sharded->Push(e, p); });
  serial->Flush();
  serial->Flush();
  sharded->Flush();
  sharded->Flush();

  EXPECT_EQ(Rows(*ssink), Rows(*psink));
  // Zipf(1.4) hammers the hot key's shard; the gauge must say so.
  EXPECT_GT(sharded->SkewRatio(), 1.2);
}

TEST(ShardEquivTest, WindowedGroupByMatchesSerial) {
  GroupByOptions g;
  g.key_cols = {1};
  g.aggs = {AggSpec{AggKind::kCount, -1, 0.5}, AggSpec{AggKind::kSum, 2, 0.5}};
  g.window = WindowSpec::TimeTumbling(100);

  Plan sp;
  auto* serial = sp.Make<GroupByAggregateOp>(g);
  auto* ssink = sp.Make<CollectorSink>();
  serial->SetOutput(ssink);

  Plan pp;
  ShardedOpOptions so;
  so.shards = 4;
  so.key_cols = {{1}};
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<GroupByAggregateOp>(g); });
  auto* psink = pp.Make<CollectorSink>();
  sharded->SetOutput(psink);

  auto drive = [](auto push) {
    Rng rng(17);
    for (int i = 0; i < 5000; ++i) {
      push(Element(T(i / 4, static_cast<int64_t>(rng.Uniform(32)), i % 10)));
      if (i % 512 == 511) push(Element(Punctuation::Watermark(i / 4 - 150)));
    }
  };
  drive([&](const Element& e) { serial->Push(e, 0); });
  drive([&](const Element& e) { sharded->Push(e, 0); });
  serial->Flush();
  sharded->Flush();

  EXPECT_GT(ssink->count(), 0u);
  // Bucket-start timestamps are deterministic, every group lives wholly
  // on one shard: rows must be bit-identical after reordering.
  EXPECT_EQ(Rows(*ssink), Rows(*psink));
}

// Closed buckets' groups are recycled into later buckets (each replica
// keeps its own free list), so every bucket after the first runs on
// reused keys and accumulators. Serial and sharded output must still
// equal a from-scratch oracle, and a checkpoint must hold only the open
// bucket: byte for byte what an operator that never closed a bucket
// writes.
TEST(ShardEquivTest, RecycledGroupByMatchesOracleAndCheckpoint) {
  GroupByOptions g;
  g.key_cols = {1};
  g.aggs = {AggSpec{AggKind::kCount, -1, 0.5}, AggSpec{AggKind::kSum, 2, 0.5}};
  g.window = WindowSpec::TimeTumbling(100);
  // Output [ts, key, count, sum]: keep groups with more than 12 rows.
  g.having = Bin(BinOp::kGt, Col(2), Lit(int64_t{12}));

  std::vector<TupleRef> input;
  Rng rng(29);
  for (int i = 0; i < 4000; ++i) {  // Ten buckets of 400 rows, 32 keys.
    input.push_back(T(i / 4, static_cast<int64_t>(rng.Uniform(32)), i % 10));
  }
  std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>> groups;
  for (const TupleRef& t : input) {
    auto& [count, sum] = groups[{t->ts() / 100, t->at(1).AsInt()}];
    ++count;
    sum += t->at(2).AsInt();
  }
  std::vector<TupleRef> expected;
  for (const auto& [bk, cs] : groups) {
    if (cs.first <= 12) continue;
    const int64_t ts = bk.first * 100;
    expected.push_back(MakeTuple(ts, {Value(ts), Value(bk.second),
                                      Value(cs.first), Value(cs.second)}));
  }

  Plan sp;
  auto* serial = sp.Make<GroupByAggregateOp>(g);
  auto* ssink = sp.Make<CollectorSink>();
  serial->SetOutput(ssink);
  Plan pp;
  ShardedOpOptions so;
  so.shards = 4;
  so.key_cols = {{1}};
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<GroupByAggregateOp>(g); });
  auto* psink = pp.Make<CollectorSink>();
  sharded->SetOutput(psink);

  for (const TupleRef& t : input) {
    serial->Push(Element(t), 0);
    sharded->Push(Element(t), 0);
  }
  // Nine buckets closed and recycled; only the last (ts 900..999) is
  // open. An operator fed just that bucket never recycled anything.
  GroupByAggregateOp fresh(g);
  CollectorSink fresh_sink;
  fresh.SetOutput(&fresh_sink);
  for (const TupleRef& t : input) {
    if (t->ts() >= 900) fresh.Push(Element(t), 0);
  }
  dur::BufWriter recycled_ckpt, fresh_ckpt;
  serial->SaveState(recycled_ckpt);
  fresh.SaveState(fresh_ckpt);
  EXPECT_EQ(recycled_ckpt.data(), fresh_ckpt.data());
  EXPECT_EQ(serial->open_groups(), fresh.open_groups());

  serial->Flush();
  sharded->Flush();
  EXPECT_GT(ssink->count(), 0u);
  EXPECT_LT(ssink->count(), groups.size());  // HAVING dropped some.
  EXPECT_EQ(Rows(*ssink), Rows(expected));
  EXPECT_EQ(Rows(*psink), Rows(expected));
}

// Grouped aggregation on one key column whose groups close on
// punctuation [TMSF03].
GroupByOptions PunctuatedBy(int key_col, std::vector<AggSpec> aggs) {
  GroupByOptions opt;
  opt.key_cols = {key_col};
  opt.aggs = std::move(aggs);
  opt.window = WindowSpec::Punctuated();
  return opt;
}

TEST(ShardEquivTest, PunctuationGroupByCloseKeyMatchesSerial) {
  std::vector<AggSpec> aggs = {AggSpec{AggKind::kCount, -1, 0.5},
                               AggSpec{AggKind::kMax, 2, 0.5}};

  Plan sp;
  auto* serial = sp.Make<GroupByAggregateOp>(PunctuatedBy(1, aggs));
  auto* ssink = sp.Make<CollectorSink>();
  serial->SetOutput(ssink);

  Plan pp;
  ShardedOpOptions so;
  so.shards = 4;
  so.key_cols = {{1}};
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) {
        return std::make_unique<GroupByAggregateOp>(PunctuatedBy(1, aggs));
      });
  auto* psink = pp.Make<CollectorSink>();
  sharded->SetOutput(psink);

  auto drive = [](auto push) {
    Rng rng(29);
    for (int i = 0; i < 4000; ++i) {
      int64_t key = static_cast<int64_t>(rng.Uniform(50));
      push(Element(T(i, key, i % 100)));
      if (i % 7 == 6) {
        // Close a random key: data-dependent window extent, routed to
        // the shard owning that key's accumulator.
        push(Element(Punctuation::CloseKey(
            i, Value(static_cast<int64_t>(rng.Uniform(50))))));
      }
    }
  };
  drive([&](const Element& e) { serial->Push(e, 0); });
  drive([&](const Element& e) { sharded->Push(e, 0); });
  serial->Flush();
  sharded->Flush();

  EXPECT_GT(ssink->count(), 0u);
  EXPECT_EQ(Rows(*ssink), Rows(*psink));
  // CloseKey punctuations forward exactly once under disjoint routing,
  // same as serial.
  EXPECT_EQ(ssink->punctuations().size(), psink->punctuations().size());
}

/// Order-preserving sink: CollectorSink splits tuples and punctuations
/// into separate vectors, which erases exactly the interleaving the
/// watermark-correctness invariant is about.
class RecordingSink : public Operator {
 public:
  RecordingSink() : Operator("recording-sink") {}
  void Push(const Element& e, int = 0) override {
    CountIn(e);
    log_.push_back(e);
  }
  const std::vector<Element>& log() const { return log_; }

 private:
  std::vector<Element> log_;
};

TEST(ShardEquivTest, NoTupleEverFollowsAWatermarkThatCoversIt) {
  auto opts = JoinOpts();
  Plan pp;
  ShardedOpOptions so;
  so.shards = 4;
  so.key_cols = {{1}, {1}};
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<BinaryWindowJoinOp>(opts); });
  auto* sink = pp.Make<RecordingSink>();
  sharded->SetOutput(sink);

  DriveJoinWorkload([&](const Element& e, int p) { sharded->Push(e, p); }, 41,
                    4000, 24);
  sharded->Flush();
  sharded->Flush();

  // The min-across-shards merge rule's contract, checked on the actual
  // downstream order: once watermark W goes by, no later tuple may carry
  // ts <= W, and watermarks must strictly increase.
  int64_t wm = INT64_MIN;
  size_t wm_count = 0;
  for (const Element& e : sink->log()) {
    if (e.is_punctuation()) {
      if (!e.punctuation().has_key) {
        EXPECT_GT(e.punctuation().ts, wm);
        wm = e.punctuation().ts;
        ++wm_count;
      }
      continue;
    }
    EXPECT_GT(e.ts(), wm) << "tuple emitted after a watermark covering it";
  }
  EXPECT_GT(wm_count, 0u);
}

TEST(ShardEquivTest, ShardsOfOneStillWorkThroughTheFullPath) {
  // The shards=1 configuration is the honest baseline of the scaling
  // benchmark: same queues, same merge, one replica.
  GroupByOptions g;
  g.key_cols = {1};
  g.aggs = {AggSpec{AggKind::kCount, -1, 0.5}};
  g.window = WindowSpec::TimeTumbling(10);

  Plan sp;
  auto* serial = sp.Make<GroupByAggregateOp>(g);
  auto* ssink = sp.Make<CollectorSink>();
  serial->SetOutput(ssink);

  Plan pp;
  ShardedOpOptions so;
  so.shards = 1;
  so.key_cols = {{1}};
  auto* sharded = pp.Make<ShardedOp>(
      so, [&](int) { return std::make_unique<GroupByAggregateOp>(g); });
  auto* psink = pp.Make<CollectorSink>();
  sharded->SetOutput(psink);

  for (int i = 0; i < 500; ++i) {
    serial->Push(Element(T(i, i % 7)), 0);
    sharded->Push(Element(T(i, i % 7)), 0);
  }
  serial->Flush();
  sharded->Flush();
  EXPECT_EQ(Rows(*ssink), Rows(*psink));
}

// --- Plan rewrite (ShardStatefulOps) ---

TEST(ShardRewriteTest, SplicesJoinAndKeepsWiring) {
  Plan plan;
  auto* join = plan.Make<BinaryWindowJoinOp>(JoinOpts());
  auto* sink = plan.Make<CollectorSink>();
  join->SetOutput(sink);

  ShardPlanOptions opts;
  opts.shards = 2;
  auto rewrites = ShardStatefulOps(plan, opts);
  ASSERT_EQ(rewrites.size(), 1u);
  ASSERT_NE(rewrites[0].sharded, nullptr);
  EXPECT_EQ(rewrites[0].original, join);
  EXPECT_EQ(rewrites[0].routing, ShardRouting::kDisjoint);
  // The splice inherited the downstream edge and disconnected the
  // original (it remains plan-owned as the replica template).
  EXPECT_EQ(rewrites[0].sharded->output(), sink);
  EXPECT_EQ(join->output(), nullptr);

  ShardedOp* sh = rewrites[0].sharded;
  for (int i = 0; i < 100; ++i) {
    sh->Push(Element(T(i, i % 5)), i % 2);
  }
  sh->Flush();
  sh->Flush();
  EXPECT_GT(sink->count(), 0u);
}

TEST(ShardRewriteTest, CountWindowAndOuterJoinRefuse) {
  Plan plan;
  auto count_opts = JoinOpts();
  count_opts.left_window = WindowSpec::CountSliding(10);
  plan.Make<BinaryWindowJoinOp>(count_opts);

  auto outer_opts = JoinOpts();
  outer_opts.left_outer = true;
  outer_opts.right_arity = 3;
  plan.Make<BinaryWindowJoinOp>(outer_opts);

  GroupByOptions global;  // No key columns: one group, all shards.
  plan.Make<GroupByAggregateOp>(global);

  ShardPlanOptions opts;
  opts.shards = 4;
  auto rewrites = ShardStatefulOps(plan, opts);
  ASSERT_EQ(rewrites.size(), 3u);
  for (const auto& rw : rewrites) {
    EXPECT_EQ(rw.sharded, nullptr);
    EXPECT_FALSE(rw.reason.empty());
  }
}

TEST(ShardRewriteTest, ShardsOfOneLeavesPlanUntouched) {
  Plan plan;
  auto* join = plan.Make<BinaryWindowJoinOp>(JoinOpts());
  auto* sink = plan.Make<CollectorSink>();
  join->SetOutput(sink);
  ShardPlanOptions opts;
  opts.shards = 1;
  auto rewrites = ShardStatefulOps(plan, opts);
  ASSERT_EQ(rewrites.size(), 1u);
  EXPECT_EQ(rewrites[0].sharded, nullptr);
  EXPECT_EQ(join->output(), sink);
}

// --- Engine-level (CQL) sharding ---

TupleRef Pkt(int64_t ts, int64_t src, int64_t dst, int64_t len) {
  return MakeTuple(ts, {Value(ts), Value(src), Value(dst), Value(int64_t{1}),
                        Value(int64_t{2}), Value(int64_t{6}), Value(len),
                        Value(int64_t{0}), Value(int64_t{0}), Value("")});
}

/// Runs `query` over the same generated packet workload on a serial and
/// a sharded engine and returns (serial rows, sharded rows).
std::pair<std::multiset<std::string>, std::multiset<std::string>>
RunCqlBothWays(const std::string& query, bool join_inputs, bool also_parallel,
               QueryHandle** sharded_handle_out = nullptr,
               StreamEngine* sharded_engine = nullptr) {
  StreamEngine serial;
  StreamEngine local;
  StreamEngine& shard_eng = sharded_engine != nullptr ? *sharded_engine : local;
  for (StreamEngine* e : {&serial, &shard_eng}) {
    EXPECT_TRUE(e->RegisterStream("syn", gen::PacketSchema()).ok());
    EXPECT_TRUE(e->RegisterStream("synack", gen::PacketSchema()).ok());
  }
  SubmitOptions opts;
  opts.exec.sharding.emplace();
  opts.exec.sharding->shards = 4;
  if (also_parallel) opts.exec.parallel = true;
  auto sq = serial.Submit(query);
  auto pq = shard_eng.Submit(query, opts);
  EXPECT_TRUE(sq.ok()) << sq.status().ToString();
  EXPECT_TRUE(pq.ok()) << pq.status().ToString();
  EXPECT_TRUE((*pq)->sharded());
  if (sharded_handle_out != nullptr) *sharded_handle_out = *pq;

  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    int64_t ts = i / 2;
    TupleRef t = Pkt(ts, static_cast<int64_t>(rng.Uniform(20)),
                     static_cast<int64_t>(rng.Uniform(20)), 100 + i % 50);
    const char* stream =
        join_inputs ? (i % 2 == 0 ? "syn" : "synack") : "syn";
    EXPECT_TRUE(serial.Ingest(stream, t).ok());
    EXPECT_TRUE(shard_eng.Ingest(stream, t).ok());
  }
  serial.FinishAll();
  shard_eng.FinishAll();
  return {Rows((*sq)->results()), Rows((*pq)->results())};
}

TEST(ShardEngineTest, CqlWindowJoinShardedMatchesSerial) {
  auto [serial, sharded] = RunCqlBothWays(
      "select s.ts, a.ts from syn s [range 40], synack a [range 40] "
      "where s.src_ip = a.dst_ip",
      /*join_inputs=*/true, /*also_parallel=*/false);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_EQ(serial, sharded);
}

TEST(ShardEngineTest, CqlGroupByShardedMatchesSerial) {
  auto [serial, sharded] = RunCqlBothWays(
      "select tb, src_ip, count(*), sum(len) from syn "
      "group by ts/60 as tb, src_ip",
      /*join_inputs=*/false, /*also_parallel=*/false);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_EQ(serial, sharded);
}

TEST(ShardEngineTest, ShardingComposesWithParallelExecutor) {
  QueryHandle* h = nullptr;
  StreamEngine eng;
  auto [serial, sharded] = RunCqlBothWays(
      "select s.ts, a.ts from syn s [range 40], synack a [range 40] "
      "where s.src_ip = a.dst_ip",
      /*join_inputs=*/true, /*also_parallel=*/true, &h, &eng);
  EXPECT_EQ(serial, sharded);
  ASSERT_NE(h, nullptr);
  EXPECT_TRUE(h->parallel());
  // Sharded plans run whole-query (one stage): the shard workers, not
  // stage splitting, provide the parallelism.
  EXPECT_EQ(h->parallel_executor()->num_stages(), 1u);
}

TEST(ShardEngineTest, ShardMetricsReachTheRegistry) {
  StreamEngine eng;
  ASSERT_TRUE(eng.RegisterStream("syn", gen::PacketSchema()).ok());
  auto q = eng.Submit(
      "select tb, src_ip, count(*) from syn group by ts/60 as tb, src_ip");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ShardPlanOptions opts;
  opts.shards = 2;
  ASSERT_TRUE(eng.EnableSharding(*q, opts).ok());
  ASSERT_TRUE((*q)->sharded());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(eng.Ingest("syn", Pkt(i, i % 10, 0, 100)).ok());
  }
  // Snapshot while the shard workers are live, then again after drain.
  auto live = eng.Metrics().TakeSnapshot();
  eng.FinishAll();
  auto done = eng.Metrics().TakeSnapshot();

  auto count_samples = [](const obs::Snapshot& s, const std::string& name) {
    size_t n = 0;
    for (const auto& smp : s.samples) {
      if (smp.name == name) ++n;
    }
    return n;
  };
  EXPECT_EQ(count_samples(live, "sqp_shard_routed_total"), 2u);
  EXPECT_EQ(count_samples(done, "sqp_shard_routed_total"), 2u);
  EXPECT_EQ(count_samples(done, "sqp_shard_skew"), 1u);
  double routed = 0;
  for (const auto& smp : done.samples) {
    if (smp.name == "sqp_shard_routed_total") routed += smp.value;
  }
  EXPECT_GE(routed, 500.0);  // 500 tuples + broadcast flush-side puncts.
}

TEST(ShardEngineTest, ExplainAnalyzeOutCountsMatchTee) {
  // The sharded group-by emits from its merge thread, into the merge's
  // slot; its EXPLAIN ANALYZE and registry rows must still report what
  // reached the query's output tee.
  StreamEngine eng;
  ASSERT_TRUE(eng.RegisterStream("syn", gen::PacketSchema()).ok());
  auto q = eng.Submit(
      "select tb, src_ip, count(*) from syn group by ts/60 as tb, src_ip");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ShardPlanOptions opts;
  opts.shards = 2;
  ASSERT_TRUE(eng.EnableSharding(*q, opts).ok());
  ASSERT_EQ((*q)->sharded_ops().size(), 1u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(eng.Ingest("syn", Pkt(i, i % 10, 0, 100)).ok());
    if (i % 100 == 99) {
      ASSERT_TRUE(
          eng.IngestElement("syn", Element(Punctuation::Watermark(i))).ok());
    }
  }
  eng.FinishAll();
  ASSERT_GT((*q)->result_count(), 0u);

  obs::QueryProfile p;
  ASSERT_TRUE(eng.ProfileSnapshot(*q, &p));
  ASSERT_FALSE(p.ops.empty());
  // The root row feeds the tee; each deeper row feeds the row above it.
  EXPECT_EQ(p.ops.front().tuples_out, (*q)->result_count());
  for (size_t i = 1; i < p.ops.size(); ++i) {
    ASSERT_EQ(p.ops[i].depth, p.ops[i - 1].depth + 1) << p.ops[i].op;
    EXPECT_EQ(p.ops[i].tuples_out, p.ops[i - 1].tuples_in) << p.ops[i].op;
  }
  const ShardedOp* sharded = (*q)->sharded_ops()[0];
  bool found = false;
  for (const obs::OpProfileRow& row : p.ops) {
    if (row.op != sharded->name()) continue;
    found = true;
    EXPECT_GT(row.tuples_out, 0u);
    EXPECT_TRUE(row.has_watermark);
    for (const obs::OpSnapshot& o : eng.Metrics().TakeSnapshot().ops) {
      if (o.op == row.op && o.index == row.index) {
        EXPECT_EQ(o.tuples_out, row.tuples_out);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(ShardEngineTest, OrderingGuardsEnforced) {
  StreamEngine eng;
  ASSERT_TRUE(eng.RegisterStream("syn", gen::PacketSchema()).ok());
  SubmitOptions popts;
  popts.exec.parallel = true;
  auto q = eng.Submit(
      "select tb, src_ip, count(*) from syn group by ts/60 as tb, src_ip",
      popts);
  ASSERT_TRUE(q.ok());

  EXPECT_FALSE(eng.EnableSharding(nullptr).ok());
  ShardPlanOptions zero;
  zero.shards = 0;
  EXPECT_FALSE(eng.EnableSharding(*q, zero).ok());

  // Parallel query: sharding must refuse (the stage captured the plan
  // edges the rewrite would move).
  EXPECT_FALSE(eng.EnableSharding(*q).ok());

  // After the first ingest: refuse as well.
  auto q2 = eng.Submit("select ts from syn where len > 0");
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(eng.Ingest("syn", Pkt(1, 1, 1, 10)).ok());
  EXPECT_FALSE(eng.EnableSharding(*q2).ok());
  eng.FinishAll();
}

TEST(ShardEngineTest, StatelessQueryReportsNothingToShard) {
  StreamEngine eng;
  ASSERT_TRUE(eng.RegisterStream("syn", gen::PacketSchema()).ok());
  auto q = eng.Submit("select ts from syn where len > 10");
  ASSERT_TRUE(q.ok());
  EXPECT_TRUE(eng.EnableSharding(*q).ok());
  EXPECT_FALSE((*q)->sharded());  // Nothing stateful: plan untouched.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(eng.Ingest("syn", Pkt(i, 1, 1, 100)).ok());
  }
  eng.FinishAll();
  EXPECT_EQ((*q)->result_count(), 10u);
}

}  // namespace
}  // namespace sqp
