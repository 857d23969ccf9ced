#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/eddy.h"
#include "exec/mjoin.h"
#include "exec/plan.h"
#include "exec/select.h"
#include "stream/generators.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t a, int64_t b = 0) {
  return MakeTuple(ts, {Value(ts), Value(a), Value(b)});
}

// --- EddyOp ---

EddyOp::Options TwoFilters(bool adaptive) {
  EddyOp::Options opt;
  // Filter 0: passes a < 500; filter 1: passes b < 500.
  opt.filters = {{Lt(Col(1), Lit(int64_t{500})), 1.0},
                 {Lt(Col(2), Lit(int64_t{500})), 1.0}};
  opt.adaptive = adaptive;
  opt.reorder_interval = 64;
  return opt;
}

TEST(EddyTest, SameOutputAsStaticOrder) {
  Rng rng(91);
  std::vector<TupleRef> tuples;
  for (int64_t i = 0; i < 5000; ++i) {
    tuples.push_back(T(i, static_cast<int64_t>(rng.Uniform(1000)),
                       static_cast<int64_t>(rng.Uniform(1000))));
  }
  auto run = [&](bool adaptive) {
    Plan plan;
    auto* eddy = plan.Make<EddyOp>(TwoFilters(adaptive));
    auto* sink = plan.Make<CollectorSink>();
    eddy->SetOutput(sink);
    for (const TupleRef& t : tuples) eddy->Push(Element(t));
    std::multiset<std::string> out;
    for (const TupleRef& t : sink->tuples()) out.insert(t->ToString());
    return out;
  };
  EXPECT_EQ(run(true), run(false));  // Adaptivity never changes results.
}

TEST(EddyTest, AdaptsToDriftingSelectivity) {
  // Phase 1: filter 0 is selective (a always >= 500 fails -> drops all).
  // Phase 2: distributions swap. Adaptive routing re-ranks; the static
  // order (initially optimal) becomes wasteful after the drift.
  auto make_stream = [&]() {
    Rng rng(92);
    std::vector<TupleRef> tuples;
    for (int64_t i = 0; i < 20000; ++i) {
      bool phase2 = i >= 10000;
      int64_t a = phase2 ? static_cast<int64_t>(rng.Uniform(499))
                         : 500 + static_cast<int64_t>(rng.Uniform(500));
      int64_t b = phase2 ? 500 + static_cast<int64_t>(rng.Uniform(500))
                         : static_cast<int64_t>(rng.Uniform(499));
      tuples.push_back(T(i, a, b));
    }
    return tuples;
  };
  std::vector<TupleRef> tuples = make_stream();

  auto work = [&](bool adaptive) {
    Plan plan;
    auto* eddy = plan.Make<EddyOp>(TwoFilters(adaptive));
    auto* sink = plan.Make<CountingSink>();
    eddy->SetOutput(sink);
    for (const TupleRef& t : tuples) eddy->Push(Element(t));
    return eddy->work();
  };
  double adaptive_work = work(true);
  double static_work = work(false);
  // Static starts with filter 0 first — optimal in phase 1 but evaluates
  // two predicates per tuple in phase 2. Adaptive re-ranks after drift.
  EXPECT_LT(adaptive_work, static_work * 0.85);
}

TEST(EddyTest, OrderConvergesToRank) {
  // Filter 1 drops everything; filter 0 drops nothing; adaptive order
  // must put filter 1 first once estimates settle.
  EddyOp::Options opt;
  opt.filters = {{Lit(int64_t{1}), 1.0}, {Lit(int64_t{0}), 1.0}};
  opt.reorder_interval = 32;
  Plan plan;
  auto* eddy = plan.Make<EddyOp>(opt);
  auto* sink = plan.Make<CountingSink>();
  eddy->SetOutput(sink);
  for (int64_t i = 0; i < 1000; ++i) eddy->Push(Element(T(i, 0)));
  EXPECT_EQ(eddy->order()[0], 1u);
  EXPECT_LT(eddy->selectivity_estimate(1), 0.05);
  EXPECT_GT(eddy->selectivity_estimate(0), 0.95);
  EXPECT_EQ(sink->tuples(), 0u);  // Filter 1 rejects everything.
}

TEST(EddyTest, PunctuationsPass) {
  Plan plan;
  auto* eddy = plan.Make<EddyOp>(TwoFilters(true));
  auto* sink = plan.Make<CollectorSink>();
  eddy->SetOutput(sink);
  eddy->Push(Element(Punctuation::Watermark(5)));
  EXPECT_EQ(sink->punctuations().size(), 1u);
}

// --- MultiWindowJoinOp ---

MultiWindowJoinOp::Options ThreeWay(int64_t w, bool adaptive) {
  MultiWindowJoinOp::Options opt;
  opt.streams = {{1, w}, {1, w}, {1, w}};
  opt.adaptive_order = adaptive;
  return opt;
}

TEST(MJoinTest, ThreeWayMatchesBruteForce) {
  Rng rng(93);
  std::vector<std::pair<int, TupleRef>> inputs;
  int64_t ts = 0;
  for (int i = 0; i < 600; ++i) {
    ts += static_cast<int64_t>(rng.Uniform(2));
    inputs.emplace_back(static_cast<int>(rng.Uniform(3)),
                        T(ts, static_cast<int64_t>(rng.Uniform(8)), i));
  }
  const int64_t w = 30;

  Plan plan;
  auto* mjoin = plan.Make<MultiWindowJoinOp>(ThreeWay(w, true));
  auto* sink = plan.Make<CollectorSink>();
  mjoin->SetOutput(sink);
  for (auto& [side, t] : inputs) mjoin->Push(Element(t), side);

  // Brute force: for each arrival, scan both other streams' windows.
  std::multiset<std::string> expect;
  std::vector<std::vector<TupleRef>> seen(3);
  for (auto& [side, t] : inputs) {
    int64_t key = t->at(1).AsInt();
    std::vector<std::vector<const Tuple*>> matches(3);
    bool any_empty = false;
    for (int s = 0; s < 3; ++s) {
      if (s == side) continue;
      for (const TupleRef& o : seen[static_cast<size_t>(s)]) {
        if (o->ts() > t->ts() - w && o->at(1).AsInt() == key) {
          matches[static_cast<size_t>(s)].push_back(o.get());
        }
      }
      if (matches[static_cast<size_t>(s)].empty()) any_empty = true;
    }
    if (!any_empty) {
      // Cross product in stream order.
      std::vector<const Tuple*> parts(3);
      parts[static_cast<size_t>(side)] = t.get();
      int s1 = -1, s2 = -1;
      for (int s = 0; s < 3; ++s) {
        if (s == side) continue;
        (s1 < 0 ? s1 : s2) = s;
      }
      for (const Tuple* a : matches[static_cast<size_t>(s1)]) {
        for (const Tuple* b : matches[static_cast<size_t>(s2)]) {
          parts[static_cast<size_t>(s1)] = a;
          parts[static_cast<size_t>(s2)] = b;
          std::vector<Value> row;
          for (const Tuple* p : parts) {
            row.insert(row.end(), p->values().begin(), p->values().end());
          }
          expect.insert(Tuple(t->ts(), row).ToString());
        }
      }
    }
    seen[static_cast<size_t>(side)].push_back(t);
  }

  std::multiset<std::string> got;
  for (const TupleRef& t : sink->tuples()) got.insert(t->ToString());
  EXPECT_EQ(got, expect);
}

TEST(MJoinTest, AdaptiveOrderReducesPartialWork) {
  // Stream 2's matches are rare; probing it first prunes early.
  Rng rng(94);
  std::vector<std::pair<int, TupleRef>> inputs;
  int64_t ts = 0;
  for (int i = 0; i < 4000; ++i) {
    ++ts;
    int side = static_cast<int>(rng.Uniform(3));
    // Stream 2 uses a wider key domain -> fewer matches per key.
    int64_t key = side == 2 ? static_cast<int64_t>(rng.Uniform(40))
                            : static_cast<int64_t>(rng.Uniform(4));
    inputs.emplace_back(side, T(ts, key, i));
  }
  auto partials = [&](bool adaptive) {
    Plan plan;
    auto* mjoin = plan.Make<MultiWindowJoinOp>(ThreeWay(500, adaptive));
    auto* sink = plan.Make<CountingSink>();
    mjoin->SetOutput(sink);
    for (auto& [side, t] : inputs) mjoin->Push(Element(t), side);
    return std::make_pair(mjoin->partial_results(), mjoin->results());
  };
  auto [adaptive_partials, r1] = partials(true);
  auto [fixed_partials, r2] = partials(false);
  EXPECT_EQ(r1, r2);  // Same join results.
  EXPECT_LT(adaptive_partials, fixed_partials);
}

TEST(MJoinTest, PunctuationPurgesAllWindows) {
  Plan plan;
  auto* mjoin = plan.Make<MultiWindowJoinOp>(ThreeWay(10, true));
  auto* sink = plan.Make<CollectorSink>();
  mjoin->SetOutput(sink);
  mjoin->Push(Element(T(1, 1)), 0);
  mjoin->Push(Element(T(2, 1)), 1);
  size_t before = mjoin->StateBytes();
  mjoin->Push(Element(Punctuation::Watermark(1000)), 0);
  EXPECT_LT(mjoin->StateBytes(), before);
  // A later matching triple must not see the purged tuples.
  mjoin->Push(Element(T(1001, 1)), 2);
  EXPECT_EQ(sink->count(), 0u);
}

TEST(MJoinTest, InWindowDisorderExpiresByTimestamp) {
  // Stream 0 sends ts 100 then 95, both inside its [range 10] window;
  // stream 1's ts 106 expires 95 though it arrived last.
  MultiWindowJoinOp::Options opt;
  opt.streams = {{1, 10}, {1, 10}};
  Plan plan;
  auto* mjoin = plan.Make<MultiWindowJoinOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  mjoin->SetOutput(sink);
  mjoin->Push(Element(T(100, 7)), 0);
  mjoin->Push(Element(T(95, 7)), 0);
  mjoin->Push(Element(T(106, 7)), 1);
  ASSERT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->at(0).AsInt(), 100);
}

TEST(MJoinTest, TwoWayDegeneratesToBinaryJoin) {
  MultiWindowJoinOp::Options opt;
  opt.streams = {{1, 100}, {1, 100}};
  Plan plan;
  auto* mjoin = plan.Make<MultiWindowJoinOp>(opt);
  auto* sink = plan.Make<CollectorSink>();
  mjoin->SetOutput(sink);
  mjoin->Push(Element(T(1, 7)), 0);
  mjoin->Push(Element(T(2, 7)), 1);
  mjoin->Push(Element(T(3, 8)), 1);
  EXPECT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->arity(), 6u);
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

// --- Punctuation-closed GroupByAggregateOp ---

TEST(PunctGroupByTest, CloseKeyEmitsGroup) {
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(PunctuatedBy(
      1, std::vector<AggSpec>{{AggKind::kCount, -1, 0.5},
                              {AggKind::kMax, 2, 0.5}}));
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);
  gb->Push(Element(T(1, 7, 10)));
  gb->Push(Element(T(2, 7, 30)));
  gb->Push(Element(T(3, 8, 5)));
  EXPECT_EQ(sink->count(), 0u);
  gb->Push(Element(Punctuation::CloseKey(4, Value(int64_t{7}))));
  ASSERT_EQ(sink->count(), 1u);
  const TupleRef& row = sink->tuples()[0];
  EXPECT_EQ(row->ts(), 4);
  EXPECT_EQ(row->at(1).AsInt(), 7);   // Key.
  EXPECT_EQ(row->at(2).AsInt(), 2);   // count.
  EXPECT_EQ(row->at(3).AsInt(), 30);  // max.
  EXPECT_EQ(gb->open_groups(), 1u);
}

TEST(PunctGroupByTest, WatermarkClosesQuietGroups) {
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(PunctuatedBy(
      1, std::vector<AggSpec>{{AggKind::kCount, -1, 0.5}}));
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);
  gb->Push(Element(T(1, 7, 0)));
  gb->Push(Element(T(9, 8, 0)));
  gb->Push(Element(Punctuation::Watermark(5)));
  ASSERT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->at(1).AsInt(), 7);
}

TEST(PunctGroupByTest, FlushClosesRemaining) {
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(PunctuatedBy(
      1, std::vector<AggSpec>{{AggKind::kCount, -1, 0.5}}));
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);
  gb->Push(Element(T(1, 1, 0)));
  gb->Push(Element(T(2, 2, 0)));
  gb->Flush();
  EXPECT_EQ(sink->count(), 2u);
  EXPECT_EQ(gb->open_groups(), 0u);
}

TEST(PunctGroupByTest, AuctionWinningBids) {
  // The slide-28 workload end-to-end: max bid per auction, emitted the
  // moment the auction's close punctuation arrives.
  gen::AuctionGenerator auctions(gen::AuctionOptions{});
  Plan plan;
  auto* gb = plan.Make<GroupByAggregateOp>(PunctuatedBy(
      gen::AuctionCols::kAuctionId,
      std::vector<AggSpec>{{AggKind::kMax, gen::AuctionCols::kAmount, 0.5},
                           {AggKind::kCount, -1, 0.5}}));
  auto* sink = plan.Make<CollectorSink>();
  gb->SetOutput(sink);

  std::map<int64_t, double> truth_max;
  std::map<int64_t, int64_t> truth_bids;
  int punct_count = 0;
  for (int i = 0; i < 20000; ++i) {
    Element e = auctions.Next();
    if (e.is_tuple()) {
      int64_t id = e.tuple()->at(gen::AuctionCols::kAuctionId).AsInt();
      truth_max[id] = std::max(truth_max[id],
                               e.tuple()->at(gen::AuctionCols::kAmount).AsDouble());
      truth_bids[id]++;
    } else {
      ++punct_count;
    }
    gb->Push(e);
  }
  EXPECT_GT(punct_count, 100);
  // Every emitted row matches ground truth.
  EXPECT_EQ(sink->count(), static_cast<size_t>(punct_count));
  for (const TupleRef& row : sink->tuples()) {
    int64_t id = row->at(1).AsInt();
    EXPECT_DOUBLE_EQ(row->at(2).AsDouble(), truth_max[id]);
    EXPECT_EQ(row->at(3).AsInt(), truth_bids[id]);
  }
  // Memory tracks open auctions only.
  EXPECT_LE(gb->open_groups(), 8u);
}

}  // namespace
}  // namespace sqp
