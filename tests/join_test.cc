#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dur/codec.h"
#include "exec/merge_join.h"
#include "exec/plan.h"
#include "exec/window_join.h"
#include "exec/xjoin.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t key, int64_t payload = 0) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(payload)});
}

// --- Symmetric hash join ---

TEST(SymHashJoinTest, JoinsAcrossArrivalOrders) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(
      BinaryWindowJoinOp::Options::Unwindowed({1}, {1}));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);

  j->Push(Element(T(1, 7)), 0);
  EXPECT_EQ(sink->count(), 0u);
  j->Push(Element(T(2, 7)), 1);  // Matches the earlier left tuple.
  ASSERT_EQ(sink->count(), 1u);
  EXPECT_EQ(sink->tuples()[0]->arity(), 6u);
  EXPECT_EQ(sink->tuples()[0]->ts(), 2);  // max of the two.
  j->Push(Element(T(3, 7)), 0);  // Matches the right tuple too.
  EXPECT_EQ(sink->count(), 2u);
}

TEST(SymHashJoinTest, NoSelfJoinWithinOneSide) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(
      BinaryWindowJoinOp::Options::Unwindowed({1}, {1}));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  j->Push(Element(T(1, 7)), 0);
  j->Push(Element(T(2, 7)), 0);
  EXPECT_EQ(sink->count(), 0u);
}

TEST(SymHashJoinTest, CrossProductOfEqualKeys) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(
      BinaryWindowJoinOp::Options::Unwindowed({1}, {1}));
  auto* sink = plan.Make<CountingSink>();
  j->SetOutput(sink);
  for (int i = 0; i < 3; ++i) j->Push(Element(T(i, 1)), 0);
  for (int i = 0; i < 4; ++i) j->Push(Element(T(10 + i, 1)), 1);
  EXPECT_EQ(sink->tuples(), 12u);
}

TEST(SymHashJoinTest, StateGrowsUnbounded) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(
      BinaryWindowJoinOp::Options::Unwindowed({1}, {1}));
  auto* sink = plan.Make<CountingSink>();
  j->SetOutput(sink);
  size_t s0 = j->StateBytes();
  for (int64_t i = 0; i < 1000; ++i) j->Push(Element(T(i, i)), 0);
  EXPECT_GT(j->StateBytes(), s0 + 1000 * 32);
}

// --- Binary window join [KNV03] ---

BinaryWindowJoinOp::Options JoinOpts(JoinStrategy ls, JoinStrategy rs,
                                     int64_t w1 = 100, int64_t w2 = 100) {
  BinaryWindowJoinOp::Options o;
  o.left_cols = {1};
  o.right_cols = {1};
  o.left_window = WindowSpec::TimeSliding(w1);
  o.right_window = WindowSpec::TimeSliding(w2);
  o.left_strategy = ls;
  o.right_strategy = rs;
  return o;
}

TEST(WindowJoinTest, MatchesWithinWindowOnly) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(
      JoinOpts(JoinStrategy::kHash, JoinStrategy::kHash, 10, 10));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);

  j->Push(Element(T(1, 5)), 0);
  j->Push(Element(T(5, 5)), 1);  // In window: match.
  EXPECT_EQ(sink->count(), 1u);
  j->Push(Element(T(50, 5)), 1);  // Left tuple long expired: no match.
  EXPECT_EQ(sink->count(), 1u);
}

TEST(WindowJoinTest, LateTupleNeverJoins) {
  // Left ts 80 arrives after ts 100 on the same key: it is already
  // outside the left [range 10] window, so it leaves on arrival and the
  // right tuple at 100 meets only the left tuple at 100, whichever way
  // the left side is probed.
  for (JoinStrategy s : {JoinStrategy::kHash, JoinStrategy::kNestedLoop}) {
    Plan plan;
    auto* j = plan.Make<BinaryWindowJoinOp>(JoinOpts(s, s, 10, 10));
    auto* sink = plan.Make<CollectorSink>();
    j->SetOutput(sink);
    j->Push(Element(T(100, 5)), 0);
    j->Push(Element(T(80, 5)), 0);
    j->Push(Element(T(100, 5)), 1);
    ASSERT_EQ(sink->count(), 1u) << static_cast<int>(s);
    EXPECT_EQ(sink->tuples()[0]->at(0).AsInt(), 100);
  }
}

TEST(WindowJoinTest, InWindowDisorderExpiresByTimestamp) {
  // Left ts 95 arrives after ts 100 on the same key, inside the left
  // [range 10] window (91, 100]. The right tuple at 106 moves the window
  // to (96, 106]: 95 has left it though it arrived last, so only the left
  // tuple at 100 joins, whichever way the left side is probed.
  for (JoinStrategy s : {JoinStrategy::kHash, JoinStrategy::kNestedLoop}) {
    Plan plan;
    auto* j = plan.Make<BinaryWindowJoinOp>(JoinOpts(s, s, 10, 10));
    auto* sink = plan.Make<CollectorSink>();
    j->SetOutput(sink);
    j->Push(Element(T(100, 5)), 0);
    j->Push(Element(T(95, 5)), 0);
    j->Push(Element(T(106, 5)), 1);
    ASSERT_EQ(sink->count(), 1u) << JoinStrategyName(s);
    EXPECT_EQ(sink->tuples()[0]->at(0).AsInt(), 100);
  }
}

TEST(WindowJoinTest, CountWindows) {
  BinaryWindowJoinOp::Options o;
  o.left_cols = {1};
  o.right_cols = {1};
  o.left_window = WindowSpec::CountSliding(2);
  o.right_window = WindowSpec::CountSliding(2);
  o.left_strategy = o.right_strategy = JoinStrategy::kNestedLoop;
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(o);
  auto* sink = plan.Make<CountingSink>();
  j->SetOutput(sink);
  // Three left tuples with key 1; window keeps last 2.
  for (int64_t i = 0; i < 3; ++i) j->Push(Element(T(i, 1)), 0);
  j->Push(Element(T(10, 1)), 1);
  EXPECT_EQ(sink->tuples(), 2u);
}

TEST(WindowJoinTest, PunctuationPurgesState) {
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(
      JoinOpts(JoinStrategy::kHash, JoinStrategy::kHash, 10, 10));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  j->Push(Element(T(1, 5)), 0);
  size_t before = j->StateBytes();
  j->Push(Element(Punctuation::Watermark(100)), 0);
  EXPECT_LT(j->StateBytes(), before);
}

// All four strategy combinations must produce identical results — the
// strategies trade CPU vs memory, never correctness (slide 33).
struct StrategyCombo {
  JoinStrategy left, right;
};

class StrategyEquivalenceTest : public ::testing::TestWithParam<StrategyCombo> {
};

TEST_P(StrategyEquivalenceTest, SameResultsAsReference) {
  auto combo = GetParam();
  Rng rng(31);
  std::vector<std::pair<int, TupleRef>> inputs;  // (side, tuple)
  int64_t ts = 0;
  for (int i = 0; i < 800; ++i) {
    ts += static_cast<int64_t>(rng.Uniform(3));
    inputs.emplace_back(rng.Bernoulli(0.5) ? 0 : 1,
                        T(ts, static_cast<int64_t>(rng.Uniform(20)), i));
  }

  auto run = [&](JoinStrategy ls, JoinStrategy rs) {
    Plan plan;
    auto* j = plan.Make<BinaryWindowJoinOp>(JoinOpts(ls, rs, 25, 40));
    auto* sink = plan.Make<CollectorSink>();
    j->SetOutput(sink);
    for (auto& [side, t] : inputs) j->Push(Element(t), side);
    std::multiset<std::string> results;
    for (const TupleRef& t : sink->tuples()) results.insert(t->ToString());
    return results;
  };

  auto reference = run(JoinStrategy::kHash, JoinStrategy::kHash);
  auto got = run(combo.left, combo.right);
  EXPECT_EQ(reference, got);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, StrategyEquivalenceTest,
    ::testing::Values(StrategyCombo{JoinStrategy::kNestedLoop,
                                    JoinStrategy::kNestedLoop},
                      StrategyCombo{JoinStrategy::kHash,
                                    JoinStrategy::kNestedLoop},
                      StrategyCombo{JoinStrategy::kNestedLoop,
                                    JoinStrategy::kHash}),
    [](const auto& info) {
      auto clean = [](std::string s) {
        for (char& c : s) {
          if (c == '-') c = '_';
        }
        return s;
      };
      return clean(JoinStrategyName(info.param.left)) + "_" +
             clean(JoinStrategyName(info.param.right));
    });

TEST(WindowJoinTest, HashUsesMoreMemoryLessCpu) {
  Rng rng(32);
  std::vector<std::pair<int, TupleRef>> inputs;
  int64_t ts = 0;
  for (int i = 0; i < 2000; ++i) {
    ts += 1;
    inputs.emplace_back(i % 2, T(ts, static_cast<int64_t>(rng.Uniform(50))));
  }
  auto run = [&](JoinStrategy s) {
    Plan plan;
    auto* j = plan.Make<BinaryWindowJoinOp>(JoinOpts(s, s, 200, 200));
    auto* sink = plan.Make<CountingSink>();
    j->SetOutput(sink);
    size_t peak_mem = 0;
    for (auto& [side, t] : inputs) {
      j->Push(Element(t), side);
      peak_mem = std::max(peak_mem, j->StateBytes());
    }
    return std::make_pair(peak_mem, j->join_stats());
  };
  auto [hash_mem, hash_stats] = run(JoinStrategy::kHash);
  auto [nl_mem, nl_stats] = run(JoinStrategy::kNestedLoop);
  EXPECT_GT(hash_mem, nl_mem);                       // Index costs memory.
  EXPECT_EQ(nl_stats.hash_probes, 0u);
  EXPECT_GT(nl_stats.nl_comparisons, hash_stats.hash_probes * 10);
  EXPECT_EQ(hash_stats.results, nl_stats.results);   // Same output.
}

TEST(WindowJoinTest, HashStateExceedsNestedLoopOnlyByIndex) {
  // The index and the window share each TupleRef: a hash side costs its
  // window plus per-entry and per-reference index overhead, not the
  // window's tuples twice.
  constexpr int64_t kKeys = 50;
  constexpr int64_t kRange = 200;
  Rng rng(33);
  std::vector<std::pair<int, TupleRef>> inputs;
  for (int64_t ts = 1; ts <= 2000; ++ts) {
    int64_t key = static_cast<int64_t>(rng.Uniform(kKeys));
    inputs.emplace_back(ts % 2, T(ts, key, ts * 1000));
  }
  auto final_state = [&](JoinStrategy s) {
    Plan plan;
    auto* j = plan.Make<BinaryWindowJoinOp>(JoinOpts(s, s, kRange, kRange));
    auto* sink = plan.Make<CountingSink>();
    j->SetOutput(sink);
    for (auto& [side, t] : inputs) j->Push(Element(t), side);
    return j->StateBytes();
  };
  const size_t hash = final_state(JoinStrategy::kHash);
  const size_t nl = final_state(JoinStrategy::kNestedLoop);
  // Both windows end at the last ts, holding (now - range, now].
  const int64_t now = inputs.back().second->ts();
  size_t in_window = 0, window_bytes = 0;
  for (auto& [side, t] : inputs) {
    if (t->ts() > now - kRange) {
      ++in_window;
      window_bytes += t->MemoryBytes();
    }
  }
  ASSERT_GT(hash, nl);
  const size_t index = hash - nl;
  EXPECT_GE(index, in_window * sizeof(TupleRef));
  // At most every key, live or spare, on each side.
  EXPECT_LE(index, in_window * sizeof(TupleRef) + 2 * kKeys * 48);
  EXPECT_LT(index, window_bytes);
}

// --- Ordered merge (band) join ---

TEST(MergeJoinTest, BandZeroIsTsEquijoin) {
  OrderedMergeJoinOp::Options o;
  o.band = 0;
  Plan plan;
  auto* j = plan.Make<OrderedMergeJoinOp>(o);
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  j->Push(Element(T(1, 0)), 0);
  j->Push(Element(T(1, 1)), 1);
  j->Push(Element(T(2, 2)), 1);
  EXPECT_EQ(sink->count(), 1u);
}

TEST(MergeJoinTest, BandAdmitsNearbyTimestamps) {
  OrderedMergeJoinOp::Options o;
  o.band = 5;
  Plan plan;
  auto* j = plan.Make<OrderedMergeJoinOp>(o);
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  j->Push(Element(T(10, 0)), 0);
  j->Push(Element(T(13, 1)), 1);  // |13-10| <= 5: match.
  j->Push(Element(T(20, 2)), 1);  // Too far.
  EXPECT_EQ(sink->count(), 1u);
}

TEST(MergeJoinTest, ExtraEquiColumns) {
  OrderedMergeJoinOp::Options o;
  o.band = 100;
  o.left_cols = {1};
  o.right_cols = {1};
  Plan plan;
  auto* j = plan.Make<OrderedMergeJoinOp>(o);
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  j->Push(Element(T(1, 7)), 0);
  j->Push(Element(T(2, 7)), 1);
  j->Push(Element(T(3, 8)), 1);  // Key mismatch.
  EXPECT_EQ(sink->count(), 1u);
}

TEST(MergeJoinTest, StateBoundedByBand) {
  OrderedMergeJoinOp::Options o;
  o.band = 10;
  Plan plan;
  auto* j = plan.Make<OrderedMergeJoinOp>(o);
  auto* sink = plan.Make<CountingSink>();
  j->SetOutput(sink);
  // Advance both sides in lockstep; buffers must stay small.
  for (int64_t t = 0; t < 5000; ++t) {
    j->Push(Element(T(t, 0)), 0);
    j->Push(Element(T(t, 1)), 1);
    EXPECT_LT(j->StateBytes(), 50000u);
  }
}

// --- XJoin ---

TEST(XJoinTest, UnboundedBudgetEqualsSymHash) {
  XJoinOp::Options o;
  o.left_cols = {1};
  o.right_cols = {1};
  o.memory_budget_bytes = 0;
  Plan plan;
  auto* j = plan.Make<XJoinOp>(o);
  auto* sink = plan.Make<CountingSink>();
  j->SetOutput(sink);
  Rng rng(33);
  for (int i = 0; i < 500; ++i) {
    j->Push(Element(T(i, static_cast<int64_t>(rng.Uniform(10)))), i % 2);
  }
  j->Flush();
  j->Flush();
  EXPECT_EQ(j->spilled_tuples(), 0u);
  EXPECT_EQ(j->disk_stage_results(), 0u);
  EXPECT_GT(j->memory_stage_results(), 0u);
}

TEST(XJoinTest, SpillPreservesExactResults) {
  Rng rng(34);
  std::vector<std::pair<int, TupleRef>> inputs;
  for (int i = 0; i < 1000; ++i) {
    inputs.emplace_back(i % 2, T(i, static_cast<int64_t>(rng.Uniform(30)), i));
  }
  auto run = [&](size_t budget) {
    XJoinOp::Options o;
    o.left_cols = {1};
    o.right_cols = {1};
    o.memory_budget_bytes = budget;
    Plan plan;
    auto* j = plan.Make<XJoinOp>(o);
    auto* sink = plan.Make<CollectorSink>();
    j->SetOutput(sink);
    for (auto& [side, t] : inputs) j->Push(Element(t), side);
    j->Flush();
    j->Flush();
    std::multiset<std::string> results;
    for (const TupleRef& t : sink->tuples()) results.insert(t->ToString());
    return std::make_pair(results, j->spilled_tuples());
  };
  auto [unbounded_results, no_spills] = run(0);
  auto [bounded_results, spills] = run(20000);
  EXPECT_EQ(no_spills, 0u);
  EXPECT_GT(spills, 0u);
  EXPECT_EQ(unbounded_results, bounded_results);  // No dupes, no losses.
}

TEST(XJoinTest, TighterBudgetMoreDiskIo) {
  Rng rng(35);
  std::vector<std::pair<int, TupleRef>> inputs;
  for (int i = 0; i < 1000; ++i) {
    inputs.emplace_back(i % 2, T(i, static_cast<int64_t>(rng.Uniform(30))));
  }
  auto disk_io = [&](size_t budget) {
    XJoinOp::Options o;
    o.left_cols = {1};
    o.right_cols = {1};
    o.memory_budget_bytes = budget;
    Plan plan;
    auto* j = plan.Make<XJoinOp>(o);
    auto* sink = plan.Make<CountingSink>();
    j->SetOutput(sink);
    for (auto& [side, t] : inputs) j->Push(Element(t), side);
    j->Flush();
    j->Flush();
    return j->disk_write_bytes() + j->disk_read_bytes();
  };
  EXPECT_GT(disk_io(10000), disk_io(50000));
}

// --- Landmark windows and checkpoints ---

TEST(WindowJoinTest, LandmarkJoinTakesAnyArrivalOrder) {
  // Timestamps run backwards and interleave across sides; a landmark
  // side never expires, so every equal-key pair across sides joins.
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(
      BinaryWindowJoinOp::Options::Unwindowed({1}, {1}));
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  std::string why;
  EXPECT_TRUE(j->CanShard(&why)) << why;
  Rng rng(40);
  int64_t left[3] = {0, 0, 0};
  int64_t right[3] = {0, 0, 0};
  uint64_t pairs = 0;
  size_t tuple_bytes = 0;
  for (int64_t i = 0; i < 300; ++i) {
    const int64_t key = static_cast<int64_t>(rng.Uniform(3));
    const int side = rng.Uniform(2) == 0 ? 0 : 1;
    pairs += static_cast<uint64_t>(side == 0 ? right[key] : left[key]);
    ++(side == 0 ? left : right)[key];
    TupleRef t = T(1000 - i * 7 % 500, key);
    tuple_bytes += t->MemoryBytes();
    j->Push(Element(t), side);
    if (i % 40 == 0) j->Push(Element(Punctuation::Watermark(2000)), 0);
  }
  EXPECT_EQ(sink->count(), pairs);
  // Every tuple is retained, and counted, however the state is held.
  EXPECT_GE(j->StateBytes(), tuple_bytes);
  EXPECT_EQ(sink->punctuations().size(), 8u);
  for (const TupleRef& row : sink->tuples()) {
    EXPECT_EQ(row->ts(), std::max(row->at(0).AsInt(), row->at(3).AsInt()));
  }
}

TEST(WindowJoinTest, LandmarkOuterNestedLoopSeesWholeHistory) {
  // Left outer over a left landmark side (drained at end of stream) and
  // a nested-loop right landmark side: key 3 never arrives on the
  // right, so exactly its left tuples come out padded, in arrival order.
  auto o = BinaryWindowJoinOp::Options::Unwindowed({1}, {1});
  o.left_outer = true;
  o.right_arity = 3;
  o.right_strategy = JoinStrategy::kNestedLoop;
  Plan plan;
  auto* j = plan.Make<BinaryWindowJoinOp>(o);
  auto* sink = plan.Make<CollectorSink>();
  j->SetOutput(sink);
  Rng rng(42);
  int64_t left[4] = {0, 0, 0, 0};
  int64_t right[4] = {0, 0, 0, 0};
  uint64_t pairs = 0;
  std::vector<int64_t> unmatched_ts;
  for (int64_t i = 0; i < 300; ++i) {
    const int side = rng.Uniform(2) == 0 ? 0 : 1;
    const int64_t key = static_cast<int64_t>(rng.Uniform(side == 0 ? 4 : 3));
    const int64_t ts = 1000 - i * 7 % 500;
    pairs += static_cast<uint64_t>(side == 0 ? right[key] : left[key]);
    ++(side == 0 ? left : right)[key];
    if (side == 0 && key == 3) unmatched_ts.push_back(ts);
    j->Push(Element(T(ts, key)), side);
  }
  j->Flush();
  j->Flush();
  ASSERT_GT(unmatched_ts.size(), 0u);
  EXPECT_EQ(j->join_stats().results, pairs);
  EXPECT_EQ(j->join_stats().unmatched_left, unmatched_ts.size());
  std::vector<int64_t> padded_ts;
  for (const TupleRef& row : sink->tuples()) {
    if (row->at(3).is_null()) padded_ts.push_back(row->ts());
  }
  EXPECT_EQ(padded_ts, unmatched_ts);
}

std::vector<std::string> RowStrings(const CollectorSink& sink) {
  std::vector<std::string> rows;
  for (const TupleRef& t : sink.tuples()) rows.push_back(t->ToString());
  return rows;
}

TEST(WindowJoinTest, RestoredJoinContinuesRowForRow) {
  auto outer = JoinOpts(JoinStrategy::kHash, JoinStrategy::kNestedLoop, 30,
                        50);
  outer.left_outer = true;
  outer.right_arity = 3;
  auto counts = JoinOpts(JoinStrategy::kNestedLoop, JoinStrategy::kHash);
  counts.left_window = WindowSpec::CountSliding(7);
  counts.right_window = WindowSpec::CountSliding(5);
  counts.left_outer = true;
  counts.right_arity = 3;
  // Landmark sides: hash-probed, held by the index alone; and kept in
  // arrival order, for the outer drain (left) and a nested-loop scan
  // (right).
  auto landmark_outer = BinaryWindowJoinOp::Options::Unwindowed({1}, {1});
  landmark_outer.left_outer = true;
  landmark_outer.right_arity = 3;
  landmark_outer.right_strategy = JoinStrategy::kNestedLoop;
  const std::pair<const char*, BinaryWindowJoinOp::Options> cases[] = {
      {"time, outer", outer},
      {"count, outer", counts},
      {"landmark", BinaryWindowJoinOp::Options::Unwindowed({1}, {1})},
      {"landmark, outer", landmark_outer},
  };
  // Slightly disordered timestamps, a watermark every 50 elements, and
  // one watermark far ahead that empties the time windows and makes the
  // next tuples late: only the saved clock tells a restored join so.
  Rng rng(41);
  std::vector<std::pair<Element, int>> input;
  size_t after_jump = 0;
  for (int64_t i = 0; i < 600; ++i) {
    const int64_t ts = i / 2 + static_cast<int64_t>(rng.Uniform(4));
    input.emplace_back(
        Element(T(ts, static_cast<int64_t>(rng.Uniform(9)), i)),
        static_cast<int>(rng.Uniform(2)));
    if (i % 50 == 49) {
      input.emplace_back(Element(Punctuation::Watermark(i / 2)), 0);
    }
    if (i == 300) {
      input.emplace_back(Element(Punctuation::Watermark(i / 2 + 100)), 0);
      after_jump = input.size();
    }
  }
  auto feed = [&](BinaryWindowJoinOp* j, size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) j->Push(input[i].first, input[i].second);
  };
  for (const auto& [name, opt] : cases) {
    SCOPED_TRACE(name);
    Plan ref_plan;
    auto* ref = ref_plan.Make<BinaryWindowJoinOp>(opt);
    auto* ref_sink = ref_plan.Make<CollectorSink>();
    ref->SetOutput(ref_sink);
    feed(ref, 0, input.size());
    ref->Flush();
    ref->Flush();
    ASSERT_GT(ref_sink->count(), 0u);
    // Restored from a post-flush checkpoint and flushed again, as
    // recovering a finished run does, the join adds no rows.
    dur::BufWriter done;
    ref->SaveState(done);
    auto* again = ref_plan.Make<BinaryWindowJoinOp>(opt);
    auto* again_sink = ref_plan.Make<CollectorSink>();
    again->SetOutput(again_sink);
    dur::BufReader done_reader(done.data());
    ASSERT_TRUE(again->RestoreState(done_reader).ok());
    again->Flush();
    again->Flush();
    EXPECT_EQ(again_sink->count(), 0u);

    for (size_t split : {size_t{0}, size_t{137}, after_jump, input.size()}) {
      SCOPED_TRACE(split);
      Plan plan;
      auto* before = plan.Make<BinaryWindowJoinOp>(opt);
      auto* after = plan.Make<BinaryWindowJoinOp>(opt);
      auto* sink = plan.Make<CollectorSink>();
      before->SetOutput(sink);
      after->SetOutput(sink);
      feed(before, 0, split);
      dur::BufWriter w;
      before->SaveState(w);
      const size_t emitted = sink->count();
      dur::BufReader r(w.data());
      ASSERT_TRUE(after->RestoreState(r).ok());
      EXPECT_TRUE(r.done());
      EXPECT_EQ(sink->count(), emitted);  // Restore emits nothing.
      feed(after, split, input.size());
      after->Flush();
      after->Flush();
      EXPECT_EQ(RowStrings(*sink), RowStrings(*ref_sink));
    }
  }
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

// The join's checkpoint bytes, pinned: a checkpoint written before its
// sides shared one window buffer still restores, and saves again the
// same. One configuration per side kind: time (an outer left side, with
// its matched flags), count, landmark kept in arrival order, and landmark
// held by its index alone (fed one key, so no hash order shows).
TEST(WindowJoinTest, SavedStateBytesArePinned) {
  auto time = JoinOpts(JoinStrategy::kHash, JoinStrategy::kNestedLoop, 4, 6);
  time.left_outer = true;
  time.right_arity = 3;
  auto count = JoinOpts(JoinStrategy::kHash, JoinStrategy::kHash);
  count.left_window = WindowSpec::CountSliding(2);
  count.right_window = WindowSpec::CountSliding(3);
  auto logged = BinaryWindowJoinOp::Options::Unwindowed({1}, {1});
  logged.left_outer = true;
  logged.right_arity = 3;
  logged.right_strategy = JoinStrategy::kNestedLoop;
  const auto index_only = BinaryWindowJoinOp::Options::Unwindowed({1}, {1});
  struct Case {
    const char* name;
    BinaryWindowJoinOp::Options opt;
    bool one_key;
    const char* hex;
  };
  const Case cases[] = {
      {"time", time, false,
       "574a4e310000000000000000000d00000000000000010000000d000000000000"
       "0003000000010d00000000000000010700000000000000018200000000000000"
       "01000d00000000000000020000000a0000000000000003000000010a00000000"
       "0000000108000000000000000164000000000000000c00000000000000030000"
       "00010c00000000000000010700000000000000017800000000000000"},
      {"count", count, false,
       "574a4e3100000000000000000302000000090000000000000003000000010900"
       "000000000000010700000000000000015a000000000000000d00000000000000"
       "03000000010d0000000000000001070000000000000001820000000000000003"
       "0300000005000000000000000300000001050000000000000001070000000000"
       "00000132000000000000000a0000000000000003000000010a00000000000000"
       "0108000000000000000164000000000000000c0000000000000003000000010c"
       "00000000000000010700000000000000017800000000000000"},
      {"landmark, logged", logged, false,
       "574a4e3100000000000000000205000000010000000000000003000000010100"
       "000000000000010700000000000000010a000000000000000103000000000000"
       "0003000000010300000000000000010800000000000000011e00000000000000"
       "0104000000000000000300000001040000000000000001070000000000000001"
       "2800000000000000010900000000000000030000000109000000000000000107"
       "00000000000000015a00000000000000010d0000000000000003000000010d00"
       "0000000000000107000000000000000182000000000000000102040000000200"
       "0000000000000300000001020000000000000001070000000000000001140000"
       "0000000000050000000000000003000000010500000000000000010700000000"
       "0000000132000000000000000a0000000000000003000000010a000000000000"
       "000108000000000000000164000000000000000c000000000000000300000001"
       "0c00000000000000010700000000000000017800000000000000"},
      {"landmark, index only", index_only, true,
       "574a4e3100000000000000000204000000010000000000000003000000010100"
       "000000000000010700000000000000010a000000000000000400000000000000"
       "0300000001040000000000000001070000000000000001280000000000000009"
       "0000000000000003000000010900000000000000010700000000000000015a00"
       "0000000000000d0000000000000003000000010d000000000000000107000000"
       "0000000001820000000000000002030000000200000000000000030000000102"
       "0000000000000001070000000000000001140000000000000005000000000000"
       "0003000000010500000000000000010700000000000000013200000000000000"
       "0c0000000000000003000000010c000000000000000107000000000000000178"
       "00000000000000"},
  };
  struct In {
    int64_t ts;
    int64_t key;
    int port;
  };
  const In input[] = {{1, 7, 0}, {2, 7, 1},  {3, 8, 0}, {4, 7, 0},
                      {5, 7, 1}, {9, 7, 0},  {10, 8, 1}, {12, 7, 1},
                      {13, 7, 0}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    BinaryWindowJoinOp j(c.opt);
    for (const In& in : input) {
      if (c.one_key && in.key != 7) continue;
      j.Push(Element(T(in.ts, in.key, in.ts * 10)), in.port);
      if (in.ts == 10) j.Push(Element(Punctuation::Watermark(11)), 0);
    }
    dur::BufWriter w;
    j.SaveState(w);
    EXPECT_EQ(Hex(w.data()), c.hex);
    BinaryWindowJoinOp restored(c.opt);
    dur::BufReader r(w.data());
    ASSERT_TRUE(restored.RestoreState(r).ok());
    dur::BufWriter again;
    restored.SaveState(again);
    EXPECT_EQ(Hex(again.data()), c.hex);
  }
}

TEST(WindowJoinTest, RestoreRejectsOtherLayouts) {
  auto sliding = JoinOpts(JoinStrategy::kHash, JoinStrategy::kHash);
  auto landmark = BinaryWindowJoinOp::Options::Unwindowed({1}, {1});
  BinaryWindowJoinOp src(landmark);
  src.Push(Element(T(1, 7)), 0);
  src.Push(Element(T(2, 7)), 1);
  dur::BufWriter w;
  src.SaveState(w);
  const std::string saved = w.Take();

  BinaryWindowJoinOp same(landmark);
  dur::BufReader ok(saved);
  EXPECT_TRUE(same.RestoreState(ok).ok());
  // Another window kind, a truncated state, and a state that starts
  // with a flush count (the retired unwindowed join's layout).
  BinaryWindowJoinOp other(sliding);
  dur::BufReader kind(saved);
  EXPECT_FALSE(other.RestoreState(kind).ok());
  BinaryWindowJoinOp cut(landmark);
  dur::BufReader truncated(std::string_view(saved).substr(0, 20));
  EXPECT_FALSE(cut.RestoreState(truncated).ok());
  dur::BufWriter old;
  old.I64(0);
  old.U32(0);
  old.U32(0);
  BinaryWindowJoinOp retired(landmark);
  dur::BufReader old_reader(old.data());
  EXPECT_FALSE(retired.RestoreState(old_reader).ok());
}

}  // namespace
}  // namespace sqp
