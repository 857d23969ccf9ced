// Cross-cutting randomized invariants that individual module tests
// don't cover: total-order laws for Value, conservation laws for
// queues/operators, and watermark monotonicity through operator chains.

#include <gtest/gtest.h>

#include <deque>

#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "exec/reorder.h"
#include "exec/select.h"
#include "exec/union.h"
#include "stream/channel.h"

namespace sqp {
namespace {

Value RandomValue(Rng& rng) {
  switch (rng.Uniform(4)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(static_cast<int64_t>(rng.UniformRange(-100, 100)));
    case 2:
      return Value(rng.NextDouble() * 200.0 - 100.0);
    default:
      return Value(std::string(1 + rng.Uniform(3), static_cast<char>(
                                                       'a' + rng.Uniform(4))));
  }
}

TEST(ValueOrderPropertyTest, TotalOrderLaws) {
  Rng rng(201);
  for (int trial = 0; trial < 5000; ++trial) {
    Value a = RandomValue(rng), b = RandomValue(rng), c = RandomValue(rng);
    // Antisymmetry.
    EXPECT_FALSE(a < b && b < a);
    // Exactly one of <, ==, > holds.
    int rels = (a < b) + (a == b) + (b < a);
    EXPECT_EQ(rels, 1) << a.ToString() << " vs " << b.ToString();
    // Transitivity.
    if (a < b && b < c) {
      EXPECT_LT(a.Compare(c), 0);
    }
    if (a == b && b == c) {
      EXPECT_TRUE(a == c);
    }
    // Compare consistency with hash for equal values.
    if (a == b) {
      EXPECT_EQ(a.Hash(), b.Hash());
    }
  }
}

/// Minimal channel item: weight 1, punctuations bypass the bound.
struct Slot {
  bool punct = false;
  size_t Weight() const { return 1; }
  bool Bypass() const { return punct; }
  template <typename Keep>
  size_t Shed(Keep&&) {
    return 1;
  }
};

TEST(ChannelPropertyTest, ConservationUnderRandomOps) {
  Rng rng(202);
  for (uint64_t cap : {0u, 1u, 7u, 64u}) {
    Channel<Slot> ch(cap, Backpressure::kDropNewest, 4);
    std::deque<Slot> out;
    uint64_t offered = 0, accepted = 0, claimed = 0;
    uint64_t tuples_in = 0, tuples_out = 0;
    for (int i = 0; i < 5000; ++i) {
      if (rng.Bernoulli(0.6)) {
        const bool punct = rng.Bernoulli(0.2);
        ++offered;
        PushResult r = ch.Push(Slot{punct});
        if (punct) {
          EXPECT_EQ(r, PushResult::kAccepted);
        }
        if (r == PushResult::kAccepted) {
          ++accepted;
          if (!punct) ++tuples_in;
        }
      } else if (ch.stats().depth > 0) {
        EXPECT_EQ(ch.Claim(out, 1 + rng.Uniform(8)), ClaimResult::kClaimed);
        claimed += out.size();
        for (const Slot& s : out) tuples_out += s.punct ? 0 : 1;
      }
      // Conservation: everything offered is accepted or dropped, and
      // everything accepted is claimed or resident.
      const ChannelStats st = ch.stats();
      EXPECT_EQ(accepted + st.dropped, offered);
      EXPECT_EQ(accepted, claimed + st.depth);
      EXPECT_EQ(st.enqueued, accepted);
      if (cap > 0) {
        EXPECT_LE(tuples_in - tuples_out, cap);
      }
    }
  }
}

TEST(OperatorPropertyTest, SelectConservation) {
  // tuples_in == tuples_out + rejected for any predicate.
  Rng rng(203);
  Plan plan;
  auto* sel = plan.Make<SelectOp>(Gt(Col(0), Lit(int64_t{0})));
  auto* sink = plan.Make<CountingSink>();
  sel->SetOutput(sink);
  for (int i = 0; i < 10000; ++i) {
    sel->Push(Element(MakeTuple(i, {Value(rng.UniformRange(-5, 5))})));
  }
  EXPECT_EQ(sel->stats().tuples_in, 10000u);
  EXPECT_EQ(sel->stats().tuples_out, sink->tuples());
  EXPECT_LE(sel->stats().tuples_out, sel->stats().tuples_in);
}

TEST(WatermarkPropertyTest, UnionNeverEmitsDecreasingWatermarks) {
  Rng rng(204);
  Plan plan;
  auto* u = plan.Make<UnionOp>();
  std::vector<int64_t> seen;
  auto* sink = plan.Make<CallbackSink>([&](const Element& e) {
    if (e.is_punctuation()) seen.push_back(e.punctuation().ts);
  });
  u->SetOutput(sink);
  int64_t wm[2] = {0, 0};
  for (int i = 0; i < 2000; ++i) {
    int side = rng.Bernoulli(0.5) ? 0 : 1;
    if (rng.Bernoulli(0.3)) {
      wm[side] += static_cast<int64_t>(rng.Uniform(5));
      u->Push(Element(Punctuation::Watermark(wm[side])), side);
    } else {
      u->Push(Element(MakeTuple(i, {Value(int64_t{i})})), side);
    }
  }
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LT(seen[i - 1], seen[i]);
  }
}

TEST(WatermarkPropertyTest, ReorderedStreamHonorsItsWatermarks) {
  // After SlackReorderOp, no tuple may be emitted with ts <= the last
  // watermark forwarded (the contract downstream windows rely on).
  Rng rng(205);
  Plan plan;
  auto* ro = plan.Make<SlackReorderOp>(8);
  int64_t last_wm = INT64_MIN;
  bool violated = false;
  auto* sink = plan.Make<CallbackSink>([&](const Element& e) {
    if (e.is_punctuation()) {
      last_wm = std::max(last_wm, e.punctuation().ts);
    } else if (e.tuple()->ts() <= last_wm) {
      violated = true;
    }
  });
  ro->SetOutput(sink);
  int64_t base = 0;
  for (int i = 0; i < 5000; ++i) {
    ++base;
    int64_t ts = base - static_cast<int64_t>(rng.Uniform(9));
    ro->Push(Element(MakeTuple(std::max<int64_t>(0, ts),
                               {Value(std::max<int64_t>(0, ts))})));
    if (i % 100 == 99) {
      // Watermark consistent with the slack bound.
      ro->Push(Element(Punctuation::Watermark(base - 9)));
    }
  }
  ro->Flush();
  EXPECT_FALSE(violated);
}

TEST(GroupByPropertyTest, BucketCountsSumToInput) {
  // Sum over all emitted bucket counts equals tuples in, for random
  // timestamps and watermarks interleaved.
  Rng rng(206);
  Plan plan;
  GroupByOptions opt;
  opt.aggs = {{AggKind::kCount, -1, 0.5}};
  opt.window = WindowSpec::TimeTumbling(16);
  auto* gb = plan.Make<GroupByAggregateOp>(opt);
  uint64_t emitted_total = 0;
  auto* sink = plan.Make<CallbackSink>([&](const Element& e) {
    if (e.is_tuple()) {
      emitted_total += static_cast<uint64_t>(e.tuple()->at(1).AsInt());
    }
  });
  gb->SetOutput(sink);
  int64_t ts = 0;
  const int kN = 8000;
  for (int i = 0; i < kN; ++i) {
    ts += static_cast<int64_t>(rng.Uniform(3));
    gb->Push(Element(MakeTuple(ts, {Value(ts)})));
    if (rng.Bernoulli(0.01)) {
      gb->Push(Element(Punctuation::Watermark(ts - 1)));
    }
  }
  gb->Flush();
  EXPECT_EQ(emitted_total, static_cast<uint64_t>(kN));
}

}  // namespace
}  // namespace sqp
