#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "window/window_buffer.h"
#include "window/window_spec.h"

namespace sqp {
namespace {

TupleRef T(int64_t ts, int64_t v = 0) {
  return MakeTuple(ts, {Value(ts), Value(v)});
}

// --- WindowSpec ---

TEST(WindowSpecTest, Validation) {
  EXPECT_TRUE(WindowSpec::TimeSliding(10).Validate().ok());
  EXPECT_FALSE(WindowSpec::TimeSliding(0).Validate().ok());
  EXPECT_FALSE(WindowSpec::CountSliding(-5).Validate().ok());
  EXPECT_TRUE(WindowSpec::Landmark().Validate().ok());
  EXPECT_TRUE(WindowSpec::Punctuated().Validate().ok());
}

TEST(WindowSpecTest, SlideNeedsTimeSlidingWithinSize) {
  EXPECT_TRUE(WindowSpec::TimeSliding(60, 10).Validate().ok());
  EXPECT_TRUE(WindowSpec::TimeSliding(60, 60).Validate().ok());
  EXPECT_FALSE(WindowSpec::TimeSliding(60, 61).Validate().ok());
  EXPECT_FALSE(WindowSpec::TimeSliding(60, -1).Validate().ok());
  WindowSpec tumbling = WindowSpec::TimeTumbling(60);
  tumbling.slide = 10;
  EXPECT_FALSE(tumbling.Validate().ok());
  EXPECT_EQ(WindowSpec::TimeSliding(60, 10).ToString(),
            "time-sliding size=60 slide=10");
  EXPECT_FALSE(WindowSpec::TimeSliding(60, 10) == WindowSpec::TimeSliding(60));
}

TEST(WindowSpecTest, Names) {
  EXPECT_EQ(WindowSpec::TimeTumbling(60).ToString(), "time-tumbling size=60");
  EXPECT_EQ(WindowSpec::Landmark(5).ToString(), "landmark start=5");
}

// --- WindowBuffer ---

// One step of a window-buffer case: insert a tuple at `ts`, or advance
// the clock to it, then what the window holds and how many tuples it has
// reported expired so far.
struct Step {
  bool advance;
  int64_t ts;
  std::vector<int64_t> contents;  ///< Timestamps held, in window order.
  size_t expired;                 ///< Tuples reported since the start.
};
Step Ins(int64_t ts, std::vector<int64_t> contents, size_t expired) {
  return {false, ts, std::move(contents), expired};
}
Step Adv(int64_t ts, std::vector<int64_t> contents, size_t expired) {
  return {true, ts, std::move(contents), expired};
}

// One row of the window-buffer table, registered as the test
// `suite.name`.
struct BufferCase {
  const char* suite;
  const char* name;
  WindowSpec spec;
  bool keep_log;
  std::vector<Step> steps;
  std::vector<int64_t> expired;  ///< Timestamps reported, in order.
  std::vector<bool> admitted;    ///< Insert's result, per insert.
};

std::vector<BufferCase> BufferCases() {
  return {
      {"TimeWindowTest", "KeepsOnlyRecentTuples", WindowSpec::TimeSliding(10),
       true,
       {Ins(1, {1}, 0), Ins(5, {1, 5}, 0),
        Ins(11, {5, 11}, 1)},  // 1 <= 11 - 10 expires.
       {1}, {true, true, true}},
      {"TimeWindowTest", "ExpiredTuplesReported", WindowSpec::TimeSliding(3),
       true, {Ins(1, {1}, 0), Ins(2, {1, 2}, 0), Ins(5, {5}, 2)}, {1, 2},
       {true, true, true}},
      {"TimeWindowTest", "AdvanceToExpiresWithoutInsert",
       WindowSpec::TimeSliding(5), true, {Ins(1, {1}, 0), Adv(100, {}, 1)},
       {1}, {true}},
      {"TimeWindowTest", "BoundaryIsExclusiveAtTail",
       WindowSpec::TimeSliding(10), true,
       {Ins(0, {0}, 0), Ins(10, {10}, 1)},  // (0, 10].
       {0}, {true, true}},
      {"TimeWindowTest", "MemoryTracksContents", WindowSpec::TimeSliding(100),
       true, {Ins(1, {1}, 0), Ins(2, {1, 2}, 0), Adv(500, {}, 2)}, {1, 2},
       {true, true}},
      {"TimeWindowTest", "LateTupleLeavesEmptyWindowOnArrival",
       WindowSpec::TimeSliding(10), true,
       {Ins(20, {20}, 0), Adv(40, {}, 1), Ins(25, {}, 2)}, {20, 25},
       {true, false}},
      {"TimeWindowTest", "LateTupleLeavesNonEmptyWindowOnArrival",
       WindowSpec::TimeSliding(10), true,
       {Ins(100, {100}, 0), Ins(80, {100}, 1)},  // 80 < 100 - 10 + 1.
       {80}, {true, false}},
      {"TimeWindowTest", "InWindowDisorderExpiresByTimestamp",
       WindowSpec::TimeSliding(10), true,
       {Ins(100, {100}, 0), Ins(95, {95, 100}, 0),  // In (90, 100].
        Ins(106, {100, 106}, 1)},                   // 95 <= 106 - 10.
       {95}, {true, true, true}},
      {"CountWindowTest", "EvictsOldestWhenFull", WindowSpec::CountSliding(3),
       true,
       {Ins(1, {1}, 0), Ins(2, {1, 2}, 0), Ins(3, {1, 2, 3}, 0),
        Ins(4, {2, 3, 4}, 1), Adv(100, {2, 3, 4}, 1)},
       {1}, {true, true, true, true}},
      {"LandmarkWindowTest", "LogKeepsArrivalOrderFromStart",
       WindowSpec::Landmark(5), true,
       {Ins(7, {7}, 0), Ins(3, {7}, 1), Ins(6, {7, 6}, 1),
        Adv(1000, {7, 6}, 1)},
       {3}, {true, false, true}},
      {"LandmarkWindowTest", "WithoutLogHoldsNoTuple", WindowSpec::Landmark(5),
       false,
       {Ins(7, {}, 0), Ins(3, {}, 1), Ins(6, {}, 1), Adv(1000, {}, 1)}, {3},
       {true, false, true}},
  };
}

std::vector<int64_t> Timestamps(const FifoLog<TupleRef>& log) {
  std::vector<int64_t> ts;
  for (const TupleRef& t : log) ts.push_back(t->ts());
  return ts;
}

// A landmark window's tuple bytes, without its log's references.
size_t TupleBytesOf(const WindowBuffer& b) {
  return b.kind() == WindowKind::kTimeLandmark
             ? b.MemoryBytes() - b.contents().capacity_bytes()
             : b.MemoryBytes();
}

// Runs one row: its steps on a fresh buffer, checking contents, the
// expired count and byte accounting after each, then a Save -> Restore
// round trip.
class BufferCaseTest : public testing::Test {
 public:
  explicit BufferCaseTest(BufferCase c) : c_(std::move(c)) {}

  void TestBody() override {
    WindowBuffer w(c_.spec, c_.keep_log);
    EXPECT_EQ(w.logs(), c_.keep_log);
    EXPECT_EQ(w.kind(), c_.spec.kind);
    EXPECT_EQ(w.MemoryBytes(), 0u);
    // A logged twin: what the owner of a log-less window saves.
    WindowBuffer twin(c_.spec, /*keep_log=*/true);
    const size_t one = T(0)->MemoryBytes();  // Every T() is as wide.
    std::vector<TupleRef> expired;
    std::vector<bool> admitted;
    for (size_t i = 0; i < c_.steps.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "step " << i);
      const Step& step = c_.steps[i];
      if (step.advance) {
        w.AdvanceTo(step.ts, &expired);
        twin.AdvanceTo(step.ts);
      } else {
        TupleRef t = T(step.ts);
        admitted.push_back(w.Insert(t, &expired));
        twin.Insert(t);
      }
      EXPECT_EQ(Timestamps(w.contents()), step.contents);
      EXPECT_EQ(expired.size(), step.expired);
      // A sliding window counts the tuples it holds; a landmark window
      // every tuple it admitted, logged or not.
      const size_t held =
          c_.spec.kind == WindowKind::kTimeLandmark
              ? static_cast<size_t>(
                    std::count(admitted.begin(), admitted.end(), true))
              : step.contents.size();
      EXPECT_EQ(TupleBytesOf(w), held * one);
    }
    const std::vector<int64_t>& contents = c_.steps.back().contents;
    std::vector<int64_t> expired_ts;
    for (const TupleRef& t : expired) expired_ts.push_back(t->ts());
    EXPECT_EQ(expired_ts, c_.expired);
    EXPECT_EQ(admitted, c_.admitted);

    const WindowBuffer& src = w.logs() ? w : twin;
    dur::BufWriter out;
    src.Save(out, [](dur::BufWriter& bw, const TupleRef& t) {
      bw.I64(t->ts() * 2);  // An owner's per-tuple field.
    });
    WindowBuffer restored(c_.spec, c_.keep_log);
    restored.Insert(T(6));  // Restore empties the window first.
    std::vector<int64_t> seen;
    dur::BufReader in(out.data());
    Status st =
        restored.Restore(in, [&](dur::BufReader& br, const TupleRef& t) {
          int64_t field = 0;
          SQP_RETURN_NOT_OK(br.I64(&field));
          EXPECT_EQ(field, t->ts() * 2);
          seen.push_back(t->ts());
          return Status::OK();
        });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(in.done());
    EXPECT_EQ(seen, Timestamps(src.contents()));
    EXPECT_EQ(Timestamps(restored.contents()), contents);
    EXPECT_EQ(restored.now(), w.now());
    EXPECT_EQ(restored.ExpiryBound(), w.ExpiryBound());
    EXPECT_EQ(TupleBytesOf(restored), TupleBytesOf(w));
  }

 private:
  BufferCase c_;
};

const bool kBufferCasesRegistered = [] {
  for (const BufferCase& c : BufferCases()) {
    testing::RegisterTest(c.suite, c.name, nullptr, nullptr, __FILE__,
                          __LINE__, [c]() -> testing::Test* {
                            return new BufferCaseTest(c);
                          });
  }
  return true;
}();

TEST(WindowBufferTest, ExpiryBoundByKind) {
  WindowBuffer time(WindowSpec::TimeSliding(10));
  EXPECT_EQ(time.ExpiryBound(), INT64_MIN);  // The clock has not moved.
  time.AdvanceTo(INT64_MIN + 5);
  EXPECT_EQ(time.ExpiryBound(), INT64_MIN);  // Saturates, no overflow.
  time.AdvanceTo(100);
  EXPECT_EQ(time.ExpiryBound(), 91);  // The window is (90, 100].
  EXPECT_EQ(time.now(), 100);
  WindowBuffer count(WindowSpec::CountSliding(2));
  count.AdvanceTo(100);
  EXPECT_EQ(count.ExpiryBound(), INT64_MIN);
  EXPECT_EQ(count.now(), INT64_MIN);
  EXPECT_EQ(WindowBuffer(WindowSpec::Landmark(5)).ExpiryBound(), 5);
}

// Restores `bytes` into a fresh `spec` window.
Status RestoreInto(const WindowSpec& spec, const std::string& bytes) {
  WindowBuffer w(spec);
  dur::BufReader r(bytes);
  return w.Restore(r);
}

// Hand-written state: u8 kind, i64 clock for a time window, u32 count,
// then tuples.
std::string State(WindowKind kind, int64_t now,
                  const std::vector<int64_t>& ts) {
  dur::BufWriter w;
  w.U8(static_cast<uint8_t>(kind));
  if (kind == WindowKind::kTimeSliding) w.I64(now);
  w.U32(static_cast<uint32_t>(ts.size()));
  for (int64_t t : ts) w.Tup(*T(t));
  return w.Take();
}

TEST(WindowBufferTest, RestoreRejectsHostileState) {
  const WindowSpec time = WindowSpec::TimeSliding(10);
  const WindowSpec count = WindowSpec::CountSliding(2);
  const WindowSpec landmark = WindowSpec::Landmark(5);
  const std::string good = State(WindowKind::kTimeSliding, 100, {95, 100});
  ASSERT_TRUE(RestoreInto(time, good).ok());
  // Another kind.
  EXPECT_FALSE(RestoreInto(count, good).ok());
  EXPECT_FALSE(RestoreInto(landmark, good).ok());
  // Every truncation.
  for (size_t n = 0; n < good.size(); ++n) {
    EXPECT_FALSE(RestoreInto(time, good.substr(0, n)).ok()) << n;
  }
  // A tuple outside the window: behind the clock, past a count window's
  // size, before the landmark's start.
  EXPECT_FALSE(
      RestoreInto(time, State(WindowKind::kTimeSliding, 100, {90})).ok());
  EXPECT_FALSE(
      RestoreInto(count, State(WindowKind::kCountSliding, 0, {1, 2, 3}))
          .ok());
  EXPECT_FALSE(
      RestoreInto(landmark, State(WindowKind::kTimeLandmark, 0, {4})).ok());
  // A clock out of range.
  EXPECT_FALSE(
      RestoreInto(time, State(WindowKind::kTimeSliding, INT64_MIN + 5, {}))
          .ok());
  // An owner's per-tuple error stops the restore.
  WindowBuffer w(time);
  dur::BufReader r(good);
  EXPECT_FALSE(w.Restore(r, [](dur::BufReader&, const TupleRef&) {
                  return Status::Internal("rejected");
                }).ok());
}

// --- Keyed windows ---

// A keyed tuple: ts, key, and an id that names it across a restore.
TupleRef KT(int64_t ts, int64_t key, int64_t id) {
  return MakeTuple(ts, {Value(ts), Value(key), Value(id)});
}

std::vector<int64_t> Ids(const std::vector<TupleRef>& tuples) {
  std::vector<int64_t> ids;
  for (const TupleRef& t : tuples) ids.push_back(t->at(2).AsInt());
  return ids;
}

// Checks `w` against `model`, the window's tuples in window order: the
// log holds exactly them, and a lookup of each key finds exactly that
// key's, in the same order, through the index or a scan.
void ExpectHolds(const WindowBuffer& w, const std::vector<TupleRef>& model,
                 int64_t keys) {
  if (w.logs()) {
    EXPECT_EQ(Ids(std::vector<TupleRef>(w.contents().begin(),
                                         w.contents().end())),
              Ids(model));
  }
  const std::vector<int> cols = {1};
  for (int64_t k = 0; k < keys; ++k) {
    std::vector<TupleRef> want, got;
    for (const TupleRef& t : model) {
      if (t->at(1).AsInt() == k) want.push_back(t);
    }
    const TupleRef probe = KT(0, k, -1);
    ProbeCounts counts;
    w.ForEachMatch(KeyView(*probe, cols), &counts,
                   [&](const TupleRef& t) { got.push_back(t); });
    EXPECT_EQ(Ids(got), Ids(want)) << "key " << k;
    if (w.logs() && counts.hash_probes == 0) {
      EXPECT_EQ(counts.nl_comparisons, w.contents().size());
    } else {
      EXPECT_EQ(counts.hash_probes, 1u);
      EXPECT_EQ(counts.nl_comparisons, 0u);
    }
  }
}

// Property: over random keys and disordered timestamps, every window
// kind, indexed or scanned, holds what a brute-force model of the window
// holds after every Insert and AdvanceTo, and a Save -> Restore round
// trip rebuilds the same window and index.
TEST(KeyedWindowTest, IndexFollowsTheWindowUnderDisorder) {
  constexpr int64_t kKeys = 5;
  struct Shape {
    WindowSpec spec;
    bool keep_log;
  };
  const Shape shapes[] = {{WindowSpec::TimeSliding(20), true},
                          {WindowSpec::CountSliding(7), true},
                          {WindowSpec::Landmark(50), true},
                          {WindowSpec::Landmark(50), false}};
  for (const auto& [spec, keep_log] : shapes) {
    for (bool indexed : {false, true}) {
      if (!keep_log && !indexed) continue;  // Holds nothing to look up.
      SCOPED_TRACE(spec.ToString() + (keep_log ? " logged" : " log-less") +
                   (indexed ? " indexed" : " scanned"));
      WindowBuffer w(spec, keep_log, {1}, indexed);
      std::vector<TupleRef> model;
      Rng rng(71);
      int64_t clock = 0;        // The largest ts generated.
      int64_t now = INT64_MIN;  // A time window's clock.
      // Moves a time window's clock and drops what it has passed.
      auto advance = [&](int64_t ts) {
        if (spec.kind != WindowKind::kTimeSliding) return;
        now = std::max(now, ts);
        std::erase_if(model, [&](const TupleRef& t) {
          return t->ts() <= now - spec.size;
        });
      };
      for (int64_t i = 0; i < 600; ++i) {
        SCOPED_TRACE(testing::Message() << "step " << i);
        if (rng.Uniform(8) == 0) {
          clock += static_cast<int64_t>(rng.Uniform(30));
          w.AdvanceTo(clock);
          advance(clock);
        } else {
          clock += static_cast<int64_t>(rng.Uniform(4));
          // One in three is set back, inside the window or behind it.
          int64_t ts = clock;
          if (rng.Uniform(3) == 0) ts -= static_cast<int64_t>(rng.Uniform(25));
          TupleRef t = KT(ts, static_cast<int64_t>(rng.Uniform(kKeys)), i);
          w.Insert(t);
          advance(ts);
          if (spec.kind == WindowKind::kTimeSliding) {
            // Stable ts order: behind every tuple with ts <= its own.
            if (ts > now - spec.size) {
              auto pos = std::upper_bound(
                  model.begin(), model.end(), ts,
                  [](int64_t v, const TupleRef& m) { return v < m->ts(); });
              model.insert(pos, t);
            }
          } else if (spec.kind == WindowKind::kCountSliding) {
            model.push_back(t);
            if (model.size() > static_cast<size_t>(spec.size)) {
              model.erase(model.begin());
            }
          } else if (ts >= spec.start) {
            model.push_back(t);
          }
        }
        EXPECT_EQ(w.now(), now);
        ExpectHolds(w, model, kKeys);
        if (HasFailure()) return;
      }
      dur::BufWriter out;
      w.Save(out);
      WindowBuffer restored(spec, keep_log, {1}, indexed);
      restored.Insert(KT(spec.start, 0, -2));  // Restore empties it first.
      dur::BufReader in(out.data());
      ASSERT_TRUE(restored.Restore(in).ok());
      EXPECT_TRUE(in.done());
      EXPECT_EQ(restored.now(), w.now());
      ExpectHolds(restored, model, kKeys);
    }
  }
}

// --- Punctuation windows (closed by GroupByAggregateOp) ---

// count(*) grouped by column 1, groups closed by punctuation.
struct PunctuatedCount {
  PunctuatedCount() {
    GroupByOptions opt;
    opt.key_cols = {1};
    opt.aggs = {{AggKind::kCount, -1, 0.5}};
    opt.window = WindowSpec::Punctuated();
    gb = plan.Make<GroupByAggregateOp>(opt);
    sink = plan.Make<CollectorSink>();
    gb->SetOutput(sink);
  }
  Plan plan;
  GroupByAggregateOp* gb;
  CollectorSink* sink;
};

TEST(PunctuationWindowTest, CloseKeyReleasesGroup) {
  PunctuatedCount w;  // Key col 1.
  w.gb->Push(Element(MakeTuple(1, {Value(int64_t{1}), Value(int64_t{7})})));
  w.gb->Push(Element(MakeTuple(2, {Value(int64_t{2}), Value(int64_t{7})})));
  w.gb->Push(Element(MakeTuple(3, {Value(int64_t{3}), Value(int64_t{8})})));
  EXPECT_EQ(w.gb->open_groups(), 2u);

  w.gb->Push(Element(Punctuation::CloseKey(3, Value(int64_t{7}))));
  ASSERT_EQ(w.sink->count(), 1u);
  EXPECT_EQ(w.sink->tuples()[0]->at(1).AsInt(), 7);
  EXPECT_EQ(w.sink->tuples()[0]->at(2).AsInt(), 2);  // Tuples in the group.
  EXPECT_EQ(w.gb->open_groups(), 1u);
  w.gb->Flush();
  ASSERT_EQ(w.sink->count(), 2u);
  EXPECT_EQ(w.sink->tuples()[1]->at(2).AsInt(), 1);  // One tuple left open.
}

TEST(PunctuationWindowTest, WatermarkClosesOldGroups) {
  PunctuatedCount w;
  w.gb->Push(Element(MakeTuple(1, {Value(int64_t{1}), Value(int64_t{7})})));
  w.gb->Push(Element(MakeTuple(9, {Value(int64_t{9}), Value(int64_t{8})})));
  w.gb->Push(Element(Punctuation::Watermark(5)));
  ASSERT_EQ(w.sink->count(), 1u);
  EXPECT_EQ(w.sink->tuples()[0]->at(1).AsInt(), 7);
  EXPECT_EQ(w.gb->open_groups(), 1u);
}

TEST(PunctuationWindowTest, CloseUnknownKeyIsNoop) {
  PunctuatedCount w;
  w.gb->Push(Element(Punctuation::CloseKey(1, Value(int64_t{42}))));
  EXPECT_EQ(w.sink->count(), 0u);
}

}  // namespace
}  // namespace sqp
