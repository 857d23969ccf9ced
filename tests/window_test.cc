#include <gtest/gtest.h>

#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "window/count_window.h"
#include "window/time_window.h"
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

// --- TimeWindowBuffer ---

TEST(TimeWindowTest, KeepsOnlyRecentTuples) {
  TimeWindowBuffer w(10);
  w.Insert(T(1));
  w.Insert(T(5));
  w.Insert(T(11));  // Expires ts=1 (1 <= 11-10).
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.contents().front()->ts(), 5);
}

TEST(TimeWindowTest, ExpiredTuplesReported) {
  TimeWindowBuffer w(3);
  std::vector<TupleRef> expired;
  w.Insert(T(1), &expired);
  w.Insert(T(2), &expired);
  EXPECT_TRUE(expired.empty());
  w.Insert(T(5), &expired);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0]->ts(), 1);
  EXPECT_EQ(expired[1]->ts(), 2);
}

TEST(TimeWindowTest, AdvanceToExpiresWithoutInsert) {
  TimeWindowBuffer w(5);
  w.Insert(T(1));
  std::vector<TupleRef> expired;
  w.AdvanceTo(100, &expired);
  EXPECT_EQ(expired.size(), 1u);
  EXPECT_TRUE(w.empty());
}

TEST(TimeWindowTest, BoundaryIsExclusiveAtTail) {
  TimeWindowBuffer w(10);
  w.Insert(T(0));
  w.Insert(T(10));  // Window (0, 10]: ts=0 expires exactly.
  EXPECT_EQ(w.size(), 1u);
}

TEST(TimeWindowTest, MemoryTracksContents) {
  TimeWindowBuffer w(100);
  EXPECT_EQ(w.MemoryBytes(), 0u);
  w.Insert(T(1));
  size_t one = w.MemoryBytes();
  w.Insert(T(2));
  EXPECT_EQ(w.MemoryBytes(), 2 * one);
  w.AdvanceTo(500);
  EXPECT_EQ(w.MemoryBytes(), 0u);
}

// --- CountWindowBuffer ---

TEST(CountWindowTest, EvictsOldestWhenFull) {
  CountWindowBuffer w(3);
  EXPECT_FALSE(w.Insert(T(1)).has_value());
  EXPECT_FALSE(w.Insert(T(2)).has_value());
  EXPECT_FALSE(w.Insert(T(3)).has_value());
  EXPECT_TRUE(w.full());
  auto evicted = w.Insert(T(4));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ((*evicted)->ts(), 1);
  EXPECT_EQ(w.size(), 3u);
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
