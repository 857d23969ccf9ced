#ifndef SQP_EXEC_REORDER_H_
#define SQP_EXEC_REORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "dur/checkpointable.h"
#include "exec/operator.h"

namespace sqp {

/// Injects watermark punctuations ("heartbeats" in STREAM's terminology)
/// every `period` units of the ordering attribute, based on the maximum
/// tuple timestamp seen. Downstream windows and aggregates can then make
/// progress even when the application never punctuates.
///
/// Emitted watermark: max_ts - slack. A nonzero slack leaves room for
/// bounded disorder downstream (pair with SlackReorderOp upstream or
/// rely on the consumer's tolerance).
class HeartbeatOp : public Operator, public CheckpointableOperator {
 public:
  HeartbeatOp(int64_t period, int64_t slack = 0,
              std::string name = "heartbeat");

  void Push(const Element& e, int port = 0) override;

  /// Layout: i64 max_ts, i64 last_beat.
  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

 private:
  int64_t period_;
  int64_t slack_;
  int64_t max_ts_ = INT64_MIN;
  int64_t last_beat_ = INT64_MIN;
};

/// Restores order for streams with *bounded disorder*: tuples may arrive
/// up to `slack` ordering units late. Arrivals are buffered in a min-heap
/// and released once the high-water mark passes them by more than the
/// slack, so the output is nondecreasing in ts provided the input honors
/// the bound. Tuples later than the slack (already passed) are either
/// dropped or emitted out-of-order, per `drop_late`.
///
/// This is the standard front-end that makes the ordering-attribute
/// assumption of slides 17/29 hold on real feeds.
class SlackReorderOp : public Operator, public CheckpointableOperator {
 public:
  SlackReorderOp(int64_t slack, bool drop_late = true,
                 std::string name = "reorder");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  /// Layout: i64 max_ts, i64 emitted_ts, u64 late_dropped, u32 count,
  /// then the buffered tuples in heap-array order, so tuples of equal ts
  /// release in the same order after a restore.
  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

  uint64_t late_dropped() const { return late_dropped_; }
  size_t buffered() const { return heap_.size(); }

 private:
  void Release(int64_t up_to);

  struct ByTs {
    bool operator()(const TupleRef& a, const TupleRef& b) const {
      return a->ts() > b->ts();  // Min-heap on ts.
    }
  };

  int64_t slack_;
  bool drop_late_;
  std::vector<TupleRef> heap_;  // A ByTs heap (push_heap/pop_heap).
  int64_t max_ts_ = INT64_MIN;
  int64_t emitted_ts_ = INT64_MIN;
  uint64_t late_dropped_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_REORDER_H_
