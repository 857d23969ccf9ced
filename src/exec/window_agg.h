#ifndef SQP_EXEC_WINDOW_AGG_H_
#define SQP_EXEC_WINDOW_AGG_H_

#include <memory>
#include <string>
#include <vector>

#include "agg/partial_agg.h"
#include "exec/operator.h"
#include "window/count_window.h"
#include "window/time_window.h"
#include "window/window_spec.h"

namespace sqp {

/// Sliding-window aggregation: for each arriving tuple, emits the current
/// aggregate over the window (IStream semantics of a windowed aggregate).
///
/// Accumulators come from `NewSlidingAccumulator()`, so every exact
/// aggregate evicts expired tuples as deltas: count/sum/avg/stddev in O(1)
/// per tuple, min/max through a monotonic deque in O(1) amortized,
/// count-distinct/median/first/last through the values they still hold.
/// Only aggregates that cannot evict (blend and the sketches) are rebuilt
/// from the window buffer on expiry — the textbook cost asymmetry of
/// slide 36, paid only by the aggregates that need it. A landmark window
/// never evicts, so it keeps the O(1) `NewAccumulator()` forms instead.
///
/// Output row: [ts, agg...]. Supports time-sliding, count-sliding and
/// landmark (agglomerative) windows (slide 27).
class WindowAggregateOp : public Operator {
 public:
  WindowAggregateOp(WindowSpec window, std::vector<AggSpec> aggs,
                    std::string name = "window-agg");

  void Push(const Element& e, int port = 0) override;
  size_t StateBytes() const override;

  /// Number of buffer replays triggered by aggregates that cannot evict.
  uint64_t recompute_count() const { return recomputes_; }

 private:
  /// Evicts `expired_` from the accumulators, then adds `added` (when
  /// non-null); aggregates that cannot evict are rebuilt from the buffer.
  void Slide(const Tuple* added);
  void EmitCurrent(int64_t ts);
  Value InputOf(size_t i, const Tuple& t) const;

  WindowSpec window_;
  std::vector<AggSpec> agg_specs_;
  std::vector<AggregateFunction> fns_;
  std::vector<std::unique_ptr<Accumulator>> accs_;

  std::unique_ptr<TimeWindowBuffer> time_buf_;
  std::unique_ptr<CountWindowBuffer> count_buf_;
  std::vector<TupleRef> expired_;  ///< Scratch, reused across tuples.
  uint64_t recomputes_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_WINDOW_AGG_H_
