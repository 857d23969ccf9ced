#ifndef SQP_EXEC_PANED_WINDOW_AGG_H_
#define SQP_EXEC_PANED_WINDOW_AGG_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "agg/agg_set.h"
#include "exec/operator.h"

namespace sqp {

/// Sliding-window aggregation with a slide step, evaluated with *panes*:
/// the window [s - W, s) is split into W/p disjoint panes of width
/// p = gcd(W, S); each pane is aggregated once, and each emission merges
/// the W/p pane partials. Work per slide is O(W/p) merges instead of
/// O(window contents) — the standard shared-subaggregation technique for
/// the overlapping windows of slide 27.
///
/// Requires mergeable aggregates (all built-in kinds qualify, including
/// the sketched ones). Output row: [ts = window end s, agg values...],
/// emitted once per slide boundary as soon as the stream provably passes
/// it (ordering attribute or watermark).
class PanedWindowAggregateOp : public Operator {
 public:
  struct Options {
    int64_t window = 60;
    int64_t slide = 10;
    std::vector<AggSpec> aggs;
  };

  explicit PanedWindowAggregateOp(Options options,
                                  std::string name = "paned-window-agg");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  int64_t pane_size() const { return pane_; }
  /// Accumulator merges performed (the cost panes optimize).
  uint64_t merges() const { return merges_; }

 private:
  /// Closes panes and emits slide boundaries implied by time `now`
  /// (exclusive: panes containing `now` stay open).
  void AdvanceTo(int64_t now);
  void ClosePane();
  void EmitBoundary(int64_t boundary);

  Options options_;
  int64_t pane_;
  AggSet aggs_;

  int64_t current_pane_ = INT64_MIN;  // Pane id of the open pane.
  AggSet::Accs current_;
  /// Closed panes, oldest first: (pane id, partials). Holds at most
  /// window/pane entries.
  std::deque<std::pair<int64_t, AggSet::Accs>> panes_;
  int64_t last_boundary_ = INT64_MIN;  // Last emitted window end.
  uint64_t merges_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_PANED_WINDOW_AGG_H_
