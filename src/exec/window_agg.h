#ifndef SQP_EXEC_WINDOW_AGG_H_
#define SQP_EXEC_WINDOW_AGG_H_

#include <string>
#include <vector>

#include "agg/agg_set.h"
#include "common/key_table.h"
#include "dur/checkpointable.h"
#include "exec/operator.h"
#include "window/window_buffer.h"
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
/// landmark (agglomerative) windows (slide 27). An output column list
/// selects and orders ordinals of that row, so a query's final row is
/// emitted here, one tuple per input tuple, with no project behind it.
///
/// With a partition column this is CQL's partitioned window (slide 26
/// "variants"; `[partition by K rows N]`): each key keeps its *own*
/// count window of the last N rows, each tuple emits the aggregate over
/// its key's window, and the output row is [ts, key, agg...].
///
/// A time window holds its tuples in ts order. An in-window tuple that
/// arrives out of order lands before the tail, so the accumulators are
/// refolded from the window (one `recompute_count()`); in-order input
/// never pays this.
///
/// Checkpoints hold each window's tuples in window order (a partition's
/// after its key), then every accumulator that serializes. Restore
/// refolds the tuples into fresh accumulators, loads the saved ones over
/// them (so a double sum continues bit for bit) and emits nothing. A
/// landmark window keeps no tuples, so it restores every accumulator
/// from its saved state.
class WindowAggregateOp : public Operator, public CheckpointableOperator {
 public:
  /// `partition_col < 0`: one window over the whole stream. Otherwise
  /// `window` must be count-sliding and applies per key. `out_cols`
  /// lists the emitted ordinals of the full row; empty emits it whole.
  WindowAggregateOp(WindowSpec window, std::vector<AggSpec> aggs,
                    std::string name = "window-agg", int partition_col = -1,
                    std::vector<int> out_cols = {});

  void Push(const Element& e, int port = 0) override;
  size_t StateBytes() const override;

  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

  size_t num_partitions() const { return parts_.size(); }
  /// Number of buffer replays: triggered by aggregates that cannot
  /// evict, and by a time window's out-of-order arrivals.
  uint64_t recompute_count() const { return recomputes_; }

 private:
  /// One window's contents and accumulators: the whole stream's, or one
  /// partition's. A landmark window keeps no tuples.
  struct Window {
    WindowBuffer buf;
    AggSet::Accs accs;
  };

  Window NewWindow() const;
  AggSet::Accs NewAccs() const;
  /// Evicts `expired_` from `w`'s accumulators, then adds `added` (when
  /// non-null); aggregates that cannot evict are rebuilt from the buffer.
  void Slide(Window& w, const Tuple* added);
  /// Rebuilds `w`'s accumulators from the tuples it holds.
  void Refold(Window& w) const;
  void EmitCurrent(int64_t ts, const Window& w, const Value* key);
  static size_t WindowBytes(const Window& w);
  void SaveWindow(dur::BufWriter& w, const Window& win) const;
  /// Restores `win`; `key` is its partition's, which every tuple carries.
  Status RestoreWindow(dur::BufReader& r, const Value* key, Window* win) const;

  WindowSpec window_;
  AggSet aggs_;
  int partition_col_;
  std::vector<int> out_cols_;  ///< Ordinals of [ts, key?, agg...].

  /// The one key column partitions are keyed by.
  std::vector<int> part_cols_;
  Window whole_;  ///< Unpartitioned state.
  KeyTable<Window> parts_;
  std::vector<TupleRef> expired_;  ///< Scratch, reused across tuples.
  uint64_t recomputes_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_WINDOW_AGG_H_
