#ifndef SQP_EXEC_WINDOW_JOIN_H_
#define SQP_EXEC_WINDOW_JOIN_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "dur/checkpointable.h"
#include "exec/operator.h"
#include "exec/sharding.h"
#include "window/window_buffer.h"
#include "window/window_spec.h"

namespace sqp {

/// Per-side evaluation strategy for the KNV03 window join (slide 33):
/// nested-loop scans the opposite window; hash keeps an index on it.
/// Hash spends memory to save CPU; nested-loop the reverse — choosing
/// per side ("asymmetric join processing") wins when rates differ.
enum class JoinStrategy { kNestedLoop, kHash };

const char* JoinStrategyName(JoinStrategy s);

/// Cost counters used by the E3 experiments: the windows' probe counts,
/// then what the join emits.
struct WindowJoinStats : ProbeCounts {
  /// Join output tuples.
  uint64_t results = 0;
  /// Padded rows emitted for unmatched left tuples (left_outer only).
  uint64_t unmatched_left = 0;
};

/// Binary sliding-window equijoin [KNV03] (slide 32).
///
/// On a new tuple from stream A:
///   1. scan/probe B's window for matches and emit results,
///   2. insert the tuple into A's window,
///   3. invalidate expired tuples in A's window.
///
/// Windows are per-side (time- or count-sliding, or landmark); probe
/// strategy is per-side too: `left_strategy` is the strategy used to
/// probe the *left* window (i.e. applied when a right tuple arrives).
///
/// Landmark windows on both sides make this the unwindowed symmetric
/// hash join [WA91] (slide 31), which is how the CQL planner lowers a
/// join of two unwindowed streams: a landmark side keeps every tuple
/// from `window.start` on and never expires, so it takes input in any
/// timestamp order.
///
/// Each side is one keyed `WindowBuffer`, indexed when hash-probed: its
/// insert and expiry keep the index in step, and its one lookup is the
/// probe. Steady state allocates only the rows it emits (an emptied
/// index entry is reused by the next new key). The join keeps only the
/// probe order, the outer join's pad rows and the rows it emits.
class BinaryWindowJoinOp : public Operator,
                           public ShardableOperator,
                           public CheckpointableOperator {
 public:
  struct Options {
    std::vector<int> left_cols;
    std::vector<int> right_cols;
    WindowSpec left_window = WindowSpec::TimeSliding(100);
    WindowSpec right_window = WindowSpec::TimeSliding(100);
    JoinStrategy left_strategy = JoinStrategy::kHash;
    JoinStrategy right_strategy = JoinStrategy::kHash;
    /// LEFT OUTER semantics: a left tuple that leaves its window without
    /// ever matching is emitted padded with `right_arity` nulls. The
    /// natural stream form of an outer join — the "no reply" case of
    /// the SYN/SYN-ACK monitor (connection attempts that never complete).
    bool left_outer = false;
    size_t right_arity = 0;

    /// The unwindowed join: landmark windows that start at the
    /// beginning of time on both sides, hash-probed.
    static Options Unwindowed(std::vector<int> left_cols,
                              std::vector<int> right_cols);
  };

  explicit BinaryWindowJoinOp(Options options,
                              std::string name = "window-join");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  const WindowJoinStats& join_stats() const { return jstats_; }

  std::unique_ptr<Operator> CloneReplica() const override {
    return std::make_unique<BinaryWindowJoinOp>(options_, name());
  }
  std::vector<std::vector<int>> ShardKeyColumns() const override {
    return {options_.left_cols, options_.right_cols};
  }
  /// Time and landmark windows shard cleanly (expiry is by timestamp,
  /// or never, identical on every replica). Count windows don't: a
  /// shard's last-N of its slice is not the stream's last-N. Outer joins
  /// don't either: pad-row timestamps come from the window's shard-local
  /// clock.
  bool CanShard(std::string* why) const override;

  /// Checkpointing: a leading format tag, the flush count, then each
  /// side's `WindowBuffer::Save` (a landmark side that only its index
  /// holds goes key by key), each left tuple followed by its matched flag
  /// on an outer join. Restore rebuilds the hash indexes and emits
  /// nothing.
  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

 private:
  /// Expiry hook for `expired_`: outer-join emission for side 0. Clears
  /// `expired_`.
  void HandleExpired(int side);
  void EmitJoined(const Tuple& left, const Tuple& right);
  void EmitUnmatchedLeft(const Tuple& left, int64_t ts);

  /// Retained verbatim so CloneReplica can build identical replicas.
  Options options_;
  bool left_outer_ = false;
  size_t right_arity_ = 0;
  /// Each side's window, keyed on its join columns and indexed when
  /// hash-probed. A landmark side keeps its log only where arrival order
  /// is read (a nested-loop scan, the outer drain); a hash-probed
  /// landmark side is otherwise its index alone.
  WindowBuffer sides_[2];
  std::vector<TupleRef> expired_;  ///< Scratch, reused across calls.
  /// Left tuples that have participated in at least one result
  /// (left_outer only; entries are purged on expiry).
  std::unordered_set<const Tuple*> left_matched_;
  WindowJoinStats jstats_;
  int flushes_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_WINDOW_JOIN_H_
