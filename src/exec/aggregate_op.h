#ifndef SQP_EXEC_AGGREGATE_OP_H_
#define SQP_EXEC_AGGREGATE_OP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agg/agg_set.h"
#include "common/key_table.h"
#include "dur/checkpointable.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/sharding.h"
#include "window/window_spec.h"

namespace sqp {

/// Configuration of a grouped aggregation (slide 34's general form:
/// select G, F1 from S where P group by G having F2 op theta).
struct GroupByOptions {
  /// Grouping columns of the input.
  std::vector<int> key_cols;
  /// Aggregate expressions.
  std::vector<AggSpec> aggs;
  /// When a group closes (the window taxonomy of slides 27-28):
  /// - Landmark(): one group-by over the whole (finite) stream, emitted
  ///   at Flush with ts = the max input ts.
  /// - TimeTumbling(W): disjoint buckets [kW, (k+1)W), each emitted with
  ///   ts = bucket start once the stream moves past it (the
  ///   `group by time/60 as tb` pattern of slides 13/37).
  /// - TimeSliding(W, S): a window [b-W, b) at every multiple b of S,
  ///   folded into panes of width gcd(W, S) and emitted with ts = b-W,
  ///   the window start. S == W is TimeTumbling(W).
  /// - Punctuated(): exactly one key column. A CloseKey on it closes that
  ///   group at the punctuation's ts, a watermark closes every group
  ///   whose last tuple is at or below it, and Flush closes the rest at
  ///   their last ts [TMSF03].
  WindowSpec window = WindowSpec::Landmark();
  /// Optional HAVING predicate over the *output* row layout
  /// (see OutputSchema); null = keep all.
  ExprRef having;
};

/// Grouped aggregation operator: the one operator that closes groups.
///
/// Output row layout: [ts, key..., agg...], ts as the window defines it
/// (see GroupByOptions::window). Watermarks close windows at or below
/// them; Flush closes everything.
///
/// Memory behaviour mirrors [ABB+02]: bounded iff the grouping columns
/// have bounded domains within a window and no aggregate is holistic —
/// measured, not assumed, via StateBytes() (experiment E4). A sliding
/// window keeps W/gcd(W, S) panes of partials per key, so its state does
/// not grow with the tuples in the window (E11).
///
/// Steady state allocates only the rows it emits. Each bucket's groups
/// are a `KeyTable`, and the last closed bucket's table, cleared,
/// becomes the next new bucket's: a new group takes a dead entry, its
/// key overwritten in place and its accumulators Reset. A group closed
/// alone stays dead in its bucket's table. HAVING is evaluated on one
/// reused scratch row, so a group that fails it costs no allocation.
/// Groups are emitted and checkpointed in their table's order: the
/// order they opened in, where closing a group moves the bucket's newest
/// into its place.
class GroupByAggregateOp : public Operator,
                           public ShardableOperator,
                           public CheckpointableOperator {
 public:
  GroupByAggregateOp(GroupByOptions options, std::string name = "group-by");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  /// Columnar ingest: keys and aggregate inputs are read straight from
  /// the typed arrays (no per-row Tuple); group rows and punctuations
  /// still emit through the row path.
  bool SupportsColumns(int /*port*/ = 0) const override { return true; }

  /// Partitioning on the full grouping key puts each group wholly on
  /// one shard, so ANY aggregate (holistic included) stays exact —
  /// no partial-aggregate merge is ever needed. A one-column key makes
  /// CloseKey punctuations hash-route (via OneValueKeyHash) to the shard
  /// holding the group they close.
  std::unique_ptr<Operator> CloneReplica() const override {
    return std::make_unique<GroupByAggregateOp>(options_, name());
  }
  std::vector<std::vector<int>> ShardKeyColumns() const override {
    return {options_.key_cols};
  }
  /// Global aggregates (no grouping key) have one group spanning every
  /// shard; landmark output stamps rows with the shard-local max ts, so
  /// only windowed or punctuation-bounded plans stay bit-identical.
  bool CanShard(std::string* why) const override {
    if (options_.key_cols.empty()) {
      if (why != nullptr) *why = "global aggregate spans all shards";
      return false;
    }
    if (close_ == Close::kAtFlush) {
      if (why != nullptr) *why = "unwindowed output ts is shard-local";
      return false;
    }
    return true;
  }

  /// Output schema for the given input schema; rejects a window this
  /// operator cannot close groups by.
  static Result<Schema> OutputSchema(const Schema& input,
                                     const GroupByOptions& options);

  /// Number of currently open (bucket or pane, group) pairs.
  size_t open_groups() const;
  /// Bucket or pane width: gcd(W, S) for a sliding window, W for a
  /// tumbling one, 0 when Flush or punctuation closes groups.
  int64_t pane_size() const { return width_; }
  /// Accumulator merges performed combining panes (the cost panes
  /// optimize: W/gcd(W, S) per key and slide, not one per tuple).
  uint64_t merges() const { return merges_; }

  /// Checkpointing: open buckets/groups and their accumulators round-trip
  /// exactly.
  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

 protected:
  void PushColumns(ColumnBatch& batch, int port) override;

 private:
  /// What closes a group, fixed by the window at construction.
  enum class Close { kAtFlush, kBucket, kPane, kPunctuation };

  struct GroupState {
    AggSet::Accs accs;
    int64_t last_ts = INT64_MIN;  ///< Newest tuple (punctuated close-out).
  };
  using GroupTable = KeyTable<GroupState>;  // KeyView-probed.
  using Buckets = std::map<int64_t, GroupTable>;

  /// The group `key` (a KeyView or Key) of the bucket holding `ts`,
  /// opened if absent.
  template <typename K>
  GroupState& GroupOf(int64_t ts, const K& key);
  /// The group `key` of `groups`, opened if absent.
  template <typename K>
  GroupState& OpenGroup(GroupTable& groups, const K& key);
  /// Emits what the stream's newest tuple (max_ts_) proves complete.
  void CloseAfterTuple();
  /// Closes what punctuation `p` completes; the caller forwards `p`.
  void CloseOnPunctuation(const Punctuation& p);
  void CloseBucketsThrough(int64_t watermark);
  void CloseWindowsThrough(int64_t watermark);
  void CloseQuietGroups(int64_t watermark);
  void CloseKey(int64_t ts, const Value& key);
  /// Merges every key's panes in [end - W, end) and emits the window.
  void EmitWindow(int64_t end);
  void EmitGroups(int64_t ts, const GroupTable& groups);
  void EmitGroup(int64_t ts, const Key& key, const GroupState& state);
  /// Erases the oldest bucket, keeping its cleared table as `retired_`.
  void RetireOldestBucket();
  static size_t TableBytes(const GroupTable& groups);

  GroupByOptions options_;
  AggSet aggs_;
  Close close_;
  int64_t width_ = 0;  ///< Bucket or pane width (kBucket, kPane).
  int64_t hop_ = 0;    ///< Window slide (kPane).
  // Buckets (or panes) in timestamp order so close-out is oldest-first;
  // landmark and punctuated groups all live in bucket 0.
  Buckets buckets_;  // bucket id -> groups
  /// The bucket the newest tuple folded into, or buckets_.end().
  Buckets::iterator last_bucket_ = buckets_.end();
  /// The last retired bucket, its table cleared: the next new bucket's.
  /// Never checkpointed (it holds no results).
  Buckets::node_type retired_;
  int64_t max_ts_ = INT64_MIN;
  int64_t next_end_ = INT64_MIN;  ///< First window end not yet emitted.
  uint64_t merges_ = 0;
  /// One window's per-key merge of its panes; cleared between windows.
  GroupTable merged_;
  /// Owning key reused to probe by CloseKey values and columnar rows.
  Key probe_key_;
  /// Output row [ts, key..., agg...] that HAVING reads before any
  /// tuple is built.
  Tuple scratch_;
};

}  // namespace sqp

#endif  // SQP_EXEC_AGGREGATE_OP_H_
