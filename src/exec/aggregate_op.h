#ifndef SQP_EXEC_AGGREGATE_OP_H_
#define SQP_EXEC_AGGREGATE_OP_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/agg_set.h"
#include "dur/checkpointable.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/sharding.h"

namespace sqp {

/// Configuration of a grouped aggregation (slide 34's general form:
/// select G, F1 from S where P group by G having F2 op theta).
struct GroupByOptions {
  /// Grouping columns of the input.
  std::vector<int> key_cols;
  /// Aggregate expressions.
  std::vector<AggSpec> aggs;
  /// Tumbling window width in ordering units; 0 = single group-by over the
  /// whole (finite) stream, emitted at Flush. With a window, each bucket's
  /// groups are emitted when the stream moves past the bucket (the
  /// `group by time/60 as tb` pattern of slides 13/37).
  int64_t window_size = 0;
  /// Optional HAVING predicate over the *output* row layout
  /// (see OutputSchema); null = keep all.
  ExprRef having;
};

/// Grouped aggregation operator.
///
/// Output row layout: [ts, key..., agg...] where ts is the window-bucket
/// start (or the max input ts when unwindowed). Watermark punctuations
/// close buckets at or below the watermark; Flush closes everything.
///
/// Memory behaviour mirrors [ABB+02]: bounded iff the grouping columns
/// have bounded domains within a window and no aggregate is holistic —
/// measured, not assumed, via StateBytes() (experiment E4).
///
/// Steady state allocates only the rows it emits and each bucket's hash
/// table. A closed bucket's group nodes move onto a free list, never
/// longer than the largest closed bucket, and a new group takes one: its
/// key is overwritten in place and its accumulators Reset. HAVING is
/// evaluated on one reused scratch row, so a group that fails it costs
/// no allocation. Hash tables are not reused: group order within a
/// bucket, the order rows are emitted and checkpointed in, follows the
/// table's growth.
class GroupByAggregateOp : public Operator,
                           public ShardableOperator,
                           public CheckpointableOperator {
 public:
  GroupByAggregateOp(GroupByOptions options, std::string name = "group-by");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  /// Partitioning on the full grouping key puts each group wholly on
  /// one shard, so ANY aggregate (holistic included) stays exact —
  /// no partial-aggregate merge is ever needed.
  std::unique_ptr<Operator> CloneReplica() const override {
    return std::make_unique<GroupByAggregateOp>(options_, name());
  }
  std::vector<std::vector<int>> ShardKeyColumns() const override {
    return {options_.key_cols};
  }
  /// Global aggregates (no grouping key) have one group spanning every
  /// shard; unwindowed grouped output stamps rows with the shard-local
  /// max ts, so only windowed or punctuation-bounded plans stay
  /// bit-identical.
  bool CanShard(std::string* why) const override {
    if (options_.key_cols.empty()) {
      if (why != nullptr) *why = "global aggregate spans all shards";
      return false;
    }
    if (options_.window_size <= 0) {
      if (why != nullptr) *why = "unwindowed output ts is shard-local";
      return false;
    }
    return true;
  }

  /// Output schema for the given input schema.
  static Result<Schema> OutputSchema(const Schema& input,
                                     const GroupByOptions& options);

  /// Number of currently open (bucket, group) pairs.
  size_t open_groups() const;

  /// Checkpointing: open buckets/groups and their accumulators round-trip
  /// exactly, unless an aggregate is sketch-backed (no serializer).
  bool CanCheckpointState(std::string* why) const override {
    return aggs_.CanCheckpoint(why);
  }
  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

 private:
  struct GroupState {
    AggSet::Accs accs;
  };
  using GroupMap = KeyMap<GroupState>;  // KeyView-probed (zero-alloc).

  void FoldTuple(const Tuple& t);
  void EmitBucket(int64_t bucket, const GroupMap& groups);
  void CloseBucketsThrough(int64_t watermark);
  /// Moves a closed bucket's groups onto the free list.
  void Recycle(GroupMap& groups);
  static size_t GroupBytes(const Key& key, const GroupState& state);

  GroupByOptions options_;
  AggSet aggs_;
  // Buckets in timestamp order so close-out is oldest-first.
  std::map<int64_t, GroupMap> buckets_;  // bucket id -> groups
  int64_t max_ts_ = INT64_MIN;
  /// Reset groups of closed buckets, ready for reuse; never checkpointed
  /// (it holds no results).
  std::vector<GroupMap::node_type> free_groups_;
  size_t max_closed_ = 0;  ///< Most groups any closed bucket held.
  /// Output row [ts, key..., agg...] that HAVING reads before any
  /// tuple is built.
  Tuple scratch_;
};

}  // namespace sqp

#endif  // SQP_EXEC_AGGREGATE_OP_H_
