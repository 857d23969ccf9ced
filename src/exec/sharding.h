#ifndef SQP_EXEC_SHARDING_H_
#define SQP_EXEC_SHARDING_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/exchange.h"
#include "exec/operator.h"
#include "exec/plan.h"
#include "exec/sharded_op.h"

namespace sqp {

/// Mixin an operator implements to opt into key-partitioned execution
/// (ShardStatefulOps). The contract a shardable operator asserts:
/// running one replica per key partition, each fed exactly the tuples
/// whose ShardKeyColumns land there (watermarks broadcast), produces the
/// serial operator's output up to inter-partition reordering.
class ShardableOperator {
 public:
  virtual ~ShardableOperator() = default;

  /// A fresh, state-empty operator configured exactly like this one.
  /// Called once per shard; each replica is driven by a single worker
  /// thread, so replicas may share immutable config (expressions, agg
  /// specs) but never mutable state.
  virtual std::unique_ptr<Operator> CloneReplica() const = 0;

  /// Partition key columns per input port; the vector's size is the
  /// operator's input port count. An empty list on a port means the port
  /// carries no partitioning key (forces replicated routing for joins).
  virtual std::vector<std::vector<int>> ShardKeyColumns() const = 0;

  /// True when partitioned execution preserves this operator's
  /// semantics. False (with *why filled when non-null) for configs that
  /// don't partition — count-based windows (a per-shard last-N is not
  /// the global last-N), global aggregates (one group spans all
  /// shards), outer joins (pad-row timestamps depend on per-shard
  /// arrival interleaving).
  virtual bool CanShard(std::string* why) const = 0;
};

/// Knobs of the ShardStatefulOps rewrite; the per-operator routing mode
/// is derived (see ShardRewrite::routing), everything else passes
/// through to each spliced ShardedOp.
struct ShardPlanOptions {
  int shards = 4;
  /// Preferred routing for binary operators. Unary operators are always
  /// disjoint; a join with an unkeyed input port falls back to
  /// replicated regardless of this preference.
  ShardRouting routing = ShardRouting::kDisjoint;
  size_t queue_limit = 1024;
  Backpressure backpressure = Backpressure::kBlock;
  size_t merge_queue_limit = 4096;
  /// Hand-off batch size (ShardedOpOptions::batch).
  size_t batch = 64;
  /// Structured event sink + query label for backpressure-stall events,
  /// passed through to every spliced ShardedOp (nullptr = silent).
  obs::EventLog* events = nullptr;
  std::string event_label;
};

/// One operator's outcome under the rewrite: either spliced (sharded !=
/// nullptr, original disconnected but still plan-owned) or skipped
/// (sharded == nullptr, reason says why).
struct ShardRewrite {
  Operator* original = nullptr;
  ShardedOp* sharded = nullptr;
  ShardRouting routing = ShardRouting::kDisjoint;
  std::string reason;
};

/// Plan rewrite: replaces every shardable stateful operator in `plan`
/// with a ShardedOp running `options.shards` replicas of it, rewiring
/// upstream outputs and inheriting the original's downstream edge. The
/// original operators stay plan-owned (they serve as replica templates
/// during the rewrite) but are disconnected from the DAG.
///
/// `columnar` turns on columnar delivery inside each shard
/// (ShardedOpOptions::columnar): replicas that support columns fold
/// converted runs column-at-a-time.
///
/// Returns one entry per ShardableOperator found — spliced or skipped —
/// so callers (the engine's execution lowering, ExecutionOptions::
/// sharding) can patch external edges (query input tables) and register
/// shard metrics.
///
/// With options.shards <= 1 the plan is left untouched (every operator
/// reports skipped); the shards=1 baseline in benchmarks instead builds
/// a ShardedOp explicitly so the exchange overhead is measured, not
/// bypassed.
std::vector<ShardRewrite> ShardStatefulOps(Plan& plan,
                                           const ShardPlanOptions& options,
                                           bool columnar = false);

}  // namespace sqp

#endif  // SQP_EXEC_SHARDING_H_
