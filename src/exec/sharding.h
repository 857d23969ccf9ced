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

/// The ShardStatefulOps rewrite's one knob. Each spliced ShardedOp
/// takes its routing from its operator's key columns (ShardRewrite::
/// routing) and its queues and batch size from ShardedOpOptions'
/// defaults.
struct ShardPlanOptions {
  int shards = 4;
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

/// The rewrite's per-operator decision, made without touching `plan`:
/// one entry per ShardableOperator, with `reason` empty (and `routing`
/// set) exactly when ShardStatefulOps would splice it. Binary operators
/// route disjoint when every input port is keyed, replicated otherwise;
/// unary operators need a partition key. With shards <= 1 every entry
/// is skipped.
std::vector<ShardRewrite> PlanShardRewrites(const Plan& plan, int shards);

/// Plan rewrite: replaces every shardable stateful operator in `plan`
/// (per PlanShardRewrites) with a ShardedOp running `options.shards`
/// replicas of it, rewiring upstream outputs and inheriting the
/// original's downstream edge. The original operators stay plan-owned
/// (they serve as replica templates during the rewrite) but are
/// disconnected from the DAG.
///
/// `columnar` turns on columnar delivery inside each shard
/// (ShardedOpOptions::columnar): replicas that support columns fold
/// converted runs column-at-a-time. `events` and `event_label` pass
/// through to every spliced ShardedOp for backpressure-stall events
/// (nullptr = silent).
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
                                           bool columnar = false,
                                           obs::EventLog* events = nullptr,
                                           const std::string& event_label = {});

}  // namespace sqp

#endif  // SQP_EXEC_SHARDING_H_
