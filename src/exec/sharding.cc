#include "exec/sharding.h"

#include <utility>

namespace sqp {

namespace {

bool AllPortsKeyed(const std::vector<std::vector<int>>& cols) {
  for (const auto& c : cols) {
    if (c.empty()) return false;
  }
  return true;
}

}  // namespace

std::vector<ShardRewrite> PlanShardRewrites(const Plan& plan, int shards) {
  std::vector<ShardRewrite> rewrites;
  for (const auto& op : plan.operators()) {
    const auto* shardable = dynamic_cast<const ShardableOperator*>(op.get());
    if (shardable == nullptr) continue;

    ShardRewrite rw;
    rw.original = op.get();
    std::string why;
    if (shards <= 1) {
      rw.reason = "shards<=1";
    } else if (!shardable->CanShard(&why)) {
      rw.reason = why.empty() ? "not shardable" : why;
    } else {
      std::vector<std::vector<int>> key_cols = shardable->ShardKeyColumns();
      if (key_cols.size() >= 2) {
        if (!AllPortsKeyed(key_cols)) rw.routing = ShardRouting::kReplicated;
      } else if (key_cols.empty() || key_cols[0].empty()) {
        // Unary with no partition key: round-robin would scatter one
        // group's tuples across shards.
        rw.reason = "no partition key";
      }
    }
    rewrites.push_back(std::move(rw));
  }
  return rewrites;
}

std::vector<ShardRewrite> ShardStatefulOps(Plan& plan,
                                           const ShardPlanOptions& options,
                                           bool columnar,
                                           obs::EventLog* events,
                                           const std::string& event_label) {
  // Decide first: splicing adds ShardedOps to the plan, and the walk must
  // not see those.
  std::vector<ShardRewrite> rewrites = PlanShardRewrites(plan, options.shards);
  for (ShardRewrite& rw : rewrites) {
    if (!rw.reason.empty()) continue;
    Operator* op = rw.original;
    auto* shardable = dynamic_cast<ShardableOperator*>(op);

    ShardedOpOptions op_opts;
    op_opts.shards = options.shards;
    op_opts.routing = rw.routing;
    op_opts.key_cols = shardable->ShardKeyColumns();
    op_opts.expected_flushes = static_cast<int>(op_opts.key_cols.size());
    op_opts.columnar = columnar;
    op_opts.events = events;
    op_opts.event_label = event_label;

    ShardedOp* sharded = plan.Make<ShardedOp>(
        op_opts, [shardable](int) { return shardable->CloneReplica(); },
        "sharded(" + op->name() + ")");

    // Inherit the downstream edge, then steal every upstream edge.
    sharded->SetOutput(op->output(), op->output_port());
    for (const auto& other : plan.operators()) {
      if (other.get() != sharded && other->output() == op) {
        other->SetOutput(sharded, other->output_port());
      }
    }
    op->SetOutput(nullptr);
    rw.sharded = sharded;
  }
  return rewrites;
}

}  // namespace sqp
