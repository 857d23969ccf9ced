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

std::vector<ShardRewrite> ShardStatefulOps(Plan& plan,
                                           const ShardPlanOptions& options,
                                           bool columnar) {
  std::vector<ShardRewrite> rewrites;
  // Snapshot the candidates first: splicing adds ShardedOps to the plan,
  // and we must not revisit those (ShardedOp is not ShardableOperator,
  // but iterating a vector being appended to is asking for trouble).
  std::vector<Operator*> candidates;
  for (const auto& op : plan.operators()) candidates.push_back(op.get());

  for (Operator* op : candidates) {
    auto* shardable = dynamic_cast<ShardableOperator*>(op);
    if (shardable == nullptr) continue;

    ShardRewrite rw;
    rw.original = op;
    if (options.shards <= 1) {
      rw.reason = "shards<=1";
      rewrites.push_back(std::move(rw));
      continue;
    }
    std::string why;
    if (!shardable->CanShard(&why)) {
      rw.reason = why.empty() ? "not shardable" : why;
      rewrites.push_back(std::move(rw));
      continue;
    }

    std::vector<std::vector<int>> key_cols = shardable->ShardKeyColumns();
    const bool binary = key_cols.size() >= 2;
    ShardRouting routing = ShardRouting::kDisjoint;
    if (binary) {
      routing = options.routing;
      if (!AllPortsKeyed(key_cols)) routing = ShardRouting::kReplicated;
    } else if (key_cols.empty() || key_cols[0].empty()) {
      // Unary with no partition key: round-robin would scatter one
      // group's tuples across shards.
      rw.reason = "no partition key";
      rewrites.push_back(std::move(rw));
      continue;
    }

    ShardedOpOptions op_opts;
    op_opts.shards = options.shards;
    op_opts.routing = routing;
    op_opts.key_cols = key_cols;
    op_opts.queue_limit = options.queue_limit;
    op_opts.backpressure = options.backpressure;
    op_opts.merge_queue_limit = options.merge_queue_limit;
    op_opts.batch = options.batch;
    op_opts.expected_flushes = static_cast<int>(key_cols.size());
    op_opts.columnar = columnar;
    op_opts.events = options.events;
    op_opts.event_label = options.event_label;

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
    rw.routing = routing;
    rewrites.push_back(std::move(rw));
  }
  return rewrites;
}

}  // namespace sqp
