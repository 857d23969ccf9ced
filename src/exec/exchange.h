#ifndef SQP_EXEC_EXCHANGE_H_
#define SQP_EXEC_EXCHANGE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "exec/operator.h"

namespace sqp {

/// Tuple-routing mode of a hash exchange, after the shared-nothing
/// windowed-join paper's trade-off:
///  - kDisjoint: every input port is hash-partitioned on its key
///    columns, so each shard owns a disjoint key range. Cheapest (each
///    element crosses to exactly one shard) but requires every port to
///    be keyed on the partitioning attribute (equi-joins, group-by,
///    distinct).
///  - kReplicated: port 0 is partitioned (hashed when keyed, else
///    round-robin) and every other port is broadcast to all shards.
///    Each shard then joins its slice of port 0 against the full
///    opposite stream, producing every result exactly once — works for
///    predicates that disjoint routing can't partition, at the cost of
///    N-fold ingest of the broadcast side.
enum class ShardRouting { kDisjoint, kReplicated };

const char* ShardRoutingName(ShardRouting r);

/// ShardedOp's routing decision: element + port -> one shard, or
/// broadcast.
///
/// Watermarks always broadcast (every shard's windows must advance).
/// Key-addressed punctuations (CloseKey) follow their key under disjoint
/// routing — the owner shard holds all of that key's state — and
/// broadcast under replicated routing.
class ShardRouter {
 public:
  static constexpr int kBroadcast = -1;

  /// `key_cols_by_port[p]` are the partition key columns of input port
  /// p; its size fixes the operator's input port count. An empty column
  /// list on a partitioned port falls back to round-robin (balanced but
  /// key-oblivious — only sound under kReplicated or for stateless
  /// sub-plans).
  ShardRouter(int shards, ShardRouting routing,
              std::vector<std::vector<int>> key_cols_by_port);

  /// Target shard index, or kBroadcast. Non-const: round-robin ports
  /// advance a cursor.
  int Route(const Element& e, int port);

  int shards() const { return shards_; }
  ShardRouting routing() const { return routing_; }
  int ports() const { return static_cast<int>(key_cols_.size()); }

 private:
  int shards_;
  ShardRouting routing_;
  std::vector<std::vector<int>> key_cols_;
  uint64_t rr_ = 0;
};

/// Punctuation-correct fan-in of N shard output streams back into one.
///
/// Tuples forward in arrival order (inter-shard order is
/// nondeterministic under threading; per-shard order is preserved).
/// Watermarks apply the classic exchange merge rule: track each shard's
/// latest watermark and forward the minimum across shards whenever it
/// advances — downstream never sees time move before every shard got
/// there, so window close-outs stay exactly as correct as the serial
/// plan's. Key-addressed punctuations forward straight through under
/// disjoint routing (one shard owns the key) and are deduplicated under
/// replicated routing (forwarded once all shards emitted theirs).
///
/// Push port = originating shard index. Flush forwards downstream only
/// on the Nth call (one per shard), mirroring binary operators' per-port
/// flush counting.
class ShardMergeOp : public Operator {
 public:
  ShardMergeOp(int shards, ShardRouting routing,
               std::string name = "shard-merge");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  /// The merged (min-across-shards) watermark forwarded so far.
  int64_t merged_watermark() const { return emitted_wm_; }

 private:
  int shards_;
  ShardRouting routing_;
  std::vector<int64_t> shard_wm_;
  int64_t emitted_wm_;
  /// Replicated-mode CloseKey dedup: key -> (max ts seen, arrivals).
  std::unordered_map<Value, std::pair<int64_t, int>, ValueHash>
      pending_close_;
  int flushes_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_EXCHANGE_H_
