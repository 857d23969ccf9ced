#ifndef SQP_EXEC_SHARDED_OP_H_
#define SQP_EXEC_SHARDED_OP_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/exchange.h"
#include "exec/handoff.h"
#include "exec/operator.h"
#include "obs/event_log.h"
#include "obs/snapshot.h"

namespace sqp {

/// Builds one state-empty replica of the sharded sub-plan. Called once
/// per shard at construction; the replica is driven exclusively by that
/// shard's worker thread.
using ShardReplicaFactory = std::function<std::unique_ptr<Operator>(int)>;

struct ShardedOpOptions {
  /// Replica count (worker threads). 1 still exercises the full
  /// exchange/merge path — the honest baseline for scaling numbers.
  int shards = 4;
  ShardRouting routing = ShardRouting::kDisjoint;
  /// Partition key columns per input port; the vector's size is the
  /// operator's input port count (1 unary, 2 joins). An empty column
  /// list on a partitioned port routes round-robin.
  std::vector<std::vector<int>> key_cols = {{}};
  /// Bound of each shard's input queue in elements (0 = unbounded).
  size_t queue_limit = 1024;
  Backpressure backpressure = Backpressure::kBlock;
  /// Bound of the merge (fan-in) queue in elements (0 = unbounded).
  /// Shard workers block on it; the merge worker never blocks on
  /// shards, so there is no cycle to deadlock.
  size_t merge_queue_limit = 4096;
  /// The one hand-off batch size (ParallelExecutor::Stage::max_batch):
  /// a shard worker is woken once this many elements are queued
  /// (punctuations and a full queue wake at once), delivers same-port
  /// runs of at most this size as one ProcessBatch call, and its
  /// replica's output reaches the merge in chunks of this size. Unlike
  /// a stage, a shard worker claims its whole backlog per lock
  /// acquisition. Workers also poll on a ~1ms timeout so a sub-batch
  /// trickle is bounded.
  size_t batch = 64;
  /// Input-side Flush calls expected before the drain starts; 0 = the
  /// input port count (binary operators receive one flush per side).
  int expected_flushes = 0;
  /// Columnar delivery inside each shard: the worker converts every
  /// claimed same-port run into a ColumnBatch (ColumnBatch::FromRows)
  /// and hands it to the replica as one ProcessColumns call, falling
  /// back to ProcessBatch when conversion fails or the replica does not
  /// support columns on that port. Routing and the merge stay
  /// row-based — the hash exchange reads per-row keys and the merge
  /// re-serializes per element, so those are natural materialization
  /// boundaries.
  bool columnar = false;
  /// Structured event sink for backpressure stalls (nullptr = silent).
  /// A kShardStall event is emitted, rate-limited to one per second per
  /// shard, whenever a producer blocks on a full shard queue under
  /// kBlock — the signal that routing skew or an expensive replica is
  /// throttling ingest.
  obs::EventLog* events = nullptr;
  /// Query label stamped on emitted events ("q0", ...).
  std::string event_label;
};

/// Per-shard counters, snapshot-safe while the workers run.
struct ShardStats {
  /// Elements delivered to this shard's queue (broadcasts count once
  /// per shard — replicated routing's ingest amplification shows here).
  uint64_t routed = 0;
  /// Elements the merge worker forwarded downstream from this shard.
  uint64_t merged = 0;
  /// Elements lost at this shard's bounded queue (kDropNewest).
  uint64_t dropped = 0;
  uint64_t queue_depth = 0;
  uint64_t max_queue_depth = 0;
  /// Wall-clock seconds this shard's worker spent in its replica.
  double busy_time = 0.0;
  /// Replica-held state (windows, hash tables), sampled per batch.
  size_t state_bytes = 0;
};

/// Key-partitioned data-parallel execution of one stateful operator,
/// packaged as a drop-in Operator: N replicas of a keyed sub-plan run on
/// their own worker threads behind bounded queues, fed by a hash
/// exchange on the caller's thread and re-serialized by a
/// punctuation-correct merge on a dedicated fan-in thread.
///
///   caller ── route ──> shard queue i ── worker i ──> replica i
///                                                        │ emits
///   downstream <── merge worker <── merge queue <────────┘
///
/// Threading contract:
///  - Push/Flush stay single-caller (the usual Operator contract).
///  - Replica i is touched only by shard worker i; the downstream
///    operator is touched only by the merge worker — every operator
///    keeps exactly one driving thread, so debug single-caller asserts
///    and TSan stay clean.
///  - Stats accessors (shard_stats, SkewRatio, StateBytes,
///    CollectStats) are safe from any thread while running.
///
/// Flush protocol: the Nth input-side Flush (one per input port) closes
/// the shard queues; each worker drains its backlog, flushes its
/// replica (close-out emissions flow into the merge queue) and exits;
/// the merge worker forwards the tail, flushes downstream, and exits;
/// Flush returns after joining them all — results are safe to read.
///
/// Equivalence: with disjoint routing over the partition keys (or
/// replicated routing for joins), the merged output is the serial
/// operator's output up to inter-shard tuple reordering; watermarks
/// follow the min-across-shards rule so no element ever appears after a
/// watermark that should have sealed it. Count-based windows are NOT
/// shardable (a per-shard last-N is not the global last-N).
class ShardedOp : public Operator {
 public:
  ShardedOp(ShardedOpOptions options, ShardReplicaFactory factory,
            std::string name = "sharded");
  ~ShardedOp() override;

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  /// The merge emits downstream (on its own thread, into its own slot):
  /// this op's out-counters and watermark — post-merge event time, what
  /// the rest of the chain actually observes — read from there.
  const Operator& emitter() const override { return merge_; }

  int shards() const { return options_.shards; }
  ShardRouting routing() const { return options_.routing; }
  bool running() const { return running_.load(std::memory_order_acquire); }

  ShardStats shard_stats(int i) const;
  /// Max over shards of routed / mean routed (1.0 = perfectly even).
  double SkewRatio() const;
  /// Total elements lost at bounded shard queues.
  uint64_t dropped() const;
  /// Tuples (not punctuations) the merge forwarded downstream.
  uint64_t merged_tuples() const {
    return merged_tuples_.load(std::memory_order_relaxed);
  }

  /// Publishes per-shard counters (sqp_shard_*) under
  /// {base_labels..., op=name, shard=i} plus an op-level skew gauge —
  /// registered as a MetricsRegistry collector by whoever owns the op.
  void CollectStats(obs::SnapshotBuilder& builder,
                    const obs::LabelSet& base_labels) const;

 private:
  /// One shard's input channel + worker + replica + counters.
  struct ShardState {
    ShardState(const ShardedOpOptions& o, HandoffChannel* merge, int shard,
               std::unique_ptr<Operator> r)
        : channel(o.queue_limit, o.backpressure, o.batch),
          replica(std::move(r)),
          feed(merge, shard, o.batch, /*columns=*/false) {}
    HandoffChannel channel;
    /// Last kShardStall emission (ns) — rate limiter, touched only by
    /// the (single) Push caller.
    uint64_t last_stall_ns = 0;
    std::atomic<uint64_t> merged{0};
    std::atomic<uint64_t> busy_ns{0};
    std::atomic<size_t> state_bytes{0};
    std::unique_ptr<Operator> replica;
    ChannelFeed feed;  // Replica output -> merge channel, port = shard.
    std::thread worker;
  };

  void EnsureStarted();
  void Enqueue(int shard, const Element& e, int port);
  void ShardLoop(int shard);
  void MergeLoop();
  void JoinWorkers();

  ShardedOpOptions options_;
  ShardRouter router_;
  int expected_flushes_;
  /// Fan-in from every shard's feed; always kBlock (produced results
  /// must never be shed — load shedding belongs at the input queues).
  HandoffChannel merge_channel_;
  std::vector<std::unique_ptr<ShardState>> states_;
  ShardMergeOp merge_;
  std::thread merge_worker_;

  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> merged_tuples_{0};
  bool started_ = false;
  int flushes_seen_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_SHARDED_OP_H_
