#ifndef SQP_SCHED_QUEUED_EXECUTOR_H_
#define SQP_SCHED_QUEUED_EXECUTOR_H_

#include <deque>
#include <memory>
#include <vector>

#include "exec/operator.h"
#include "sched/policies.h"
#include "sched/stage_stats.h"

namespace sqp {

/// Executes a linear chain of real operators with an explicit queue in
/// front of each, under a pluggable scheduling policy — the bridge
/// between the analytic simulator and the physical operators: same
/// policies, real tuples.
///
/// Each operator is charged `cost` work units per consumed element; one
/// `Tick()` grants `capacity` units. Operator outputs are routed into the
/// next stage's queue (the last stage feeds the sink directly).
class QueuedExecutor {
 public:
  struct Stage {
    Operator* op = nullptr;
    double cost = 1.0;
    /// A-priori selectivity estimate handed to the policy (the policy
    /// never sees real output counts mid-run, mirroring [BBDM03]).
    double selectivity_hint = 1.0;
    /// Bound on the stage's input queue in elements (0 = unbounded).
    size_t queue_limit = 0;
    /// Delivery granularity: when the policy picks this stage and the
    /// budget covers more than one element, up to this many queued
    /// elements are handed to the operator as one ProcessBatch call
    /// (each still charged `cost`). 1 = per-element delivery, the
    /// default, which keeps the scheduling simulation exact: batching
    /// trades policy granularity for lower per-element overhead.
    size_t max_batch = 1;
  };

  QueuedExecutor(std::vector<Stage> stages, Operator* sink,
                 std::unique_ptr<SchedulingPolicy> policy);
  ~QueuedExecutor();

  /// Enqueues an arriving element into the first stage's queue. Returns
  /// false if the element was dropped (queue full).
  bool Arrive(Element e);

  /// Runs one time unit of processing.
  void Tick(double capacity = 1.0);

  /// Drains every queue (ignoring costs) and flushes the chain.
  void Drain();

  size_t QueuedElements() const;
  size_t QueuedBytes() const;
  /// Total drops across all stages. Bounded queues drop at *every*
  /// stage boundary (an overflowing relay hand-off counts against the
  /// receiving stage), not just at Arrive.
  uint64_t dropped() const { return dropped_; }
  /// Drops charged to one stage's input queue.
  uint64_t dropped(size_t stage) const { return stage_stats_[stage].dropped; }
  /// Per-stage counters, comparable with ParallelExecutor's. `busy_time`
  /// accumulates scheduled cost units (the simulator's clock), not wall
  /// time.
  const sched::StageStats& stage_stats(size_t stage) const {
    return stage_stats_[stage];
  }
  /// Publishes every stage's counters (sqp_stage_*) under
  /// {base_labels..., stage=i, op=name} — the same reporting path as
  /// ParallelExecutor::CollectStats, so serial and threaded runs land in
  /// one registry shape.
  void CollectStats(obs::SnapshotBuilder& builder,
                    const obs::LabelSet& base_labels) const;

 private:
  /// One queued element.
  struct Entry {
    Element e;
    uint64_t seq = 0;
    /// Enqueue timestamp, for queue-wait attribution: set on the one
    /// element in obs::kTimeSampleEvery the thread's sampler picks,
    /// 0 on the rest.
    uint64_t enq_ns = 0;
  };

  /// Routes a stage's output into the next stage's queue. Batch-aware:
  /// a batched flush moves its elements into queue entries instead of
  /// copying them one hand-off at a time, so delivery batches cross
  /// stage boundaries without per-element refcount traffic.
  class Relay;

  /// Fills `views_` with each stage's view for the policy.
  const std::vector<OpView>& MakeViews();
  /// Pops the first `n` entries of `stage`'s queue into its operator —
  /// one Process call when n == 1, one ProcessBatch call otherwise.
  void DeliverBatch(size_t stage, size_t n);

  /// Appends to `stage`'s queue, honoring its bound (punctuations are
  /// never dropped). Returns false and counts the drop on overflow.
  bool Admit(size_t stage, Element e);

  std::vector<Stage> stages_;
  std::vector<std::deque<Entry>> queues_;
  /// Reused across DeliverBatch calls: batched delivery must not pay a
  /// heap allocation per train.
  ElementBatch scratch_;
  std::vector<sched::StageStats> stage_stats_;
  // Relay sinks routing each stage's output into the next queue.
  std::vector<std::unique_ptr<Operator>> relays_;
  Operator* sink_;
  std::unique_ptr<SchedulingPolicy> policy_;
  /// Whether MakeViews sizes the queue heads (only for a policy that
  /// reads OpView::head_size).
  bool head_size_;
  /// Reused across picks: a pick allocates nothing.
  std::vector<OpView> views_;
  std::vector<double> progress_;
  uint64_t seq_ = 0;
  uint64_t dropped_ = 0;
};

}  // namespace sqp

#endif  // SQP_SCHED_QUEUED_EXECUTOR_H_
