#ifndef SQP_SCHED_STAGE_STATS_H_
#define SQP_SCHED_STAGE_STATS_H_

#include <cstdint>
#include <string>

#include "obs/snapshot.h"

namespace sqp {
namespace sched {

/// Per-stage observability counters shared by the serial QueuedExecutor
/// and the threaded ParallelExecutor, so the two report comparably and
/// benchmarks/engines can watch throughput and loss per stage instead of
/// only a global drop counter.
struct StageStats {
  /// Elements accepted into the stage's input queue.
  uint64_t enqueued = 0;
  /// Elements popped from the queue and pushed into the operator.
  uint64_t processed = 0;
  /// Batched (ProcessBatch/ProcessColumns) deliveries into the stage's
  /// operator. 0 on pure per-element row paths (max_batch <= 1);
  /// processed/batches is the realized batch size otherwise.
  uint64_t batches = 0;
  /// Elements lost at this stage's queue (bounded queue overflow).
  uint64_t dropped = 0;
  /// Current occupancy of the stage's input queue at snapshot time, in
  /// elements — the instantaneous signal monitors and shedders act on
  /// (max_queue_depth only ratchets up and can't show recovery).
  uint64_t queue_depth = 0;
  /// High-water mark of the stage's input queue, in elements.
  uint64_t max_queue_depth = 0;
  /// Time the stage's operator spent processing. Wall-clock seconds for
  /// ParallelExecutor; scheduled cost units for QueuedExecutor (its
  /// clock is the simulated tick budget, not real time).
  double busy_time = 0.0;

  /// Elements still waiting (accepted but not yet processed). The two
  /// fields are snapshotted independently while workers run, so a
  /// transiently stale `enqueued` may read below `processed`; clamp
  /// instead of wrapping to a huge unsigned backlog.
  uint64_t Backlog() const {
    return processed > enqueued ? 0 : enqueued - processed;
  }

  std::string ToString() const;
};

/// The one description of StageStats' fields, shared by ToString and the
/// obs snapshot bridge so the serial and threaded executors render
/// identically everywhere. `fn(name, value, is_counter)` is called once
/// per field (is_counter=false marks point-in-time gauges).
template <typename Fn>
void ForEachStageStatField(const StageStats& s, Fn&& fn) {
  fn("enqueued", static_cast<double>(s.enqueued), true);
  fn("processed", static_cast<double>(s.processed), true);
  fn("batches", static_cast<double>(s.batches), true);
  fn("dropped", static_cast<double>(s.dropped), true);
  fn("backlog", static_cast<double>(s.Backlog()), false);
  fn("queue_depth", static_cast<double>(s.queue_depth), false);
  fn("max_queue_depth", static_cast<double>(s.max_queue_depth), false);
  fn("busy_time", s.busy_time, true);
}

/// Publishes one stage's counters as sqp_stage_<field> samples under
/// `labels` — the single reporting path both executors use to reach a
/// MetricsRegistry (see ParallelExecutor/QueuedExecutor::CollectStats).
void PublishStageStats(obs::SnapshotBuilder& builder,
                       const obs::LabelSet& labels, const StageStats& s);

}  // namespace sched
}  // namespace sqp

#endif  // SQP_SCHED_STAGE_STATS_H_
