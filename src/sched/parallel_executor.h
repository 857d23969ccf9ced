#ifndef SQP_SCHED_PARALLEL_EXECUTOR_H_
#define SQP_SCHED_PARALLEL_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "exec/handoff.h"
#include "exec/operator.h"
#include "sched/stage_stats.h"

namespace sqp {

/// Runs a linear chain of operators with one worker thread per stage,
/// connected by bounded Channels — the threaded counterpart of
/// QueuedExecutor, trading its explicit scheduling policy for actual
/// pipeline parallelism.
///
/// Threading contract:
///  - Each stage's operator is pushed and flushed only by that stage's
///    worker thread (operators stay single-caller; debug builds assert
///    this — see Operator::AssertSingleCaller).
///  - `Arrive` may be called from any number of producer threads (the
///    entry queue is MPSC); inter-stage queues are SPSC.
///  - The sink runs on the last stage's worker thread. Read results only
///    after Drain()/Stop() returned (the join gives happens-before).
///
/// Punctuations are never dropped: losing a watermark would stall every
/// windowed operator downstream, so punctuations bypass queue limits
/// (they may transiently exceed `queue_limit` by their own count).
///
/// Shutdown protocol:
///  - Drain(): closes the entry queue; each worker finishes its backlog,
///    flushes its operator (close-out emissions flow into the next
///    queue), closes the downstream queue and exits — a clean cascade
///    that ends with the sink flushed.
///  - Stop(): abandons queued elements and joins workers without
///    flushing. Safe to call at any time, including while producers are
///    blocked on a full queue.
class ParallelExecutor {
 public:
  struct Stage {
    Operator* op = nullptr;
    /// Bound on the stage's input queue in elements (0 = unbounded).
    size_t queue_limit = 0;
    /// Policy when the bounded queue is full.
    Backpressure backpressure = Backpressure::kBlock;
    /// Input port elements from the upstream queue are delivered on
    /// (port 0 for plain chains; set when wrapping pre-wired plans).
    int in_port = 0;
    /// The stage's one hand-off batch size. The worker is woken once
    /// this many elements are queued (or at once for a punctuation), and
    /// it claims at most this many per lock acquisition and delivers the
    /// run as one Operator::ProcessBatch call, so batches keep
    /// propagating downstream through Emit coalescing. The upstream
    /// stage's feed also sends in chunks of this size. <= 1 reproduces
    /// the classic element-at-a-time executor loop: a lock acquisition,
    /// a wakeup and one virtual Process per element. Order (tuples and
    /// punctuations alike) is preserved either way. Latency stays
    /// bounded: workers poll on a ~1 ms timeout, so a sub-batch trickle
    /// does not sit until the next batch fills.
    size_t max_batch = 64;
    /// Columnar delivery: the worker converts each claimed same-port
    /// run of row elements into a ColumnBatch (ColumnBatch::FromRows)
    /// and hands it to the operator as one ProcessColumns call, falling
    /// back to ProcessBatch when conversion fails (ragged or mixed-type
    /// rows). Columnar batches emitted by an upstream stage cross this
    /// stage's queue intact regardless of the flag — it only controls
    /// row→column conversion at this stage's delivery point. Meaningful
    /// only when the operator reports SupportsColumns(in_port).
    bool columnar = false;
  };

  /// `sink` receives the last stage's output; pass nullptr to keep the
  /// last operator's existing wiring (used when wrapping a plan whose
  /// root is already connected).
  ParallelExecutor(std::vector<Stage> stages, Operator* sink);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  /// Spawns one worker per stage. Call once, before the first Arrive.
  void Start();

  /// Enqueues an element into the first stage on its configured port.
  /// Returns false if it was dropped (bounded queue full under
  /// kDropNewest, or the executor is stopped/drained).
  bool Arrive(Element e);

  /// Same, delivering on an explicit port (multi-input plan wrappers).
  bool ArriveOn(Element e, int port);

  /// Closes the input and waits for the flush cascade to finish.
  void Drain();

  /// Abandons queued work and joins the workers (no flush).
  void Stop();

  bool running() const { return running_; }
  size_t num_stages() const { return states_.size(); }

  /// Snapshot of one stage's counters (safe to call while running).
  sched::StageStats stage_stats(size_t i) const;
  /// The configuration stage `i` was built with.
  const Stage& stage_config(size_t i) const { return states_[i]->cfg; }
  /// Publishes every stage's counters (sqp_stage_*) under
  /// {base_labels..., stage=i, op=name} — typically registered as a
  /// MetricsRegistry collector by whoever owns the executor. Safe to
  /// call while the workers run.
  void CollectStats(obs::SnapshotBuilder& builder,
                    const obs::LabelSet& base_labels) const;
  /// Total drops across all stages.
  uint64_t dropped() const;
  /// Elements currently waiting across all stage queues.
  size_t QueuedElements() const;

 private:
  /// One stage's input channel + worker + the counters the channel does
  /// not keep. Channel weights are elements: a columnar item weighs its
  /// live rows plus punctuation slots, so `queue_limit` bounds the same
  /// quantity either way.
  struct StageState {
    explicit StageState(const Stage& s)
        : cfg(s), channel(s.queue_limit, s.backpressure, s.max_batch) {}
    Stage cfg;
    HandoffChannel channel;
    // Written by the worker only.
    std::atomic<uint64_t> processed{0};
    std::atomic<uint64_t> batches{0};  // Batched deliveries.
    std::atomic<uint64_t> busy_ns{0};
    std::thread worker;
  };

  void WorkerLoop(size_t stage);

  std::vector<std::unique_ptr<StageState>> states_;
  /// feeds_[i] is stage i's output into stage i+1's channel.
  std::vector<std::unique_ptr<ChannelFeed>> feeds_;
  Operator* sink_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::atomic<bool> running_{false};
};

}  // namespace sqp

#endif  // SQP_SCHED_PARALLEL_EXECUTOR_H_
