#ifndef SQP_ARCH_ENGINE_H_
#define SQP_ARCH_ENGINE_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cql/planner.h"
#include "dur/checkpointable.h"
#include "dur/manager.h"
#include "exec/profiler.h"
#include "exec/sharding.h"
#include "obs/event_log.h"
#include "obs/monitor.h"
#include "obs/registry.h"
#include "sched/parallel_executor.h"
#include "shed/feedback_shedder.h"
#include "shed/load_shedder.h"

namespace sqp {

namespace server {
class QueryServer;
struct QueryServerOptions;
}  // namespace server

/// Options governing how the engine treats one registered stream.
struct StreamOptions {
  /// Tolerated disorder (ordering units); > 0 splices a SlackReorderOp
  /// into the plan of every query reading the stream, in front of the
  /// input that reads it.
  int64_t reorder_slack = 0;
  /// Heartbeat period; > 0 splices a HeartbeatOp there too (after the
  /// reorder), injecting watermarks every `period` units so windowed
  /// queries make progress on quiet streams.
  int64_t heartbeat_period = 0;
};

/// Tuning for monitor-driven adaptive shedding (ExecutionOptions::shed).
struct AdaptiveShedOptions {
  /// PI controller tuning: the backlog to hold and the gains mapping
  /// normalized backlog error to drop probability.
  FeedbackShedder::Options controller;
  /// Seed of the random-drop gate in front of the query.
  uint64_t seed = 42;
  /// Where the controller reads the query's backlog each monitor tick.
  /// Default (empty): the query's ParallelExecutor queue occupancy.
  /// Serial queries have no executor queue and must supply a probe
  /// (e.g. an application-side buffer length).
  std::function<size_t()> backlog_probe;
};

/// How one standing query executes. Submit checks the options against
/// the compiled plan before anything is published — a refusal is
/// kFailedPrecondition and leaves nothing behind — then lowers them in
/// one fixed order: shard rewrite, executor stages, shed gate.
struct ExecutionOptions {
  /// Vectorized delivery: executor stages and shard replicas hand
  /// queued tuple runs to column-capable operators (select, project,
  /// group-by) as ColumnBatches; output is bit-identical to
  /// the row path. Needs `parallel`, or `sharding` that splices at
  /// least one shard rewrite: serial ingest delivers one element at a
  /// time.
  bool columnar = false;
  /// Key-partitioned data parallelism (ShardStatefulOps): each shardable
  /// stateful operator (joins, keyed group-bys) becomes `shards`
  /// replicas behind a hash exchange and a punctuation-correct merge;
  /// the rest stay serial (QueryHandle::shard_rewrites() says why).
  /// `shards` must be >= 1.
  std::optional<ShardPlanOptions> sharding;
  /// Threaded execution: Ingest only enqueues (blocking when the query
  /// falls behind by a full 1024-element stage queue) and FinishAll
  /// drains and joins the workers. Single-input chains get one worker
  /// per operator, reorder/heartbeat front-ends included; other plans,
  /// and sharded ones, run whole on one worker.
  bool parallel = false;
  /// Closed-loop load shedding: a drop gate in front of the query whose
  /// rate a FeedbackShedder sets from the query's backlog each monitor
  /// tick (starting the monitor if none runs). Single-input queries
  /// only; without `parallel`, AdaptiveShedOptions::backlog_probe is
  /// required.
  std::optional<AdaptiveShedOptions> shed;
};

/// Tuning for StreamEngine::Submit.
struct SubmitOptions {
  /// Streaming callback invoked per output tuple, wired atomically with
  /// registration: no element delivered after Submit returns can miss
  /// it. Runs on whichever thread drives the query's sink (the ingest
  /// thread for serial queries, a worker for parallel ones) — it must be
  /// thread-compatible with that and should not call back into the
  /// engine's registration API.
  std::function<void(const TupleRef&)> on_result;
  /// When false, the engine does not retain output rows in the handle's
  /// results() collector — the mode for standing server queries, whose
  /// output goes to a bounded per-session queue instead of an unbounded
  /// in-process vector.
  bool collect = true;
  /// Execution mode (default: serial, row at a time, no shedding).
  ExecutionOptions exec;
};

/// What EnableDurability's recovery pass did, for operators and tests.
struct RecoveryReport {
  /// True when EnableDurability found an existing archive or checkpoint
  /// and ran recovery (even if nothing needed replaying).
  bool recovered = false;
  bool checkpoint_loaded = false;
  uint64_t checkpoint_id = 0;
  /// Archive position the checkpoint captured; included queries replay
  /// only records past it.
  uint64_t checkpoint_position = 0;
  uint64_t replayed_tuples = 0;
  uint64_t replayed_puncts = 0;
  /// Queries whose operator state was restored from the checkpoint.
  size_t restored_queries = 0;
  size_t restored_operators = 0;
  /// Queries replayed from seq 0 (not in the checkpoint, or their plan
  /// is not checkpointable).
  size_t replay_from_zero_queries = 0;
  /// Streams whose archive tail was torn by the crash (truncated at the
  /// last intact record).
  size_t torn_streams = 0;
  double replay_seconds = 0.0;

  std::string ToString() const;
};

/// A handle to one standing (continuous, persistent) query.
class QueryHandle {
 public:
  /// Rows produced so far (the engine collects by default).
  ///
  /// For a parallel query (ExecutionOptions::parallel) the results are
  /// written by a worker thread: read them only after FinishAll(), which
  /// joins the workers.
  const std::vector<TupleRef>& results() const { return sink_->tuples(); }
  size_t result_count() const { return sink_->count(); }
  void ClearResults() { sink_->Clear(); }

  /// True once the query runs on its own worker thread(s).
  bool parallel() const { return parallel_ != nullptr; }
  /// Per-stage counters of the parallel executor (null when serial).
  const ParallelExecutor* parallel_executor() const { return parallel_.get(); }

  const Schema& output_schema() const { return query_->output_schema(); }
  const MemoryAnalysis& memory() const { return query_->memory(); }
  const std::string& text() const { return text_; }
  const std::string& plan_desc() const { return query_->plan_desc(); }
  /// Label this query reports under in the engine registry, profiles
  /// and events ("q0", "q1", ... in submission order).
  const std::string& metrics_label() const { return metrics_label_; }

  /// Measured end-to-end (ingest -> sink) latency histogram, in ns.
  /// Null when the query was submitted unpublished (SetMetricsEnabled).
  const obs::Histogram* latency_histogram() const {
    return latency_hist_.get();
  }

  /// True once the shard rewrite spliced at least one ShardedOp into
  /// this query's plan.
  bool sharded() const { return !sharded_ops_.empty(); }
  /// The spliced sharded operators (plan-owned), for stats inspection.
  const std::vector<ShardedOp*>& sharded_ops() const { return sharded_ops_; }
  /// Rewrite report of the shard rewrite: one entry per stateful
  /// operator, spliced or skipped-with-reason.
  const std::vector<ShardRewrite>& shard_rewrites() const {
    return shard_rewrites_;
  }

  /// True when the query runs behind an adaptive drop gate.
  bool adaptive_shedding() const { return shed_gate_ != nullptr; }
  /// Current drop probability of the adaptive gate (0 when detached).
  double shed_drop_rate() const {
    return shed_gate_ != nullptr ? shed_gate_->drop_rate() : 0.0;
  }
  /// Tuples the adaptive gate has shed so far.
  uint64_t shed_dropped() const {
    return shed_gate_ != nullptr ? shed_gate_->dropped() : 0;
  }

 private:
  friend class StreamEngine;

  /// End of stream for this query: flushes every input (parallel: drains
  /// and joins the executor).
  void Finish();

  std::string text_;
  std::string metrics_label_;
  // End-to-end latency histogram (see pending_ingest_ns_), published by
  // the query's registry collector; null when unpublished. Declared
  // before the operators that observe into it, so it dies after them.
  std::unique_ptr<obs::Histogram> latency_hist_;
  std::unique_ptr<cql::CompiledQuery> query_;
  std::unique_ptr<CollectorSink> sink_;
  std::unique_ptr<Operator> tee_;  // Collector + callback fan-out.
  std::function<void(const TupleRef&)> callback_;
  // One per query input (stream occurrence): Ingest pushes the stream's
  // elements into query input `port`.
  struct Tap {
    std::string stream;
    int port;
  };
  std::vector<Tap> taps_;
  // The threaded executor running this query's plan (exec.parallel),
  // plus the adapter operator for the whole-query fallback.
  // Declared after query_/tee_ so it is destroyed (joined) first.
  std::unique_ptr<Operator> parallel_adapter_;
  std::unique_ptr<ParallelExecutor> parallel_;
  // Set by the shard rewrite (plan-owned; the handle only observes).
  std::vector<ShardedOp*> sharded_ops_;
  std::vector<ShardRewrite> shard_rewrites_;
  bool chain_mode_ = false;  // True: plan split op-per-stage.
  // Archive seq boundary at registration (set under the exclusive
  // registration lock by Submit, or by EnableDurability for queries that
  // predate it): records <= submit_seq_ were never delivered live to
  // this handle, records > it are. ReplayInto replays only up to here.
  uint64_t submit_seq_ = 0;
  // End-to-end latency probe: the engine arms `pending_ingest_ns_` with
  // a NowNs() timestamp on every Nth delivered tuple (arm-if-empty, so
  // a sample in flight is never overwritten); the tee claims it at the
  // first output and records the difference into latency_hist_. One
  // atomic slot, no allocation, works across the parallel queue
  // boundary.
  std::atomic<uint64_t> pending_ingest_ns_{0};
  uint64_t latency_countdown_ = 1;  // Ingest-thread only; fires at 0.
  // Adaptive shedding (exec.shed): ingest-side drop gate, its
  // forwarding sink into the normal delivery path, the controller, and
  // the last backlog it observed (written on the monitor thread).
  std::unique_ptr<RandomDropOp> shed_gate_;
  std::unique_ptr<Operator> shed_fwd_;
  std::unique_ptr<FeedbackShedder> shedder_;
  std::atomic<size_t> shed_backlog_{0};
  // Profiler tap stamping every watermark entering this query (set at
  // Submit when the query is published); owned by the engine's
  // QueryProfiler.
  obs::QueryProfiler::SourceWatermark* profile_source_ = nullptr;
  // Shed-gate transition tracker for the event log; touched only by the
  // monitor tick listener thread.
  bool shed_active_ = false;
};

/// The engine: a registry of streams and standing queries with shared
/// ingest — the "DSMS" box of slide 14 as a library object.
///
///   StreamEngine engine;
///   engine.RegisterStream("packets", gen::PacketSchema());
///   auto q = engine.Submit("select ... from packets ...");
///   engine.Ingest("packets", tuple);   // Fans out to every reader.
///   engine.FinishAll();
///
/// Single-threaded by default; scheduling and shedding wrap around it
/// (sqp/sched, sqp/shed) rather than inside it. Individual queries pick
/// threaded, sharded, columnar or shed execution at Submit
/// (SubmitOptions::exec).
class StreamEngine {
 public:
  /// Registers a stream with optional domain metadata and per-stream
  /// disorder/heartbeat handling.
  Status RegisterStream(const std::string& name, SchemaRef schema,
                        std::vector<FieldDomain> domains = {},
                        StreamOptions options = {});

  /// Compiles and installs a standing query, lowered to the execution
  /// mode in options.exec under the same lock that makes it live. The
  /// handle stays valid until Remove() or the engine's destruction.
  ///
  /// Registration is safe against a concurrent Ingest from another
  /// thread (the query-server front door does exactly that): Submit,
  /// Remove and EnableSharding take the registration lock exclusively,
  /// Ingest takes it shared. Ingest itself must still come from one
  /// thread at a time — operators are not concurrent.
  Result<QueryHandle*> Submit(const std::string& query_text) {
    return Submit(query_text, SubmitOptions{});
  }
  Result<QueryHandle*> Submit(const std::string& query_text,
                              SubmitOptions options);

  /// Tears one standing query down against a running engine: flushes it
  /// (unless the engine already finished), detaches its metrics
  /// collectors and shedding loop, and destroys the handle. Safe against
  /// concurrent Ingest. The caller must guarantee the query's on_result
  /// callback cannot block indefinitely once Remove is called (close the
  /// downstream queue first), or the final flush could wedge.
  Status Remove(QueryHandle* handle);

  /// Shards an already submitted query, as ExecutionOptions::sharding
  /// would have at Submit. Kept only for callers that shard after
  /// registering; new code sets SubmitOptions::exec.sharding. Refuses a
  /// query that is already sharded, has received input, or runs on a
  /// parallel executor (whose stages hold the edges the rewrite moves).
  Status EnableSharding(QueryHandle* handle, ShardPlanOptions options = {});

  /// Pushes one tuple (or punctuation) into every query reading `stream`.
  /// Cost is O(readers of `stream`): one lookup finds the stream's reader
  /// list, and queries on other streams are never visited. Readers are
  /// delivered in query-submission order, then tap order (a self-join
  /// gets the element on each port in turn). The list holds pointers
  /// into each handle's taps_, which never change after Submit.
  Status Ingest(const std::string& stream, const TupleRef& tuple);
  Status IngestElement(const std::string& stream, const Element& e);

  /// Ends every stream: flushes all queries (closing windows/groups).
  void FinishAll();

  /// The engine-wide metrics registry. Every published query (the
  /// default) reports per-operator counters here through its collector,
  /// labeled q0, q1, ... in submission order, until Remove; parallel
  /// queries additionally publish per-stage queue stats. Snapshot it any
  /// time — including while ingest/workers run — via
  /// Metrics().TakeSnapshot().
  obs::MetricsRegistry& Metrics() { return metrics_; }
  const obs::MetricsRegistry& Metrics() const { return metrics_; }

  /// Whether queries submitted *after* the call are published: their
  /// registry collector (operator rows, watermark gauges), their
  /// EXPLAIN ANALYZE profile, their end-to-end latency histogram and
  /// lineage tracing. Operators count into their always-on slots either
  /// way; this only decides what the engine exposes.
  void SetMetricsEnabled(bool on) { metrics_enabled_ = on; }
  bool metrics_enabled() const { return metrics_enabled_; }

  /// The engine's structured event log: a bounded ring of timestamped
  /// lifecycle events (query submit/stop, checkpoints, replay, shed-gate
  /// transitions, shard backpressure stalls, durability flush errors).
  /// Exported at /events.json and tailed by `sqpsh \events`. Safe from
  /// any thread.
  obs::EventLog& Events() { return events_; }
  const obs::EventLog& Events() const { return events_; }

  /// Copies one query's profile (the EXPLAIN ANALYZE payload): per-
  /// operator rows in/out, selectivity, busy time, batch-size shape,
  /// queue wait, state bytes, and event-time watermark lag against the
  /// query's source watermark. Published queries are profiled; returns
  /// false for unknown or unpublished labels. Safe from any thread while
  /// ingest runs.
  bool ProfileSnapshot(const std::string& label, obs::QueryProfile* out) const;
  bool ProfileSnapshot(const QueryHandle* handle,
                       obs::QueryProfile* out) const;
  /// Labels of the currently profiled queries.
  std::vector<std::string> ProfiledQueries() const;

  /// Samples every Nth ingested tuple's path through its plan(s) into
  /// the trace ring (0 = off). Applies to published queries.
  void EnableTracing(uint64_t sample_every) {
    metrics_.EnableTracing(sample_every);
  }

  /// 1/N sampling period of the end-to-end latency probes (default 256,
  /// 0 disables). Takes effect at the next Ingest.
  void SetLatencySampleEvery(uint64_t n) { latency_sample_every_ = n; }
  uint64_t latency_sample_every() const { return latency_sample_every_; }

  /// Starts the engine's continuous monitor over Metrics() (idempotent;
  /// later calls return the existing monitor and ignore `options`).
  /// With options.period_ms <= 0 no sampler thread is spawned — drive
  /// observation manually with monitor()->TickOnce().
  obs::Monitor& StartMonitor(obs::MonitorOptions options = {});
  obs::Monitor* monitor() { return monitor_.get(); }
  const obs::Monitor* monitor() const { return monitor_.get(); }

  /// Starts the engine's HTTP surface (server::QueryServer) on `port` —
  /// 0 binds an ephemeral port. Clients POST CQL to /query, receive a
  /// session id, and stream results back via long-poll GET
  /// /session/<id>/results with cursor resume; scrapers read /metrics,
  /// /snapshot.json, /series.json, /events.json and /profile/<q>.json
  /// from the same port. Starts the monitor (default options) before the
  /// listener accepts if none exists, so /series.json has history.
  /// Returns the bound port. Defined in src/server/engine_serve.cc (the
  /// server subsystem layers above the engine).
  Result<int> Serve(int port);
  Result<int> Serve(int port, const server::QueryServerOptions& options);
  server::QueryServer* query_server() { return server_.get(); }

  /// True once FinishAll() ran: streams are closed and new ingest is
  /// rejected.
  bool finished() const { return finished_; }

  /// Turns on the durable archive under `dir` (created if absent): every
  /// ingested element — tuples and punctuation — is appended to a
  /// per-stream segmented write-ahead archive before delivery, group-
  /// committed by a background flusher. If `dir` already holds an
  /// archive and options.recover is set (the default), recovery runs
  /// first: the latest checkpoint's operator state is restored into
  /// matching already-submitted queries (matched by CQL text) and the
  /// archive suffix is replayed through their plans in original ingest
  /// order, so Submit your queries *before* calling this. Defined in
  /// src/arch/engine_dur.cc.
  Status EnableDurability(const std::string& dir,
                          dur::DurabilityOptions options = {});
  bool durable() const { return dur_ != nullptr; }
  dur::DurabilityManager* durability() { return dur_.get(); }
  /// What the recovery pass of the last EnableDurability did.
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// Flushes the archive and writes a checkpoint of every query's
  /// operator state now. Safe from any thread: takes the registration
  /// lock exclusively, so concurrent ingest is held off while live
  /// operator state is read.
  Status CheckpointNow();

  /// Replays the archived past into one freshly submitted query — the
  /// "--replay" mode: submit a fresh query over the archived past, pour
  /// the archive through it, then let live ingest take over. Replay
  /// stops at the handle's Submit-time archive position: anything
  /// archived after Submit is (or will be) delivered live, so elements
  /// that raced in between Submit and this call are never delivered
  /// twice. Returns the number of elements delivered. Takes the
  /// registration lock exclusively; the handle's on_result callback must
  /// not block.
  Result<uint64_t> ReplayInto(QueryHandle* handle);

  const cql::Catalog& catalog() const { return catalog_; }
  size_t num_queries() const { return queries_.size(); }
  const std::vector<std::unique_ptr<QueryHandle>>& queries() const {
    return queries_;
  }

  /// Aggregate state across all standing queries.
  size_t TotalStateBytes() const;

 private:
  /// The one delivery path from ingest into a query: arms the latency
  /// probe, then routes to the parallel executor or the query's input
  /// (its reorder/heartbeat front-ends are plan operators there). The
  /// adaptive-shedding gate sits in front of this.
  void DeliverDirect(QueryHandle& q, const QueryHandle::Tap& tap,
                     const Element& e);

  /// Checks `exec` against `q`'s compiled plan; a refusal
  /// is kFailedPrecondition (cql::Compile never returns that code).
  static Status ValidateExec(const ExecutionOptions& exec,
                             const QueryHandle& q);
  /// The lowering pass for a validated `exec`: shard rewrite, then the
  /// executor stages (with the columnar flag), then the shed gate and
  /// its monitor tick listener. Requires reg_mu_ held exclusively.
  void LowerExec(QueryHandle& q, ExecutionOptions exec);

  /// Checkpointing/recovery internals (src/arch/engine_dur.cc). All
  /// require reg_mu_ held (shared is enough for CheckpointLocked only
  /// when called on the ingest thread, where operators are quiescent;
  /// any other caller must hold it exclusively — CheckpointNow does.
  /// RecoverLocked runs under the exclusive lock of EnableDurability
  /// before any concurrent ingest exists).
  Status CheckpointLocked();
  Status RecoverLocked();
  /// Walks `q`'s plan; true when every operator either carries state
  /// serializers (collected into `ops`, sink last) or is known
  /// stateless. False (with `why`) excludes the query from checkpoints —
  /// recovery then replays its archive input from seq 0.
  bool CollectCheckpointOps(QueryHandle& q,
                            std::vector<CheckpointableOperator*>* ops,
                            std::string* why) const;

  /// Guards the query/stream registries against concurrent registration
  /// and delivery: Ingest takes it shared (one ingest thread may overlap
  /// a Submit/Remove from a server connection thread), all registration
  /// and teardown paths take it exclusive.
  mutable std::shared_mutex reg_mu_;

  /// What ingest and recovery replay need about one stream, found with
  /// one lookup. `readers` changes only under the exclusive reg_mu_:
  /// Submit appends the new query's taps, Remove erases its entries.
  struct StreamState {
    StreamOptions options;
    obs::Counter* ingested = nullptr;  // sqp_stream_ingested_total.
    struct Reader {
      QueryHandle* query;
      const QueryHandle::Tap* tap;
    };
    std::vector<Reader> readers;
  };

  // Schemas for cql::Compile; ingest consults only streams_.
  cql::Catalog catalog_;
  std::map<std::string, StreamState> streams_;
  // Outlives queries_ (destroyed later): operators hold its tracer.
  // Collectors that reference per-query state are only invoked via
  // TakeSnapshot, never during destruction.
  obs::MetricsRegistry metrics_;
  // Like metrics_, both outlive queries_ (declared before, destroyed
  // after): teardown paths emit events until the last handle dies.
  obs::EventLog events_;
  obs::QueryProfiler profiler_;
  bool metrics_enabled_ = true;
  std::vector<std::unique_ptr<QueryHandle>> queries_;
  // Monotonic label sequence: labels stay unique across Remove()s (a
  // vector-index label would be reissued after an erase and collide).
  uint64_t query_seq_ = 0;
  bool finished_ = false;
  // Declared after metrics_ and queries_: the manager (whose flusher
  // thread ticks registry counters) dies before either.
  std::unique_ptr<dur::DurabilityManager> dur_;
  RecoveryReport recovery_;
  uint64_t ckpt_id_ = 0;  // Last checkpoint id written or recovered.
  // One kFlushError event per sticky archive failure, not one per
  // rejected ingest (written on the ingest thread).
  bool flush_error_logged_ = false;
  obs::Counter* dur_ckpt_ctr_ = nullptr;
  obs::Counter* dur_replay_ctr_ = nullptr;
  uint64_t latency_sample_every_ = 256;
  // Declared after queries_ so teardown runs observation-first: the
  // monitor joins its sampler (whose tick listeners read query state)
  // before queries die.
  std::unique_ptr<obs::Monitor> monitor_;
  // Declared last: destroyed first, so the query server stops its
  // listener and closes sessions (which reference query handles) before
  // anything above dies. shared_ptr: QueryServer is incomplete here.
  std::shared_ptr<server::QueryServer> server_;
};

}  // namespace sqp

#endif  // SQP_ARCH_ENGINE_H_
