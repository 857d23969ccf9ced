#include "arch/engine.h"

#include <cstdio>

#include "exec/reorder.h"
#include "obs/trace.h"

namespace sqp {

namespace {

/// Stage tuning of every parallel query (ExecutionOptions::parallel): a
/// bounded queue that blocks the ingesting thread when full, and 64-
/// element hand-off batches.
constexpr size_t kParallelQueueLimit = 1024;
constexpr Backpressure kParallelBackpressure = Backpressure::kBlock;
constexpr size_t kParallelBatch = 64;

/// Forwards every element to the collector (when retention is on) and
/// the optional callback, and claims the query's pending end-to-end
/// latency sample (armed at ingest) when an output tuple arrives.
class TeeSink : public Operator {
 public:
  TeeSink(CollectorSink* collector,
          const std::function<void(const TupleRef&)>* callback,
          obs::Histogram* latency_hist,
          std::atomic<uint64_t>* pending_ingest_ns)
      : Operator("tee"),
        collector_(collector),
        callback_(callback),
        latency_hist_(latency_hist),
        pending_(pending_ingest_ns) {}

  void Push(const Element& e, int port = 0) override {
    CountIn(e);
    if (latency_hist_ != nullptr && e.is_tuple() &&
        pending_->load(std::memory_order_relaxed) != 0) {
      // exchange(0) claims the sample exactly once even if another
      // output races in; the acquire pairs with the ingest-side release
      // so the timestamp read is the one the prober wrote.
      uint64_t t0 = pending_->exchange(0, std::memory_order_acquire);
      if (t0 != 0) latency_hist_->Observe(obs::NowNs() - t0);
    }
    if (collector_ != nullptr) collector_->Push(e, port);
    if (*callback_ && e.is_tuple()) (*callback_)(e.tuple());
  }

 private:
  CollectorSink* collector_;  // Null: SubmitOptions::collect was false.
  const std::function<void(const TupleRef&)>* callback_;
  obs::Histogram* latency_hist_;
  std::atomic<uint64_t>* pending_;
};

/// Whole-query stage for plans that are not linear chains (joins,
/// multi-input): one worker drives the compiled query; the plan's
/// existing internal wiring (including its sink) is untouched.
class QueryStageOp : public Operator {
 public:
  explicit QueryStageOp(cql::CompiledQuery* q)
      : Operator("query-stage"), q_(q) {}

  void Push(const Element& e, int port = 0) override {
    CountIn(e);
    q_->Push(e, port);
  }

  void Flush() override { q_->Finish(); }

 private:
  cql::CompiledQuery* q_;
};

}  // namespace

void QueryHandle::Finish() {
  // A parallel query's drain cascade flushes every stage (chain mode) or
  // runs CompiledQuery::Finish on the worker (whole-query mode), then
  // joins: results are safe to read once this returns. Either way each
  // input is flushed once, its front-ends first.
  if (parallel_ != nullptr) {
    parallel_->Drain();
  } else {
    query_->Finish();
  }
}

Status StreamEngine::RegisterStream(const std::string& name, SchemaRef schema,
                                    std::vector<FieldDomain> domains,
                                    StreamOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  SQP_RETURN_NOT_OK(
      catalog_.Register(name, std::move(schema), std::move(domains)));
  StreamState& state = streams_[name];
  state.options = options;
  state.ingested =
      metrics_.GetCounter("sqp_stream_ingested_total", {{"stream", name}});
  return Status::OK();
}

Result<QueryHandle*> StreamEngine::Submit(const std::string& query_text,
                                          SubmitOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  auto compiled = cql::Compile(query_text, catalog_);
  if (!compiled.ok()) return compiled.status();

  auto handle = std::make_unique<QueryHandle>();
  handle->text_ = query_text;
  handle->query_ = std::move(*compiled);
  handle->sink_ = std::make_unique<CollectorSink>();
  handle->callback_ = std::move(options.on_result);

  // Each input's reorder/heartbeat front-ends, per the owning stream's
  // options, become plan operators in front of it: reorder -> heartbeat
  // -> query.
  const auto& from = handle->query_->analysis().ast.from;
  for (int i = 0; i < handle->query_->num_inputs(); ++i) {
    const std::string& stream = from[static_cast<size_t>(i)].name;
    // Compile resolved `stream` in the catalog, which RegisterStream
    // fills together with streams_.
    const StreamOptions& opt = streams_.find(stream)->second.options;
    if (opt.heartbeat_period > 0) {
      handle->query_->PrependInput(
          i, std::make_unique<HeartbeatOp>(opt.heartbeat_period,
                                           opt.reorder_slack));
    }
    if (opt.reorder_slack > 0) {
      handle->query_->PrependInput(
          i, std::make_unique<SlackReorderOp>(opt.reorder_slack));
    }
    handle->taps_.push_back({stream, i});
  }
  // Refuse before anything is published: a rejected configuration must
  // leave no label, collector, profile, event or listener behind.
  SQP_RETURN_NOT_OK(ValidateExec(options.exec, *handle));

  handle->metrics_label_ = "q" + std::to_string(query_seq_++);
  const std::string& label = handle->metrics_label_;
  if (metrics_enabled_) {
    handle->latency_hist_ = std::make_unique<obs::Histogram>();
  }

  handle->tee_ = std::make_unique<TeeSink>(
      options.collect ? handle->sink_.get() : nullptr, &handle->callback_,
      handle->latency_hist_.get(), &handle->pending_ingest_ns_);
  handle->query_->AttachSink(handle->tee_.get());

  // Publish the query: its profiler entry (plus a source-side watermark
  // tap) and one registry collector that renders its operator rows,
  // watermark gauges and latency histogram from the live slots until
  // Remove. After AttachSink so the plan root has its outward edge
  // (BindPlan's liveness walk reads output()).
  if (metrics_enabled_) {
    for (const auto& op : handle->query_->plan().operators()) {
      op->SetTracer(metrics_.tracer());
    }
    handle->profile_source_ = profiler_.Register(label, query_text);
    profiler_.BindPlan(label, handle->query_->plan());
    metrics_.AddCollector(
        "query:" + label,
        [this, label, hist = handle->latency_hist_.get()](
            obs::SnapshotBuilder& b) {
          b.AddHistogram("sqp_query_latency_ns", {{"query", label}},
                         hist->Data());
          profiler_.Publish(label, b);
        });
  }
  events_.Emit(obs::EventKind::kQuerySubmit, label, query_text);
  LowerExec(*handle, std::move(options.exec));

  // Stamp the archive boundary under the same exclusive lock that makes
  // the query live: every record at or below it was archived before any
  // live delivery to this handle could happen, every record above it
  // will be delivered live. ReplayInto replays only up to this seq, so
  // a replay racing ingest never double-delivers.
  if (dur_ != nullptr) handle->submit_seq_ = dur_->last_seq();

  // Route ingest to the new query. Appending keeps every reader list in
  // submission order, then tap order; taps_ is final from here on, so
  // the Tap pointers stay valid until Remove.
  for (const QueryHandle::Tap& tap : handle->taps_) {
    streams_.find(tap.stream)->second.readers.push_back({handle.get(), &tap});
  }
  queries_.push_back(std::move(handle));
  return queries_.back().get();
}

Status StreamEngine::ValidateExec(const ExecutionOptions& exec,
                                  const QueryHandle& q) {
  if (exec.sharding && exec.sharding->shards < 1) {
    return Status::FailedPrecondition("exec.sharding: shards must be >= 1");
  }
  if (exec.columnar && !exec.parallel) {
    // Without executor stages, columns are converted only inside shard
    // replicas: the shard rewrite must splice at least one.
    bool spliced = false;
    if (exec.sharding) {
      for (const ShardRewrite& rw :
           PlanShardRewrites(q.query_->plan(), exec.sharding->shards)) {
        spliced = spliced || rw.reason.empty();
      }
    }
    if (!spliced) {
      return Status::FailedPrecondition(
          "exec.columnar needs exec.parallel, or exec.sharding that splices "
          "a shard (shards > 1 and a shardable stateful operator): serial "
          "ingest delivers one element at a time");
    }
  }
  if (exec.shed) {
    if (q.taps_.size() != 1) {
      return Status::FailedPrecondition(
          "exec.shed supports single-input queries only");
    }
    if (!exec.parallel && !exec.shed->backlog_probe) {
      return Status::FailedPrecondition(
          "exec.shed on a serial query needs a backlog_probe: there is no "
          "executor queue to watch");
    }
  }
  return Status::OK();
}

void StreamEngine::LowerExec(QueryHandle& handle, ExecutionOptions exec) {
  QueryHandle* h = &handle;  // Captured by collectors and listeners.
  cql::CompiledQuery* q = handle.query_.get();
  const std::string& label = handle.metrics_label_;

  // 1. Shard rewrite. First: the executor's stages capture plan edges
  // the rewrite moves.
  if (exec.sharding) {
    handle.shard_rewrites_ = ShardStatefulOps(q->plan(), *exec.sharding,
                                              exec.columnar, &events_, label);
    for (const ShardRewrite& rw : handle.shard_rewrites_) {
      if (rw.sharded == nullptr) continue;
      // The rewrite fixed the plan-internal edges; the query's external
      // edges (input taps, root) follow here.
      q->ReplaceOperator(rw.original, rw.sharded);
      handle.sharded_ops_.push_back(rw.sharded);
    }
  }
  if (handle.sharded()) {
    // The rewrite spliced new operators (each ShardedOp) into the plan:
    // re-walk the profile tree, which adds their rows and drops the
    // disconnected originals from the EXPLAIN ANALYZE view.
    if (handle.profile_source_ != nullptr) {
      for (ShardedOp* op : handle.sharded_ops_) {
        op->SetTracer(metrics_.tracer());
      }
      profiler_.BindPlan(label, q->plan());
    }
    metrics_.AddCollector("shards:" + label,
                          [h, label](obs::SnapshotBuilder& b) {
                            for (const ShardedOp* op : h->sharded_ops_) {
                              op->CollectStats(b, {{"query", label}});
                            }
                          });
  }

  // 2. Executor stages.
  if (exec.parallel) {
    ParallelExecutor::Stage base;
    base.queue_limit = kParallelQueueLimit;
    base.backpressure = kParallelBackpressure;
    base.max_batch = kParallelBatch;
    std::vector<ParallelExecutor::Stage> stages;
    Operator* sink = nullptr;
    // A sharded plan always runs whole-query: a ShardedOp's merge worker
    // drives the downstream edge, and op-per-stage mode would hand that
    // same edge (a stage feed) to a stage worker too — two drivers, one
    // operator. The shard/merge threads already decouple the pipeline.
    handle.chain_mode_ = q->num_inputs() == 1 && !handle.sharded();
    if (handle.chain_mode_) {
      // Split the linear chain input -> ... -> root op-per-stage; the tee
      // (collector + callback) stays attached as the executor's sink and
      // runs on the last stage's worker.
      int in_port = q->input_port(0);
      for (Operator* op = q->input(0);
           op != nullptr && op != handle.tee_.get(); op = op->output()) {
        ParallelExecutor::Stage s = base;
        s.op = op;
        s.in_port = in_port;
        // Columnar stages convert claimed runs only when the operator
        // can actually evaluate them column-at-a-time.
        s.columnar = exec.columnar && op->SupportsColumns(in_port);
        in_port = op->output_port();  // Port the *next* stage is fed on.
        stages.push_back(s);
      }
      sink = handle.tee_.get();
    } else {
      // Joins/multi-input plans: run the whole compiled query as one
      // stage. Ingest still decouples from processing; the plan's wiring
      // (root -> tee) is left untouched, so no sink override.
      handle.parallel_adapter_ = std::make_unique<QueryStageOp>(q);
      base.op = handle.parallel_adapter_.get();
      stages.push_back(base);
    }
    handle.parallel_ =
        std::make_unique<ParallelExecutor>(std::move(stages), sink);
    handle.parallel_->Start();
    // Per-stage queue stats join the registry through the shared
    // StageStats path (one shape for serial and threaded executors).
    metrics_.AddCollector(
        "stages:" + label,
        [px = handle.parallel_.get(), label](obs::SnapshotBuilder& b) {
          px->CollectStats(b, {{"query", label}});
        });
  }

  // 3. Shed gate and its control loop.
  if (exec.shed) {
    std::function<size_t()> probe = std::move(exec.shed->backlog_probe);
    if (!probe) {
      // Backlog (enqueued - processed) rather than instantaneous queue
      // occupancy: workers pop whole batches, so q.size() can read 0
      // while hundreds of elements are in flight inside a stage.
      probe = [px = handle.parallel_.get()] {
        size_t n = 0;
        for (size_t i = 0; i < px->num_stages(); ++i) {
          n += px->stage_stats(i).Backlog();
        }
        return n;
      };
    }
    if (monitor_ == nullptr) StartMonitor();

    handle.shedder_ = std::make_unique<FeedbackShedder>(exec.shed->controller);
    handle.shed_gate_ =
        std::make_unique<RandomDropOp>(0.0, exec.shed->seed, "shed-gate");
    handle.shed_fwd_ = std::make_unique<CallbackSink>(
        [this, h](const Element& e) { DeliverDirect(*h, h->taps_[0], e); });
    handle.shed_gate_->SetOutput(handle.shed_fwd_.get());

    // Shedding state joins every snapshot/scrape alongside the raw
    // counters it is derived from.
    metrics_.AddCollector(
        "shed:" + label, [h, label](obs::SnapshotBuilder& b) {
          obs::LabelSet ls{{"query", label}};
          b.AddGauge("sqp_shed_drop_rate", ls, h->shed_gate_->drop_rate());
          b.AddCounter("sqp_shed_dropped_total", ls,
                       static_cast<double>(h->shed_gate_->dropped()));
          b.AddGauge("sqp_shed_backlog", ls,
                     static_cast<double>(
                         h->shed_backlog_.load(std::memory_order_relaxed)));
        });

    // The loop itself: every monitor tick, observed backlog -> controller
    // -> gate drop probability. Runs on the ticking thread with no locks
    // held; the gate's rate is atomic.
    monitor_->AddTickListener(
        "shed:" + label,
        [this, h, label, probe = std::move(probe)](uint64_t) {
          size_t backlog = probe();
          h->shed_backlog_.store(backlog, std::memory_order_relaxed);
          const double rate = h->shedder_->Observe(backlog);
          h->shed_gate_->set_drop_rate(rate);
          // Gate transitions (crossing 1% drop probability) are
          // lifecycle events; shed_active_ is only ever touched on this
          // thread.
          const bool active = rate > 0.01;
          if (active != h->shed_active_) {
            h->shed_active_ = active;
            char msg[96];
            std::snprintf(msg, sizeof(msg), "drop rate %.3f, backlog %zu",
                          rate, backlog);
            events_.Emit(active ? obs::EventKind::kShedActivated
                                : obs::EventKind::kShedDeactivated,
                         label, msg);
          }
        });
  }
}

Status StreamEngine::EnableSharding(QueryHandle* handle,
                                    ShardPlanOptions options) {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  ExecutionOptions exec;
  exec.sharding = std::move(options);
  SQP_RETURN_NOT_OK(ValidateExec(exec, *handle));
  if (handle->sharded()) {
    return Status::AlreadyExists("sharding already enabled");
  }
  // Any counted operator input (live ingest, recovery or ReplayInto)
  // means the plan may hold state the rewrite would strand.
  for (const auto& op : handle->query_->plan().operators()) {
    const obs::OpCounters& c = op->counters();
    if (c.tuples_in.load(std::memory_order_relaxed) != 0 ||
        c.puncts_in.load(std::memory_order_relaxed) != 0) {
      return Status::InvalidArgument(
          "query has already received input; its state cannot be "
          "resharded");
    }
  }
  if (handle->parallel_ != nullptr) {
    return Status::InvalidArgument(
        "query runs on a parallel executor whose stages hold the plan "
        "edges the rewrite moves; shard it at Submit "
        "(SubmitOptions::exec.sharding)");
  }
  LowerExec(*handle, std::move(exec));
  return Status::OK();
}

void StreamEngine::DeliverDirect(QueryHandle& q, const QueryHandle::Tap& tap,
                                 const Element& e) {
  // Source-side watermark tap: stamp (event ts, ingest ns) so the
  // profiler can report per-operator lag and propagation delay against
  // what actually entered the query.
  if (q.profile_source_ != nullptr && e.is_punctuation() &&
      !e.punctuation().has_key) {
    q.profile_source_->OnWatermark(e.punctuation().ts);
  }
  // Arm the end-to-end latency probe on every Nth tuple that actually
  // enters the query (post-shedding, so dropped tuples don't leave a
  // stale timestamp that a much later output would claim). Countdown
  // instead of modulo: the sample period is runtime-configurable, and a
  // per-tuple integer division is measurable on this path.
  if (q.latency_hist_ != nullptr && latency_sample_every_ > 0 &&
      e.is_tuple() && --q.latency_countdown_ == 0) {
    q.latency_countdown_ = latency_sample_every_;
    uint64_t expected = 0;
    q.pending_ingest_ns_.compare_exchange_strong(expected, obs::NowNs(),
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed);
  }
  if (q.parallel_ != nullptr) {
    // Chain mode feeds the entry operator's port itself; the
    // whole-query stage needs the input index for port routing.
    if (q.chain_mode_) {
      q.parallel_->Arrive(e);
    } else {
      q.parallel_->ArriveOn(e, tap.port);
    }
  } else {
    q.query_->Push(e, tap.port);
  }
}

Status StreamEngine::IngestElement(const std::string& stream,
                                   const Element& e) {
  // Shared: delivery may overlap registration/teardown from a server
  // thread, but never another delivery (single ingest thread contract).
  std::shared_lock<std::shared_mutex> reg(reg_mu_);
  auto it = streams_.find(stream);
  if (it == streams_.end()) {
    return Status::NotFound("unknown stream: " + stream);
  }
  if (finished_) {
    return Status::InvalidArgument("engine already finished");
  }
  const StreamState& state = it->second;
  state.ingested->Inc();
  // Archive-before-deliver: once delivery runs, the element must be
  // recoverable. (Group commit means the bytes may still sit in the
  // buffer for up to a flush interval — a crash inside that window
  // loses the tail, which replay tolerates by construction.) A sticky
  // archive IO failure therefore stops ingest before delivery: the
  // element can never be made durable, so letting it flow would hand
  // out results that no recovery could reproduce.
  if (dur_ != nullptr) {
    auto seq = dur_->Append(stream, e);
    if (!seq.ok()) {
      if (!flush_error_logged_) {
        // Once per sticky failure, not once per rejected ingest.
        flush_error_logged_ = true;
        events_.Emit(obs::EventKind::kFlushError, "",
                     "archive append failed on stream '" + stream +
                         "': " + seq.status().ToString());
      }
      return seq.status();
    }
  }
  for (const StreamState::Reader& r : state.readers) {
    if (r.query->shed_gate_ != nullptr) {
      // The gate forwards surviving elements into DeliverDirect via its
      // CallbackSink output; shed tuples end here.
      r.query->shed_gate_->Process(e, 0);
    } else {
      DeliverDirect(*r.query, *r.tap, e);
    }
  }
  // Periodic checkpoint rides the ingest thread after delivery: the
  // serial operators are quiescent here, and the shared lock keeps
  // registration out.
  if (dur_ != nullptr && dur_->TakeCheckpointDue()) {
    SQP_RETURN_NOT_OK(CheckpointLocked());
  }
  return Status::OK();
}

obs::Monitor& StreamEngine::StartMonitor(obs::MonitorOptions options) {
  if (monitor_ == nullptr) {
    monitor_ = std::make_unique<obs::Monitor>(&metrics_, options);
  }
  monitor_->Start();  // No-op in manual mode or when already running.
  return *monitor_;
}

Status StreamEngine::Ingest(const std::string& stream, const TupleRef& tuple) {
  return IngestElement(stream, Element(tuple));
}

Status StreamEngine::Remove(QueryHandle* handle) {
  if (handle == nullptr) return Status::InvalidArgument("null handle");
  // The shedding tick listener captures the handle and runs on the
  // monitor thread; remove it first (the call barriers on an in-flight
  // tick) so nothing touches the handle's gate/shedder once teardown
  // starts. Done before taking reg_mu_: the listener never takes the
  // registration lock, but keeping the barrier outside the critical
  // section keeps the lock dependency one-directional.
  if (monitor_ != nullptr) {
    monitor_->RemoveTickListener("shed:" + handle->metrics_label_);
  }

  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  size_t index = queries_.size();
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].get() == handle) {
      index = i;
      break;
    }
  }
  if (index == queries_.size()) {
    return Status::NotFound("query is not registered with this engine");
  }

  // Flush so windows/groups close and the final rows reach the sink —
  // unless the engine already finished everything. The caller guarantees
  // the output callback cannot block (see header).
  if (!finished_) handle->Finish();

  // Collectors capture the handle, its operators or its executor;
  // RemoveCollector and Unregister barrier on any snapshot in flight, so
  // after these return nothing can observe the dying query — its rows
  // and latency histogram leave the registry with it.
  const std::string& label = handle->metrics_label_;
  metrics_.RemoveCollector("query:" + label);
  metrics_.RemoveCollector("stages:" + label);
  metrics_.RemoveCollector("shards:" + label);
  metrics_.RemoveCollector("shed:" + label);
  profiler_.Unregister(label);
  events_.Emit(obs::EventKind::kQueryStop, label, handle->text_);

  // Unroute it: only the streams it reads are touched.
  for (const QueryHandle::Tap& tap : handle->taps_) {
    std::erase_if(streams_.find(tap.stream)->second.readers,
                  [handle](const StreamState::Reader& r) {
                    return r.query == handle;
                  });
  }
  queries_.erase(queries_.begin() + static_cast<long>(index));
  return Status::OK();
}

void StreamEngine::FinishAll() {
  std::unique_lock<std::shared_mutex> reg(reg_mu_);
  if (finished_) return;
  finished_ = true;
  for (auto& q : queries_) q->Finish();
  if (dur_ != nullptr) {
    // Seal the archive and capture the post-flush state (collectors now
    // hold the final rows): a --replay of a finished run restores
    // everything from the checkpoint and replays nothing.
    (void)CheckpointLocked();
  }
}

bool StreamEngine::ProfileSnapshot(const std::string& label,
                                   obs::QueryProfile* out) const {
  return profiler_.Snapshot(label, out);
}

bool StreamEngine::ProfileSnapshot(const QueryHandle* handle,
                                   obs::QueryProfile* out) const {
  if (handle == nullptr) return false;
  return profiler_.Snapshot(handle->metrics_label_, out);
}

std::vector<std::string> StreamEngine::ProfiledQueries() const {
  return profiler_.Labels();
}

size_t StreamEngine::TotalStateBytes() const {
  std::shared_lock<std::shared_mutex> reg(reg_mu_);
  size_t bytes = 0;
  for (const auto& q : queries_) {
    bytes += q->query_->plan().TotalStateBytes();
  }
  return bytes;
}

}  // namespace sqp
