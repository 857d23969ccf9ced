#include "exec/operator.h"

namespace sqp {

void Operator::Flush() {
  if (out_ != nullptr) out_->Flush();
}

obs::OpSnapshot Operator::stats() const {
  obs::OpSnapshot s = counters_.Snapshot();
  const Operator& em = emitter();
  if (&em != this) {
    const obs::OpSnapshot out = em.counters_.Snapshot();
    s.tuples_out = out.tuples_out;
    s.puncts_out = out.puncts_out;
    s.wm_ts = out.wm_ts;
    s.wm_ns = out.wm_ns;
    s.wm_count = out.wm_count;
  }
  return s;
}

void Operator::Emit(const Element& e) {
  CountOut(e);
  if (coalescing_) {
    // Inside a ProcessBatch call: buffer the emission so downstream
    // receives one batch per input batch instead of a singleton per
    // output element. The cap bounds buffer growth for expanding
    // operators (joins); flushing a prefix early preserves order.
    emit_buf_.push_back(e);
    if (emit_buf_.size() >= kEmitBufferCap) FlushEmitBuffer();
    return;
  }
  if (out_ != nullptr) out_->Process(e, out_port_);
}

void Operator::Emit(Element&& e) {
  CountOut(e);
  if (coalescing_) {
    emit_buf_.push_back(std::move(e));
    if (emit_buf_.size() >= kEmitBufferCap) FlushEmitBuffer();
    return;
  }
  if (out_ != nullptr) out_->Process(e, out_port_);
}

template <typename Body>
uint64_t Operator::Timed(obs::ThreadObsContext& ctx, uint64_t scale,
                         Body&& body) {
  // Calibrated on a thread's first timed chain, which is an entry
  // (time_gap starts at 1), so the calibration loop lands in no one's
  // interval.
  const uint64_t clock_ns = obs::ClockReadNs();
  ++ctx.depth;
  // Self time = own inclusive time minus the inclusive time of nested
  // Process calls (downstream operators reached via Emit), collected in
  // the thread-local child accumulator — the classic profiler trick, and
  // it works across a synchronous push chain without any per-operator
  // code.
  const uint64_t saved_child = ctx.child_ns;
  ctx.child_ns = 0;
  const uint64_t t0 = obs::NowNs();
  if (tracer_ != nullptr && ctx.trace_id != 0) {
    tracer_->Record(ctx.trace_id, ctx.hop++, name_, t0);
  }
  body();
  const uint64_t total = obs::NowNs() - t0;
  if (scale != 0) {
    // Each hop's two clock reads cost about 2 * clock_ns: one read's
    // worth falls inside `total`, the other inside the parent's
    // interval but outside this one. So a hop subtracts one read from
    // its own time and reports one more to its parent (below): the
    // reads land in nobody's self time.
    const uint64_t spent = ctx.child_ns + clock_ns;
    const uint64_t self = total > spent ? total - spent : 0;
    counters_.AddBusyNs(self * scale);
    // StateBytes sampling rides the timed path (with its own geometric
    // backoff on top), so it only ever runs on the driving thread.
    counters_.MaybeSampleState([this] { return StateBytes(); });
  }
  ctx.child_ns = saved_child + total + clock_ns;
  --ctx.depth;
  return total;
}

void Operator::ProcessTimed(const Element& e, int port, bool traced) {
  obs::ThreadObsContext& ctx = obs::ObsContext();
  const bool entry = ctx.depth == 0;
  if (entry) {
    if (traced && e.is_tuple()) {
      ctx.trace_id = tracer_->SampleArrival();
      ctx.hop = 0;
    }
    // Clock reads dominate the slot's cost on cheap operators, so only
    // a random one chain in kTimeSampleEvery is timed; its self times
    // are scaled back up when recorded. Process already counted this
    // chain down to 0 unless it is traced. Traced elements are timed
    // too (hop timestamps need a clock) but don't feed busy_ns.
    ctx.busy_sampled = !traced || --ctx.time_gap == 0;
    if (ctx.busy_sampled) ctx.RedrawTimeGap();
    ctx.timed = ctx.busy_sampled || ctx.trace_id != 0;
    if (!ctx.timed) {
      ++ctx.depth;
      Push(e, port);
      --ctx.depth;
      return;
    }
  }
  const uint64_t total =
      Timed(ctx, ctx.busy_sampled ? obs::kTimeSampleEvery : 0,
            [&] { Push(e, port); });
  if (entry) {
    if (ctx.trace_id != 0) {
      tracer_->ObservePathNs(total);
      ctx.trace_id = 0;
    }
    ctx.child_ns = 0;
    ctx.timed = false;
  }
}

template <typename Body>
void Operator::RunBatch(Body&& body) {
  obs::ThreadObsContext& ctx = obs::ObsContext();
  const bool entry = ctx.depth == 0;
  if (entry) {
    // Unlike the per-element path, every batch is timed: the two clock
    // reads amortize over the whole batch, so no 1-in-N sampling (and
    // busy_ns is recorded unscaled).
    ctx.busy_sampled = false;
    ctx.timed = true;
  }
  Timed(ctx, 1, [&] {
    coalescing_ = out_ != nullptr;
    body();
    coalescing_ = false;
    FlushEmitBuffer();
  });
  if (entry) {
    ctx.child_ns = 0;
    ctx.timed = false;
  }
}

void Operator::ProcessBatch(ElementBatch& batch, int port) {
  if (batch.empty()) return;
  if (tracing()) {
    // Lineage tracing records per-element hop chains; take the exact
    // per-element path so sampled traces look identical under batching.
    for (const Element& e : batch) Process(e, port);
    return;
  }
  counters_.ObserveBatch(batch.size());
  RunBatch([&] { PushBatch(batch, port); });
}

void Operator::ProcessColumns(ColumnBatch& batch, int port) {
  if (batch.empty()) return;
  if (tracing()) {
    ElementBatch rows;
    batch.MaterializeRows(&rows);
    for (const Element& e : rows) Process(e, port);
    return;
  }
  counters_.ObserveBatch(batch.ActiveRows() + batch.puncts.size());
  RunBatch([&] { PushColumns(batch, port); });
}

void Operator::EmitColumns(ColumnBatch&& batch) {
  AssertSingleCaller();
  counters_.CountOutBulk(batch.ActiveRows(), batch.puncts.size());
  // The newest watermark in the batch is the one that matters for lag
  // tracking (slots are in stream order).
  for (auto it = batch.puncts.rbegin(); it != batch.puncts.rend(); ++it) {
    if (!it->punct.has_key) {
      counters_.OnWatermarkForward(it->punct.ts);
      break;
    }
  }
  // Row emissions buffered before this batch must go first so output
  // order matches the per-element path.
  FlushEmitBuffer();
  if (out_ != nullptr) out_->ProcessColumns(batch, out_port_);
}

void Operator::FlushEmitBuffer() {
  if (emit_buf_.empty()) return;
  // Non-empty only when coalescing was on, which requires out_ != nullptr.
  out_->ProcessBatch(emit_buf_, out_port_);
  emit_buf_.clear();
}

void CollectorSink::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    puncts_.push_back(e.punctuation());
  } else {
    tuples_.push_back(e.tuple());
  }
}

void CollectorSink::PushBatch(ElementBatch& batch, int /*port*/) {
  size_t tuples = 0;
  for (const Element& e : batch) {
    if (!e.is_punctuation()) ++tuples;
  }
  tuples_.reserve(tuples_.size() + tuples);
  puncts_.reserve(puncts_.size() + (batch.size() - tuples));
  for (const Element& e : batch) {
    CountIn(e);
    if (e.is_punctuation()) {
      puncts_.push_back(e.punctuation());
    } else {
      tuples_.push_back(e.tuple());
    }
  }
}

void CollectorSink::PushColumns(ColumnBatch& batch, int /*port*/) {
  CountInColumns(batch);
  tuples_.reserve(tuples_.size() + batch.ActiveRows());
  puncts_.reserve(puncts_.size() + batch.puncts.size());
  // Interleave live rows and punctuation slots in stream order, exactly
  // like MaterializeRows, but appending straight into the result vectors.
  const size_t n = batch.ActiveRows();
  size_t pi = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = batch.Active(k);
    while (pi < batch.puncts.size() && batch.puncts[pi].pos <= r) {
      puncts_.push_back(batch.puncts[pi].punct);
      ++pi;
    }
    tuples_.push_back(batch.RowAt(r));
  }
  while (pi < batch.puncts.size()) {
    puncts_.push_back(batch.puncts[pi].punct);
    ++pi;
  }
}

size_t CollectorSink::StateBytes() const {
  size_t bytes = tuples_.capacity() * sizeof(TupleRef) +
                 puncts_.capacity() * sizeof(Punctuation);
  for (const TupleRef& t : tuples_) bytes += t->MemoryBytes();
  return bytes;
}

void CollectorSink::SaveState(dur::BufWriter& w) const {
  w.U32(static_cast<uint32_t>(tuples_.size()));
  for (const TupleRef& t : tuples_) w.Tup(*t);
  w.U32(static_cast<uint32_t>(puncts_.size()));
  for (const Punctuation& p : puncts_) w.Punct(p);
}

Status CollectorSink::RestoreState(dur::BufReader& r) {
  tuples_.clear();
  puncts_.clear();
  uint32_t ntuples = 0;
  SQP_RETURN_NOT_OK(r.U32(&ntuples));
  tuples_.reserve(ntuples);
  for (uint32_t i = 0; i < ntuples; ++i) {
    TupleRef t;
    SQP_RETURN_NOT_OK(r.Tup(&t));
    tuples_.push_back(std::move(t));
  }
  uint32_t npuncts = 0;
  SQP_RETURN_NOT_OK(r.U32(&npuncts));
  puncts_.reserve(npuncts);
  for (uint32_t i = 0; i < npuncts; ++i) {
    Punctuation p;
    SQP_RETURN_NOT_OK(r.Punct(&p));
    puncts_.push_back(std::move(p));
  }
  return Status::OK();
}

}  // namespace sqp
