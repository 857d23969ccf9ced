#ifndef SQP_EXEC_OPERATOR_H_
#define SQP_EXEC_OPERATOR_H_

#include <atomic>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "dur/checkpointable.h"
#include "exec/column_batch.h"
#include "obs/op_counters.h"
#include "obs/trace.h"
#include "stream/element.h"
#include "stream/element_batch.h"

namespace sqp {

/// Push-based physical operator (streams-in, stream-out; slide 13).
///
/// Operators form a DAG. An upstream operator calls `Push(e, port)` on its
/// downstream; binary operators (joins, union) distinguish inputs by
/// `port` (0 = left, 1 = right). `Flush` signals end-of-stream and must be
/// forwarded after emitting any buffered state.
///
/// Single-caller by design: the scheduling layer (sqp/sched) decides
/// when each operator runs and interposes queues; operator code itself
/// stays oblivious, matching the tutorial's separation of operator
/// semantics from scheduling policy (slides 42-43). An operator is never
/// thread-safe — all Push/Flush/Emit calls on one operator must come
/// from a single thread. The serial executors trivially satisfy this;
/// ParallelExecutor satisfies it by pinning each stage's operator to
/// that stage's worker thread. Debug builds assert the contract
/// (AssertSingleCaller), so TSan jobs and unit tests catch an operator
/// accidentally shared across stages. The contract is also what lets
/// the always-on counter slot (obs::OpCounters) count with plain
/// relaxed load + store.
class Operator {
 public:
  explicit Operator(std::string name) : name_(std::move(name)) {}
  virtual ~Operator() = default;

  Operator(const Operator&) = delete;
  Operator& operator=(const Operator&) = delete;

  /// Processes one element arriving on `port`.
  virtual void Push(const Element& e, int port = 0) = 0;

  /// Counted entry point: drivers (RunStream, executors, the engine)
  /// and Emit route elements through here, so every operator's slot
  /// records the delivery and, on a randomly sampled one chain in
  /// kTimeSampleEvery (the thread's countdown, obs::ThreadObsContext),
  /// its self time — without any per-operator code. An untimed entry
  /// pays one decrement-and-branch. A bound lineage tracer samples here
  /// too, while its sampling is on.
  void Process(const Element& e, int port = 0) {
    counters_.CountSingle();
    obs::ThreadObsContext& ctx = obs::ObsContext();
    const bool traced = ctx.depth == 0 && tracing();
    const bool untimed = ctx.depth == 0 ? !traced && --ctx.time_gap != 0
                                        : !ctx.timed;
    if (!untimed) {
      ProcessTimed(e, port, traced);
      return;
    }
    ++ctx.depth;
    Push(e, port);
    --ctx.depth;
  }

  /// Batched entry point (non-virtual, mirrors Process): semantically
  /// identical to calling Process once per element in order, but the
  /// whole run crosses the operator in one call. While the batch is
  /// being processed, Emit coalesces this operator's output into a
  /// batch of its own and forwards it downstream via ProcessBatch when
  /// the input batch completes (or the coalescing buffer hits its cap),
  /// so batches propagate down the chain instead of decaying back into
  /// singletons at the first selective operator. Tuple/punctuation
  /// ordering is preserved end to end: the output batch holds exactly
  /// the sequence the per-element path would have pushed.
  ///
  /// The batch is taken by mutable reference because the operator may
  /// move elements out of it (pass-through operators forward ownership
  /// instead of bumping tuple refcounts); after the call the batch's
  /// elements are unspecified — clear()/refill before reuse.
  void ProcessBatch(ElementBatch& batch, int port = 0);

  /// Columnar entry point (non-virtual, mirrors ProcessBatch):
  /// semantically identical to materializing the batch's live rows and
  /// punctuations in order and calling Process on each. Operators with a
  /// PushColumns override stay columnar; everything else transparently
  /// materializes and takes its row path — the fallback boundary of the
  /// vectorized execution path (DESIGN.md "Columnar execution").
  ///
  /// Like ProcessBatch, the batch is consumed: an override may move its
  /// arrays or refine its selection vector in place.
  void ProcessColumns(ColumnBatch& batch, int port = 0);

  /// True when this operator processes port's input columnarly (has a
  /// real PushColumns). Executors use it to decide where row→column
  /// conversion pays; sending columns to a non-supporting operator is
  /// still correct, it just materializes at the boundary.
  virtual bool SupportsColumns(int port = 0) const {
    (void)port;
    return false;
  }

  /// Binds the sampled lineage tracer (see sqp::obs::Tracer); nullptr,
  /// the default, turns tracing off. Must happen before the operator
  /// processes elements; the tracer must outlive its last Process. A
  /// bound tracer costs nothing until its sampling is enabled: only then
  /// do elements take the per-element traced path.
  void SetTracer(obs::Tracer* tracer) { tracer_ = tracer; }

  /// This operator's always-on accounting slot. Executors record
  /// claimed batches and queue wait here from the operator's driving
  /// thread, and mirror the queue high-water in from any thread.
  obs::OpCounters& counters() { return counters_; }

  /// A copy of the slot — what registry rows, EXPLAIN ANALYZE and tests
  /// read. Out-counters and the watermark come from emitter()'s slot.
  obs::OpSnapshot stats() const;

  /// The operator whose Emit feeds this one's output edge: itself,
  /// except for composites (ShardedOp) that emit from an internal
  /// operator on another thread.
  virtual const Operator& emitter() const { return *this; }

  /// End-of-stream: emit buffered results, then forward downstream.
  virtual void Flush();

  /// Bytes of operator-held state (windows, hash tables) — drives the
  /// memory-limited experiments.
  virtual size_t StateBytes() const { return 0; }

  /// Connects this operator's output to `out`'s input `port`.
  void SetOutput(Operator* out, int port = 0) {
    out_ = out;
    out_port_ = port;
  }

  const std::string& name() const { return name_; }
  Operator* output() const { return out_; }
  int output_port() const { return out_port_; }

 protected:
  /// Batch body, called by ProcessBatch. The default loops Push, so
  /// every operator participates in the batched path unchanged; hot
  /// per-element operators (select, project, sinks) override it with a
  /// tight loop that skips the per-element virtual dispatch. Overrides
  /// must preserve per-element semantics exactly: CountIn each element,
  /// Emit in arrival order. Overrides may move elements out of the
  /// batch (the caller treats the contents as consumed).
  virtual void PushBatch(ElementBatch& batch, int port) {
    for (const Element& e : batch) Push(e, port);
  }

  /// Columnar body, called by ProcessColumns. The default is the
  /// fallback boundary: rebuild rows and run the batched row path.
  /// Overrides must preserve per-element semantics exactly (bulk-count
  /// arrivals, keep punctuation interleaving) and may consume the batch.
  virtual void PushColumns(ColumnBatch& batch, int port) {
    ElementBatch rows;
    batch.MaterializeRows(&rows);
    PushBatch(rows, port);
  }

  /// Forwards a whole columnar batch downstream, maintaining counters in
  /// bulk. Any row emissions buffered so far are flushed first so output
  /// order matches the per-element path. The batch is consumed.
  void EmitColumns(ColumnBatch&& batch);

  /// Bulk arrival accounting for batched overrides (the batch twin of
  /// calling CountIn per element).
  void CountInBulk(uint64_t tuples, uint64_t puncts) {
    AssertSingleCaller();
    counters_.CountInBulk(tuples, puncts);
  }
  void CountInColumns(const ColumnBatch& batch) {
    CountInBulk(batch.ActiveRows(), batch.puncts.size());
  }

  /// Forwards an element downstream, maintaining counters. Inside a
  /// ProcessBatch call, emissions are coalesced into an output batch
  /// (see ProcessBatch); otherwise they are pushed downstream
  /// immediately.
  void Emit(const Element& e);

  /// Move form: while coalescing, the element is moved into the output
  /// batch instead of copied — pass-through operators (select) and
  /// operators emitting freshly built elements (project, joins) avoid a
  /// tuple refcount round-trip per element. Outside a batch it behaves
  /// exactly like Emit(const Element&).
  void Emit(Element&& e);

  /// Counts an arriving element. Subclasses call this first in Push.
  void CountIn(const Element& e) {
    AssertSingleCaller();
    counters_.CountIn(e.is_punctuation());
  }

  /// Counts a departing element (Emit does this; multi-output operators
  /// that bypass Emit call it per delivery). Watermark tracking for
  /// EXPLAIN ANALYZE lag: keyed punctuations close one group, only
  /// non-keyed ones advance event time.
  void CountOut(const Element& e) {
    AssertSingleCaller();
    const bool punct = e.is_punctuation();
    counters_.CountOut(punct);
    if (punct && !e.punctuation().has_key) {
      counters_.OnWatermarkForward(e.punctuation().ts);
    }
  }

  /// Debug check that every Push/Emit on this operator comes from one
  /// thread: the first caller claims ownership, later callers must match.
  /// The check is compiled out in release builds; `owner_` is not, so a
  /// program built without NDEBUG can link a release library.
  void AssertSingleCaller() const {
#ifndef NDEBUG
    std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};
    if (!owner_.compare_exchange_strong(expected, self,
                                        std::memory_order_relaxed)) {
      assert(expected == self &&
             "operator driven from multiple threads; each operator must "
             "belong to exactly one stage/worker");
    }
#endif
  }

  Operator* out_ = nullptr;
  int out_port_ = 0;

 private:
  /// True when a bound tracer is sampling (EnableTracing can turn it on
  /// at runtime).
  bool tracing() const { return tracer_ != nullptr && tracer_->enabled(); }
  /// Out-of-line half of Process: sampled (or traced) chains. `traced`
  /// is Process's tracing() reading for an entry element.
  void ProcessTimed(const Element& e, int port, bool traced);
  /// The one timing helper: runs `body` one level deeper in the
  /// thread's call chain and records self time (inclusive time minus
  /// nested Process calls and the hop's own clock reads, clamped at 0)
  /// times `scale` into busy_ns — 0 times only, to feed the parent's
  /// child time. Returns the inclusive ns.
  template <typename Body>
  uint64_t Timed(obs::ThreadObsContext& ctx, uint64_t scale, Body&& body);
  /// Shared body of ProcessBatch/ProcessColumns: coalesces emissions
  /// and times the whole batch.
  template <typename Body>
  void RunBatch(Body&& body);
  /// Hands the coalesced output batch downstream and resets the buffer.
  void FlushEmitBuffer();

  /// Emit buffer cap while coalescing: a join exploding one input batch
  /// into many outputs flushes downstream mid-batch instead of growing
  /// the buffer without bound (ordering is unaffected — the flush
  /// forwards the prefix in order).
  static constexpr size_t kEmitBufferCap = 1024;

  obs::OpCounters counters_;
  std::string name_;
  obs::Tracer* tracer_ = nullptr;
  /// True only inside a ProcessBatch call with a wired output.
  bool coalescing_ = false;
  ElementBatch emit_buf_;
  /// AssertSingleCaller's claimed thread (unused under NDEBUG).
  [[maybe_unused]] mutable std::atomic<std::thread::id> owner_{};
};

/// Terminal operator that retains results for inspection (tests, examples).
/// Checkpointable so a recovered engine's collected results equal an
/// uninterrupted run's (dur recovery restores the prefix, replay
/// regenerates the suffix).
class CollectorSink : public Operator, public CheckpointableOperator {
 public:
  CollectorSink() : Operator("collect") {}

  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

  void Push(const Element& e, int port = 0) override;

  /// Retained results count toward operator state for the memory
  /// experiments (a collector is a window that never expires).
  size_t StateBytes() const override;

  const std::vector<TupleRef>& tuples() const { return tuples_; }
  const std::vector<Punctuation>& punctuations() const { return puncts_; }
  size_t count() const { return tuples_.size(); }

  void Clear() {
    tuples_.clear();
    puncts_.clear();
  }

 protected:
  /// Batched append: one reserve per batch, then the per-element loop.
  void PushBatch(ElementBatch& batch, int port) override;

  /// Materialization boundary of the columnar path: rows are rebuilt
  /// here, at the sink, with one reserve from the batch's live-row count.
  void PushColumns(ColumnBatch& batch, int port) override;

 private:
  std::vector<TupleRef> tuples_;
  std::vector<Punctuation> puncts_;
};

/// Terminal operator that only counts (benchmarks; no retention cost).
class CountingSink : public Operator {
 public:
  CountingSink() : Operator("count-sink") {}

  void Push(const Element& e, int /*port*/ = 0) override { CountIn(e); }

  uint64_t tuples() const { return stats().tuples_in; }

  /// A counting sink never needs rows at all, so columnar batches are
  /// tallied without materialization — the late-materialization ideal.
  bool SupportsColumns(int /*port*/ = 0) const override { return true; }

 protected:
  /// Counting needs no per-element work at all: tally the batch once
  /// and bump the counters in bulk.
  void PushBatch(ElementBatch& batch, int /*port*/) override {
    uint64_t tuples = 0;
    for (const Element& e : batch) {
      if (!e.is_punctuation()) ++tuples;
    }
    CountInBulk(tuples, batch.size() - tuples);
  }

  void PushColumns(ColumnBatch& batch, int /*port*/) override {
    CountInColumns(batch);
  }
};

/// Terminal operator invoking a callback per element.
class CallbackSink : public Operator {
 public:
  explicit CallbackSink(std::function<void(const Element&)> fn)
      : Operator("callback-sink"), fn_(std::move(fn)) {}

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    fn_(e);
  }

 private:
  std::function<void(const Element&)> fn_;
};

}  // namespace sqp

#endif  // SQP_EXEC_OPERATOR_H_
