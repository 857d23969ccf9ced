#include "sched/parallel_executor.h"

#include <cassert>
#include <chrono>

namespace sqp {

/// Stage i's downstream: runs on worker i, buffers emissions and hands
/// them to stage i+1's queue a chunk at a time — one lock acquisition
/// and at most one wakeup per chunk instead of per element. Punctuations
/// flush the buffer immediately (they are the latency-critical control
/// path, and their ordering relative to buffered tuples is preserved by
/// flushing tuples first).
class ParallelExecutor::Relay : public Operator {
 public:
  Relay(ParallelExecutor* exec, size_t next, int port, size_t cap)
      : Operator("relay"),
        exec_(exec),
        next_(next),
        port_(port),
        cap_(cap == 0 ? 1 : cap) {
    buf_.reserve(cap_);
  }

  void Push(const Element& e, int /*port*/ = 0) override {
    buf_.push_back(Item{e, port_, nullptr});
    if (e.is_punctuation() || buf_.size() >= cap_) FlushBuffer();
  }

  /// Reached by the upstream operator's flush cascade.
  void Flush() override { FlushBuffer(); }

  bool SupportsColumns(int /*port*/ = 0) const override { return true; }

 protected:
  /// Batched hand-off from the upstream operator's Emit coalescing:
  /// move the whole output batch into the buffer (the relay is the end
  /// of this stage's synchronous chain, so it can take ownership), then
  /// flush once — same ordering as the per-element path (which would
  /// have flushed at the batch's last punctuation anyway), one
  /// EnqueueBatch per batch.
  void PushBatch(ElementBatch& batch, int /*port*/) override {
    buf_.reserve(buf_.size() + batch.size());
    bool saw_punct = false;
    for (Element& e : batch) {
      if (e.is_punctuation()) saw_punct = true;
      buf_.push_back(Item{std::move(e), port_, nullptr});
    }
    if (saw_punct || buf_.size() >= cap_) FlushBuffer();
  }

  /// Columnar hand-off: the batch crosses the stage boundary intact (no
  /// materialization) as a single queue item. Appended after any
  /// buffered row items so emission order is preserved, then flushed
  /// immediately — a columnar batch is already the amortization unit.
  void PushColumns(ColumnBatch& batch, int /*port*/) override {
    Item item;
    item.port = port_;
    item.cols = std::make_unique<ColumnBatch>(std::move(batch));
    buf_.push_back(std::move(item));
    FlushBuffer();
  }

 public:

  void FlushBuffer() {
    if (buf_.empty()) return;
    exec_->EnqueueBatch(next_, buf_);
    buf_.clear();
  }

 private:
  ParallelExecutor* exec_;
  size_t next_;
  int port_;
  size_t cap_;
  std::vector<Item> buf_;
};

ParallelExecutor::ParallelExecutor(std::vector<Stage> stages, Operator* sink)
    : stages_(std::move(stages)), sink_(sink) {
  assert(!stages_.empty());
  states_.reserve(stages_.size());
  for (const Stage& s : stages_) {
    auto st = std::make_unique<StageState>();
    st->cfg = s;
    states_.push_back(std::move(st));
  }
  // Wire stage i's output into stage i+1's queue. The relay runs on
  // worker i (it is stage i's downstream), so the only cross-thread
  // hand-off is the queue itself.
  relays_.reserve(stages_.size());
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i + 1 < stages_.size()) {
      size_t next = i + 1;
      relays_.push_back(std::make_unique<Relay>(
          this, next, stages_[next].in_port, stages_[next].wake_batch));
      stages_[i].op->SetOutput(relays_.back().get());
    } else if (sink_ != nullptr) {
      stages_[i].op->SetOutput(sink_);
    }
  }
}


ParallelExecutor::~ParallelExecutor() {
  if (running_) Stop();
}

void ParallelExecutor::Start() {
  assert(!started_ && "ParallelExecutor is one-shot: Start() once");
  started_ = true;
  running_ = true;
  for (size_t i = 0; i < states_.size(); ++i) {
    states_[i]->worker = std::thread([this, i] { WorkerLoop(i); });
  }
}

bool ParallelExecutor::Arrive(Element e) {
  return Enqueue(0, Item{std::move(e), stages_[0].in_port, nullptr});
}

bool ParallelExecutor::ArriveOn(Element e, int port) {
  return Enqueue(0, Item{std::move(e), port, nullptr});
}

bool ParallelExecutor::Enqueue(size_t stage, Item item) {
  StageState& st = *states_[stage];
  std::unique_lock<std::mutex> lock(st.mu);
  if (stop_ || st.closed) return false;
  const size_t limit = st.cfg.queue_limit;
  // Punctuations bypass the limit: a lost watermark deadlocks windows.
  if (limit != 0 && st.q_rows >= limit && !item.e.is_punctuation()) {
    if (st.cfg.backpressure == Backpressure::kDropNewest) {
      ++st.dropped;
      return false;
    }
    st.not_full.wait(lock, [&] {
      return stop_ || st.closed || st.q_rows < limit;
    });
    // Shutdown refusal, not an overload drop: the caller sees `false`
    // but `dropped` only counts queue-overflow losses.
    if (stop_ || st.closed) return false;
  }
  const bool is_punct = item.e.is_punctuation();
  item.enq_ns = obs::NowNs();
  st.q.push_back(std::move(item));
  st.q_rows += 1;
  ++st.enqueued;
  if (st.q_rows > st.max_depth) st.max_depth = st.q_rows;
  // Batched wakeup: signalling every element lets the consumer preempt
  // the producer one element at a time — on few cores that degenerates
  // into two context switches per element. Wake only once a batch is
  // ready, or immediately for punctuations (watermarks are the latency-
  // critical control path). Sub-batch trickle is covered by the worker's
  // poll timeout, and CloseStage/Stop wake unconditionally.
  // `== wake`, not `>=`: the worker only sleeps once the queue is empty
  // (a partially claimed queue keeps it looping without waiting), so a
  // refilling queue crosses the threshold exactly once per sleep —
  // signalling on every element past it would be a futex call per tuple.
  size_t wake = st.cfg.wake_batch == 0 ? 1 : st.cfg.wake_batch;
  if (limit != 0 && wake > limit) wake = limit;
  if (is_punct || st.q_rows == wake) st.not_empty.notify_one();
  return true;
}

void ParallelExecutor::EnqueueBatch(size_t stage, std::vector<Item>& items) {
  StageState& st = *states_[stage];
  std::unique_lock<std::mutex> lock(st.mu);
  const size_t limit = st.cfg.queue_limit;
  if (stop_ || st.closed) return;
  size_t chunk_rows = 0;
  for (const Item& item : items) chunk_rows += item.Weight();
  const uint64_t now = obs::NowNs();  // One clock read per chunk.
  for (Item& item : items) item.enq_ns = now;
  // Fast path: the whole chunk fits (or the queue is unbounded) — bulk
  // move without per-element bookkeeping.
  if (limit == 0 || st.q_rows + chunk_rows <= limit) {
    st.q.insert(st.q.end(), std::make_move_iterator(items.begin()),
                std::make_move_iterator(items.end()));
    st.q_rows += chunk_rows;
    st.enqueued += chunk_rows;
    if (st.q_rows > st.max_depth) st.max_depth = st.q_rows;
    st.not_empty.notify_one();
    return;
  }
  for (Item& item : items) {
    if (stop_ || st.closed) return;  // Shutdown: remainder refused.
    const bool bypass = item.cols == nullptr && item.e.is_punctuation();
    if (limit != 0 && st.q_rows >= limit && !bypass) {
      if (st.cfg.backpressure == Backpressure::kDropNewest) {
        if (item.cols != nullptr) {
          // A columnar item drops only its data rows; its punctuation
          // slots are re-admitted as plain elements (puncts are never
          // dropped — same contract as the row path).
          st.dropped += item.cols->ActiveRows();
          for (ColumnBatch::PunctSlot& ps : item.cols->puncts) {
            st.q.push_back(
                Item{Element(std::move(ps.punct)), item.port, nullptr});
            st.q_rows += 1;
            ++st.enqueued;
          }
        } else {
          ++st.dropped;
        }
        continue;
      }
      // The consumer must drain us before we can continue: make sure it
      // is awake before sleeping on not_full.
      st.not_empty.notify_one();
      st.not_full.wait(lock, [&] {
        return stop_ || st.closed || st.q_rows < limit;
      });
      if (stop_ || st.closed) return;
    }
    // A columnar item lands whole once below the limit (it may
    // transiently overshoot by its row count, like punctuations do).
    const size_t w = item.Weight();
    st.q.push_back(std::move(item));
    st.q_rows += w;
    st.enqueued += w;
  }
  if (st.q_rows > st.max_depth) st.max_depth = st.q_rows;
  st.not_empty.notify_one();  // Once per chunk, not per element.
}

void ParallelExecutor::CloseStage(size_t stage) {
  StageState& st = *states_[stage];
  {
    std::lock_guard<std::mutex> lock(st.mu);
    st.closed = true;
  }
  st.not_empty.notify_all();
  st.not_full.notify_all();
}

void ParallelExecutor::WorkerLoop(size_t stage) {
  StageState& st = *states_[stage];
  Operator* op = st.cfg.op;
  const size_t max_batch = st.cfg.max_batch == 0 ? 1 : st.cfg.max_batch;
  const bool columnar = st.cfg.columnar;
  std::deque<Item> batch;
  ElementBatch eb;
  ColumnBatch cb;
  if (max_batch > 1) eb.reserve(max_batch);
  for (;;) {
    batch.clear();
    bool flush = false;
    size_t claimed = 0;
    {
      std::unique_lock<std::mutex> lock(st.mu);
      // wait_for, not wait: producers suppress wakeups until a full
      // batch accumulates, so the poll timeout is what bounds the
      // latency of a sub-batch trickle.
      st.not_empty.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return stop_ || st.closed || !st.q.empty();
      });
      if (stop_) return;
      if (!st.q.empty()) {
        // Claim at most max_batch elements (columnar items weigh their
        // row counts) per lock acquisition — max_batch is the one
        // hand-off granularity knob, so =1 really is the classic
        // element-at-a-time executor (a lock round-trip and a producer
        // wakeup per element) that the batched path is measured against.
        if (st.q_rows <= max_batch) {
          batch.swap(st.q);
          claimed = st.q_rows;
          st.q_rows = 0;
        } else {
          while (!st.q.empty() && claimed < max_batch) {
            claimed += st.q.front().Weight();
            batch.push_back(std::move(st.q.front()));
            st.q.pop_front();
          }
          st.q_rows -= claimed;  // Weights are stable while queued.
        }
      } else if (st.closed) {
        // closed && empty: our input is finished.
        flush = true;
      } else {
        continue;  // Poll timeout with nothing to do.
      }
    }
    if (flush) break;
    // A batch was claimed: wake every producer blocked on the bound,
    // then process outside the lock.
    st.not_full.notify_all();
    obs::OpCounters& slot = op->counters();
    slot.IncBatches();
    slot.UpdateQueueDepth(claimed);
    // One clock read per claim: attribute how long the claimed items sat
    // in this stage's queue (producer-stamped at enqueue).
    const uint64_t now = obs::NowNs();
    uint64_t wait = 0, stamped = 0;
    for (const Item& item : batch) {
      if (item.enq_ns != 0 && now > item.enq_ns) {
        wait += now - item.enq_ns;
        ++stamped;
      }
    }
    if (stamped != 0) slot.AddQueueWait(wait, stamped);
    auto t0 = std::chrono::steady_clock::now();
    uint64_t deliveries = 0;
    if (max_batch <= 1) {
      // Exact pre-batching path: one virtual Push per element (columnar
      // items arriving from an upstream stage are still delivered whole
      // — slicing them back into rows would defeat the hand-off).
      for (Item& item : batch) {
        if (item.cols != nullptr) {
          op->ProcessColumns(*item.cols, item.port);
        } else {
          op->Process(item.e, item.port);
        }
        if (stop_) break;
      }
    } else {
      // Slice the claimed queue into same-port runs of at most
      // max_batch elements and deliver each as one ProcessBatch call
      // (or, on a columnar stage, one row→column conversion and one
      // ProcessColumns call). Columnar items already in the queue are
      // delivered whole, in order. Elements are moved out of the
      // claimed vector; order, including punctuations, is untouched.
      size_t i = 0;
      while (i < batch.size() && !stop_) {
        if (batch[i].cols != nullptr) {
          op->ProcessColumns(*batch[i].cols, batch[i].port);
          ++i;
          ++deliveries;
          continue;
        }
        const int port = batch[i].port;
        size_t end = batch.size() - i > max_batch ? i + max_batch
                                                  : batch.size();
        eb.clear();
        while (i < end && batch[i].port == port &&
               batch[i].cols == nullptr) {
          eb.push_back(std::move(batch[i].e));
          ++i;
        }
        if (columnar && op->SupportsColumns(port) &&
            ColumnBatch::FromRows(eb, &cb)) {
          op->ProcessColumns(cb, port);
        } else {
          op->ProcessBatch(eb, port);
        }
        ++deliveries;
      }
    }
    // Don't sit on buffered emissions while waiting for the next batch.
    if (stage < relays_.size()) relays_[stage]->FlushBuffer();
    auto t1 = std::chrono::steady_clock::now();
    st.busy_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.processed += claimed;
      st.batches += deliveries;
    }
    if (stop_) return;
  }
  // Flush cascade: close-out emissions flow through the relay into the
  // next stage's queue before we mark it closed.
  op->Flush();
  if (stage + 1 < states_.size()) CloseStage(stage + 1);
}

void ParallelExecutor::Drain() {
  if (!running_) return;
  CloseStage(0);
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  running_ = false;
}

void ParallelExecutor::Stop() {
  if (!running_) return;
  stop_ = true;
  for (size_t i = 0; i < states_.size(); ++i) {
    StageState& st = *states_[i];
    std::lock_guard<std::mutex> lock(st.mu);
    st.not_empty.notify_all();
    st.not_full.notify_all();
  }
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  running_ = false;
}

sched::StageStats ParallelExecutor::stage_stats(size_t i) const {
  const StageState& st = *states_[i];
  sched::StageStats out;
  std::lock_guard<std::mutex> lock(st.mu);
  out.enqueued = st.enqueued;
  out.processed = st.processed;
  out.batches = st.batches;
  out.dropped = st.dropped;
  out.queue_depth = st.q_rows;
  out.max_queue_depth = st.max_depth;
  out.busy_time =
      static_cast<double>(st.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  return out;
}

void ParallelExecutor::CollectStats(obs::SnapshotBuilder& builder,
                                    const obs::LabelSet& base_labels) const {
  for (size_t i = 0; i < states_.size(); ++i) {
    sched::StageStats s = stage_stats(i);
    obs::LabelSet labels = base_labels;
    labels.emplace_back("stage", std::to_string(i));
    labels.emplace_back("op", stages_[i].op->name());
    // Mirror the queue high-water into the operator's own slot so
    // per-op views show queue pressure without asking the executor.
    stages_[i].op->counters().UpdateQueueDepth(s.max_queue_depth);
    sched::PublishStageStats(builder, labels, s);
  }
}

uint64_t ParallelExecutor::dropped() const {
  uint64_t n = 0;
  for (size_t i = 0; i < states_.size(); ++i) n += stage_stats(i).dropped;
  return n;
}

size_t ParallelExecutor::QueuedElements() const {
  size_t n = 0;
  for (const auto& st : states_) {
    std::lock_guard<std::mutex> lock(st->mu);
    n += st->q_rows;
  }
  return n;
}

}  // namespace sqp
