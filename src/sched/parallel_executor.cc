#include "sched/parallel_executor.h"

#include <cassert>
#include <chrono>

namespace sqp {

ParallelExecutor::ParallelExecutor(std::vector<Stage> stages, Operator* sink)
    : sink_(sink) {
  assert(!stages.empty());
  states_.reserve(stages.size());
  for (const Stage& s : stages) {
    states_.push_back(std::make_unique<StageState>(s));
  }
  // Wire stage i's output into stage i+1's channel. The feed runs on
  // worker i (it is stage i's downstream), so the only cross-thread
  // hand-off is the channel itself.
  feeds_.reserve(stages.size());
  for (size_t i = 0; i < stages.size(); ++i) {
    if (i + 1 < stages.size()) {
      const Stage& next = stages[i + 1];
      feeds_.push_back(std::make_unique<ChannelFeed>(
          &states_[i + 1]->channel, next.in_port, next.max_batch,
          /*columns=*/true));
      stages[i].op->SetOutput(feeds_.back().get());
    } else if (sink_ != nullptr) {
      stages[i].op->SetOutput(sink_);
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
  return ArriveOn(std::move(e), states_[0]->cfg.in_port);
}

bool ParallelExecutor::ArriveOn(Element e, int port) {
  HandoffItem item{std::move(e), port};
  item.enq_ns = obs::NowNs();
  return states_[0]->channel.Push(std::move(item)) == PushResult::kAccepted;
}

void ParallelExecutor::WorkerLoop(size_t stage) {
  StageState& st = *states_[stage];
  Operator* op = st.cfg.op;
  RunDelivery delivery(op, st.cfg.max_batch, st.cfg.columnar);
  HandoffChannel::Batch batch;
  for (;;) {
    const ClaimResult claim = st.channel.Claim(batch, st.cfg.max_batch);
    if (claim == ClaimResult::kStopped) return;
    if (claim == ClaimResult::kEnded) break;
    if (claim == ClaimResult::kIdle) continue;
    // One clock read per claim: attribute how long the claimed items sat
    // in this stage's channel (stamped at enqueue).
    const uint64_t now = obs::NowNs();
    uint64_t claimed = 0, wait = 0, stamped = 0;
    for (const HandoffItem& item : batch) {
      claimed += item.Weight();
      if (item.enq_ns != 0 && now > item.enq_ns) {
        wait += now - item.enq_ns;
        ++stamped;
      }
    }
    obs::OpCounters& slot = op->counters();
    slot.IncBatches();
    slot.UpdateQueueDepth(claimed);
    if (stamped != 0) slot.AddQueueWait(wait, stamped);
    auto t0 = std::chrono::steady_clock::now();
    const uint64_t deliveries = delivery.Deliver(batch, stop_);
    // Don't sit on buffered emissions while waiting for the next batch.
    if (stage < feeds_.size()) feeds_[stage]->Send();
    auto t1 = std::chrono::steady_clock::now();
    st.busy_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::memory_order_relaxed);
    st.processed.fetch_add(claimed, std::memory_order_relaxed);
    st.batches.fetch_add(deliveries, std::memory_order_relaxed);
    if (stop_) return;
  }
  // Flush cascade: close-out emissions flow through the feed into the
  // next stage's channel before we close it.
  op->Flush();
  if (stage + 1 < states_.size()) states_[stage + 1]->channel.Close();
}

void ParallelExecutor::Drain() {
  if (!running_) return;
  states_[0]->channel.Close();
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  running_ = false;
}

void ParallelExecutor::Stop() {
  if (!running_) return;
  stop_ = true;
  for (auto& st : states_) st->channel.Stop();
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  running_ = false;
}

sched::StageStats ParallelExecutor::stage_stats(size_t i) const {
  const StageState& st = *states_[i];
  const ChannelStats c = st.channel.stats();
  sched::StageStats out;
  out.enqueued = c.enqueued;
  out.processed = st.processed.load(std::memory_order_relaxed);
  out.batches = st.batches.load(std::memory_order_relaxed);
  out.dropped = c.dropped;
  out.queue_depth = c.depth;
  out.max_queue_depth = c.max_depth;
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
    labels.emplace_back("op", states_[i]->cfg.op->name());
    // Mirror the queue high-water into the operator's own slot so
    // per-op views show queue pressure without asking the executor.
    states_[i]->cfg.op->counters().UpdateQueueDepth(s.max_queue_depth);
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
  for (const auto& st : states_) n += st->channel.stats().depth;
  return n;
}

}  // namespace sqp
