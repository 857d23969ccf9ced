#include "sched/queued_executor.h"

#include <algorithm>

namespace sqp {

class QueuedExecutor::Relay : public Operator {
 public:
  Relay(QueuedExecutor* exec, size_t next)
      : Operator("relay"), exec_(exec), next_(next) {}

  void Push(const Element& e, int /*port*/ = 0) override {
    CountIn(e);
    exec_->Admit(next_, e);
  }

 protected:
  /// A batched flush owns its elements (the producer is done with
  /// them), so move each into its queue entry — no per-element
  /// shared_ptr refcount round-trip at the stage boundary.
  void PushBatch(ElementBatch& batch, int /*port*/) override {
    uint64_t tuples = 0;
    uint64_t puncts = 0;
    for (Element& e : batch) {
      if (e.is_punctuation()) {
        ++puncts;
      } else {
        ++tuples;
      }
      exec_->Admit(next_, std::move(e));
    }
    CountInBulk(tuples, puncts);
  }

 private:
  QueuedExecutor* exec_;
  size_t next_;
};

QueuedExecutor::QueuedExecutor(std::vector<Stage> stages, Operator* sink,
                               std::unique_ptr<SchedulingPolicy> policy)
    : stages_(std::move(stages)),
      queues_(stages_.size()),
      stage_stats_(stages_.size()),
      sink_(sink),
      policy_(std::move(policy)),
      head_size_(policy_->reads_head_size()),
      progress_(stages_.size(), 0.0) {
  // Wire each operator's output: stage i -> queue i+1 via a batch-aware
  // relay; the last stage goes straight to the user sink.
  relays_.reserve(stages_.size());
  for (size_t i = 0; i < stages_.size(); ++i) {
    if (i + 1 < stages_.size()) {
      relays_.push_back(std::make_unique<Relay>(this, i + 1));
      stages_[i].op->SetOutput(relays_.back().get());
    } else {
      stages_[i].op->SetOutput(sink_);
    }
  }
}

QueuedExecutor::~QueuedExecutor() = default;

bool QueuedExecutor::Admit(size_t stage, Element e) {
  const Stage& s = stages_[stage];
  sched::StageStats& stats = stage_stats_[stage];
  std::deque<Entry>& q = queues_[stage];
  // Punctuations bypass the bound: a dropped watermark stalls every
  // window downstream.
  if (s.queue_limit != 0 && q.size() >= s.queue_limit &&
      !e.is_punctuation()) {
    ++stats.dropped;
    ++dropped_;
    return false;
  }
  // Queue wait is sampled like busy time: only the elements the
  // thread's sampler picks are stamped (and read the clock again on
  // delivery); DeliverBatch scales their wait back up.
  const uint64_t enq_ns =
      obs::ObsContext().TakeTimeSample() ? obs::NowNs() : 0;
  q.push_back(Entry{std::move(e), seq_++, enq_ns});
  ++stats.enqueued;
  stats.queue_depth = q.size();
  if (q.size() > stats.max_queue_depth) stats.max_queue_depth = q.size();
  return true;
}

bool QueuedExecutor::Arrive(Element e) { return Admit(0, std::move(e)); }

const std::vector<OpView>& QueuedExecutor::MakeViews() {
  views_.assign(stages_.size(), OpView{});
  for (size_t i = 0; i < stages_.size(); ++i) {
    views_[i].queue_len = queues_[i].size();
    views_[i].selectivity = stages_[i].selectivity_hint;
    views_[i].cost = stages_[i].cost;
    if (!queues_[i].empty()) {
      const Entry& front = queues_[i].front();
      views_[i].head_seq = front.seq;
      // Real size of the waiting element, so size-aware policies
      // (Greedy) see shrinking tuples the way the [BBDM03] model does.
      if (head_size_) {
        views_[i].head_size = static_cast<double>(front.e.MemoryBytes());
      }
    }
  }
  return views_;
}

void QueuedExecutor::DeliverBatch(size_t stage, size_t n) {
  std::deque<Entry>& q = queues_[stage];
  sched::StageStats& stats = stage_stats_[stage];
  // Only the entries Admit stamped read the clock, once per delivery.
  uint64_t now = 0, wait = 0, stamped = 0;
  auto pop = [&] {
    Entry& front = q.front();
    if (front.enq_ns != 0) {
      if (now == 0) now = obs::NowNs();
      if (now > front.enq_ns) {
        wait += now - front.enq_ns;
        ++stamped;
      }
    }
    Element e = std::move(front.e);
    q.pop_front();
    return e;
  };
  Element single;
  if (n == 1) {
    single = pop();
  } else {
    scratch_.clear();
    scratch_.reserve(n);
    for (size_t i = 0; i < n; ++i) scratch_.push_back(pop());
  }
  // A stamped entry stands for kTimeSampleEvery queued ones.
  if (stamped != 0) {
    stages_[stage].op->counters().AddQueueWait(
        wait * obs::kTimeSampleEvery, stamped * obs::kTimeSampleEvery);
  }
  stats.processed += n;
  stats.queue_depth = q.size();
  if (n == 1) {
    stages_[stage].op->Process(single, 0);
    return;
  }
  ++stats.batches;
  stages_[stage].op->ProcessBatch(scratch_, 0);
}

void QueuedExecutor::CollectStats(obs::SnapshotBuilder& builder,
                                  const obs::LabelSet& base_labels) const {
  for (size_t i = 0; i < stages_.size(); ++i) {
    obs::LabelSet labels = base_labels;
    labels.emplace_back("stage", std::to_string(i));
    labels.emplace_back("op", stages_[i].op->name());
    stages_[i].op->counters().UpdateQueueDepth(
        stage_stats_[i].max_queue_depth);
    sched::PublishStageStats(builder, labels, stage_stats_[i]);
  }
}

void QueuedExecutor::Tick(double capacity) {
  double budget = capacity;
  while (budget > 1e-12) {
    int pick = policy_->Pick(MakeViews());
    if (pick < 0) break;
    size_t i = static_cast<size_t>(pick);
    const std::deque<Entry>& q = queues_[i];
    double needed = stages_[i].cost - progress_[i];
    if (needed > budget) {
      progress_[i] += budget;
      stage_stats_[i].busy_time += budget;
      break;
    }
    budget -= needed;
    progress_[i] = 0.0;
    stage_stats_[i].busy_time += needed;
    // Batched delivery: if the stage allows it and the remaining budget
    // covers further whole elements, deliver them in the same pick —
    // each still charged full cost, so total work per tick is unchanged;
    // only the delivery granularity grows.
    size_t extra = 0;
    if (stages_[i].max_batch > 1 && q.size() > 1) {
      extra = std::min(q.size() - 1, stages_[i].max_batch - 1);
      if (stages_[i].cost > 1e-12) {
        size_t affordable = static_cast<size_t>(budget / stages_[i].cost);
        if (extra > affordable) extra = affordable;
      }
      double charged = static_cast<double>(extra) * stages_[i].cost;
      budget -= charged;
      stage_stats_[i].busy_time += charged;
    }
    DeliverBatch(i, 1 + extra);
  }
}

void QueuedExecutor::Drain() {
  auto drain_queues = [&] {
    bool any = true;
    while (any) {
      any = false;
      for (size_t i = 0; i < stages_.size(); ++i) {
        const size_t chunk =
            stages_[i].max_batch > 0 ? stages_[i].max_batch : 1;
        while (!queues_[i].empty()) {
          DeliverBatch(i, std::min(chunk, queues_[i].size()));
          any = true;
        }
      }
    }
  };
  drain_queues();
  // Flush stage by stage; a flush may emit buffered results into the
  // next queue (e.g. group-by close-out), so re-drain after each.
  for (size_t i = 0; i < stages_.size(); ++i) {
    stages_[i].op->Flush();
    drain_queues();
  }
}

size_t QueuedExecutor::QueuedElements() const {
  size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

size_t QueuedExecutor::QueuedBytes() const {
  size_t bytes = 0;
  for (const auto& q : queues_) {
    for (const Entry& e : q) bytes += e.e.MemoryBytes();
  }
  return bytes;
}

}  // namespace sqp
