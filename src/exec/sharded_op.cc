#include "exec/sharded_op.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace sqp {

/// Shard worker i's downstream: buffers the replica's emissions and
/// hands them to the merge queue a chunk at a time — one lock
/// acquisition and at most one wakeup per chunk. Punctuations flush the
/// buffer immediately (they are the latency-critical control path;
/// ordering is preserved because the whole buffer goes over in order).
class ShardedOp::MergeFeed : public Operator {
 public:
  MergeFeed(ShardedOp* owner, int shard, size_t cap)
      : Operator("merge-feed"),
        owner_(owner),
        shard_(shard),
        cap_(cap == 0 ? 1 : cap) {
    buf_.reserve(cap_);
  }

  void Push(const Element& e, int /*port*/ = 0) override {
    bool punct = e.is_punctuation();
    buf_.push_back(MergeItem{e, shard_, false});
    if (punct || buf_.size() >= cap_) FlushBuffer();
  }

  /// Reached by the replica's flush cascade.
  void Flush() override { FlushBuffer(); }

  /// Batched hand-off from the replica's Emit coalescing.
  void PushBatch(ElementBatch& batch, int /*port*/) override {
    buf_.reserve(buf_.size() + batch.size());
    bool saw_punct = false;
    for (Element& e : batch) {
      if (e.is_punctuation()) saw_punct = true;
      buf_.push_back(MergeItem{std::move(e), shard_, false});
    }
    if (saw_punct || buf_.size() >= cap_) FlushBuffer();
  }

  void FlushBuffer() {
    if (buf_.empty()) return;
    owner_->EnqueueMerge(buf_);
    buf_.clear();
  }

  /// End-of-shard marker, after the replica's close-out output.
  void SendDone() {
    buf_.push_back(MergeItem{Element(), shard_, true});
    FlushBuffer();
  }

 private:
  ShardedOp* owner_;
  int shard_;
  size_t cap_;
  std::vector<MergeItem> buf_;
};

ShardedOp::ShardedOp(ShardedOpOptions options, ShardReplicaFactory factory,
                     std::string name)
    : Operator(std::move(name)),
      options_(options),
      router_(options.shards, options.routing, options.key_cols),
      expected_flushes_(options.expected_flushes > 0
                            ? options.expected_flushes
                            : static_cast<int>(options.key_cols.size())),
      merge_(options.shards, options.routing) {
  assert(options_.shards > 0);
  states_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    auto st = std::make_unique<ShardState>();
    st->replica = factory(i);
    st->feed = std::make_unique<MergeFeed>(this, i, options_.wake_batch);
    st->replica->SetOutput(st->feed.get());
    st->state_bytes.store(st->replica->StateBytes(),
                          std::memory_order_relaxed);
    states_.push_back(std::move(st));
  }
}

ShardedOp::~ShardedOp() {
  if (running_.load(std::memory_order_acquire)) StopAndJoin();
}

void ShardedOp::EnsureStarted() {
  if (started_) return;
  started_ = true;
  // The merge drives everything downstream of this operator, so wire it
  // to whatever Push-time output this op has. (Re-wiring the output
  // after the first Push is not supported.)
  merge_.SetOutput(output(), output_port());
  running_.store(true, std::memory_order_release);
  merge_worker_ = std::thread([this] { MergeLoop(); });
  for (int i = 0; i < options_.shards; ++i) {
    states_[static_cast<size_t>(i)]->worker =
        std::thread([this, i] { ShardLoop(i); });
  }
}

void ShardedOp::Push(const Element& e, int port) {
  CountIn(e);
  EnsureStarted();
  int target = router_.Route(e, port);
  if (target == ShardRouter::kBroadcast) {
    for (int i = 0; i < options_.shards; ++i) {
      EnqueueShard(i, Item{e, port});
    }
    return;
  }
  EnqueueShard(target, Item{e, port});
}

bool ShardedOp::EnqueueShard(int shard, Item item) {
  ShardState& st = *states_[static_cast<size_t>(shard)];
  std::unique_lock<std::mutex> lock(st.mu);
  if (stop_.load(std::memory_order_relaxed) || st.closed) return false;
  const size_t limit = options_.queue_limit;
  const bool is_punct = item.e.is_punctuation();
  // Punctuations bypass the limit: a lost watermark stalls the merge's
  // min rule and every windowed replica behind it.
  if (limit != 0 && st.q.size() >= limit && !is_punct) {
    if (options_.backpressure == ShardBackpressure::kDropNewest) {
      ++st.dropped;
      return false;
    }
    if (options_.events != nullptr) {
      const uint64_t now = obs::NowNs();
      if (now - st.last_stall_ns >= 1000000000ull) {  // 1/s per shard.
        st.last_stall_ns = now;
        options_.events->Emit(
            obs::EventKind::kShardStall, options_.event_label,
            name() + " shard " + std::to_string(shard) + " queue full (" +
                std::to_string(st.q.size()) + " queued); producer blocked");
      }
    }
    st.not_full.wait(lock, [&] {
      return stop_.load(std::memory_order_relaxed) || st.closed ||
             st.q.size() < limit;
    });
    if (stop_.load(std::memory_order_relaxed) || st.closed) return false;
  }
  st.q.push_back(std::move(item));
  st.routed.fetch_add(1, std::memory_order_relaxed);
  if (st.q.size() > st.max_depth) st.max_depth = st.q.size();
  // Batched wakeup (see ParallelExecutor::Enqueue): the worker only
  // sleeps on an empty queue, so the threshold is crossed exactly once
  // per sleep; the worker's poll timeout covers sub-batch trickles.
  size_t wake = options_.wake_batch == 0 ? 1 : options_.wake_batch;
  if (limit != 0 && wake > limit) wake = limit;
  if (is_punct || st.q.size() == wake) st.not_empty.notify_one();
  return true;
}

void ShardedOp::EnqueueMerge(std::vector<MergeItem>& items) {
  std::unique_lock<std::mutex> lock(merge_mu_);
  const size_t limit = options_.merge_queue_limit;
  for (MergeItem& item : items) {
    if (stop_.load(std::memory_order_relaxed)) return;
    // The merge queue always blocks (never drops): these are produced
    // results, and losing them would silently corrupt output — load
    // shedding belongs at the input queues. Punctuations and done
    // markers bypass the bound.
    if (limit != 0 && merge_q_.size() >= limit && !item.shard_done &&
        !item.e.is_punctuation()) {
      merge_not_empty_.notify_one();
      merge_not_full_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               merge_q_.size() < limit;
      });
      if (stop_.load(std::memory_order_relaxed)) return;
    }
    merge_q_.push_back(std::move(item));
  }
  merge_not_empty_.notify_one();  // Once per chunk.
}

void ShardedOp::ShardLoop(int shard) {
  ShardState& st = *states_[static_cast<size_t>(shard)];
  Operator* replica = st.replica.get();
  const bool columnar = options_.columnar;
  std::deque<Item> batch;
  ElementBatch eb;
  ColumnBatch cb;
  for (;;) {
    batch.clear();
    bool drain = false;
    {
      std::unique_lock<std::mutex> lock(st.mu);
      st.not_empty.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return stop_.load(std::memory_order_relaxed) || st.closed ||
               !st.q.empty();
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      if (!st.q.empty()) {
        batch.swap(st.q);
      } else if (st.closed) {
        drain = true;
      } else {
        continue;  // Poll timeout with nothing to do.
      }
    }
    if (drain) break;
    st.not_full.notify_all();
    auto t0 = std::chrono::steady_clock::now();
    size_t i = 0;
    while (i < batch.size()) {
      const int port = batch[i].port;
      if (!columnar || !replica->SupportsColumns(port)) {
        replica->Process(batch[i].e, port);
        ++i;
      } else {
        // Columnar shard: convert the consecutive same-port run once
        // and fold it column-at-a-time; conversion failure (ragged or
        // mixed-type rows) falls back to the row batch unchanged.
        eb.clear();
        while (i < batch.size() && batch[i].port == port) {
          eb.push_back(std::move(batch[i].e));
          ++i;
        }
        if (ColumnBatch::FromRows(eb, &cb)) {
          replica->ProcessColumns(cb, port);
        } else {
          replica->ProcessBatch(eb, port);
        }
      }
      if (stop_.load(std::memory_order_relaxed)) return;
    }
    // Don't sit on buffered emissions while waiting for the next batch.
    st.feed->FlushBuffer();
    auto t1 = std::chrono::steady_clock::now();
    st.busy_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::memory_order_relaxed);
    st.state_bytes.store(replica->StateBytes(), std::memory_order_relaxed);
  }
  // Drain: one Flush per input port (binary replicas count flushes),
  // close-out emissions flow into the merge queue, then the done marker.
  for (int f = 0; f < expected_flushes_; ++f) replica->Flush();
  st.feed->FlushBuffer();
  st.state_bytes.store(replica->StateBytes(), std::memory_order_relaxed);
  st.feed->SendDone();
}

void ShardedOp::MergeLoop() {
  int done = 0;
  std::deque<MergeItem> batch;
  for (;;) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(merge_mu_);
      merge_not_empty_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) || !merge_q_.empty();
      });
      if (stop_.load(std::memory_order_relaxed)) return;
      batch.swap(merge_q_);
    }
    merge_not_full_.notify_all();
    for (MergeItem& item : batch) {
      if (item.shard_done) {
        ++done;
        continue;
      }
      if (item.e.is_tuple()) {
        merged_tuples_.fetch_add(1, std::memory_order_relaxed);
      }
      states_[static_cast<size_t>(item.shard)]->merged.fetch_add(
          1, std::memory_order_relaxed);
      merge_.Push(item.e, item.shard);
      if (stop_.load(std::memory_order_relaxed)) return;
    }
    if (done >= options_.shards) {
      // Every shard flushed and its marker is behind all its output
      // (per-shard FIFO), so the tail is fully forwarded. The Nth merge
      // flush forwards one Flush downstream, on this thread — the only
      // thread that ever touched downstream.
      for (int i = 0; i < options_.shards; ++i) merge_.Flush();
      return;
    }
  }
}

void ShardedOp::Flush() {
  if (++flushes_seen_ < expected_flushes_) return;
  if (!started_) {
    // Never saw data: nothing to drain, but the cascade must continue.
    Operator::Flush();
    return;
  }
  DrainAndJoin();
}

void ShardedOp::DrainAndJoin() {
  for (auto& st : states_) {
    {
      std::lock_guard<std::mutex> lock(st->mu);
      st->closed = true;
    }
    st->not_empty.notify_all();
    st->not_full.notify_all();
  }
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  if (merge_worker_.joinable()) merge_worker_.join();
  running_.store(false, std::memory_order_release);
}

void ShardedOp::StopAndJoin() {
  stop_.store(true, std::memory_order_release);
  for (auto& st : states_) {
    std::lock_guard<std::mutex> lock(st->mu);
    st->not_empty.notify_all();
    st->not_full.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(merge_mu_);
    merge_not_empty_.notify_all();
    merge_not_full_.notify_all();
  }
  for (auto& st : states_) {
    if (st->worker.joinable()) st->worker.join();
  }
  if (merge_worker_.joinable()) merge_worker_.join();
  running_.store(false, std::memory_order_release);
}

size_t ShardedOp::StateBytes() const {
  size_t bytes = sizeof(*this) + merge_.StateBytes();
  for (const auto& st : states_) {
    bytes += st->state_bytes.load(std::memory_order_relaxed);
  }
  return bytes;
}

ShardStats ShardedOp::shard_stats(int i) const {
  const ShardState& st = *states_[static_cast<size_t>(i)];
  ShardStats out;
  out.routed = st.routed.load(std::memory_order_relaxed);
  out.merged = st.merged.load(std::memory_order_relaxed);
  out.busy_time =
      static_cast<double>(st.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  out.state_bytes = st.state_bytes.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(st.mu);
  out.dropped = st.dropped;
  out.queue_depth = st.q.size();
  out.max_queue_depth = st.max_depth;
  return out;
}

double ShardedOp::SkewRatio() const {
  uint64_t total = 0;
  uint64_t peak = 0;
  for (const auto& st : states_) {
    uint64_t r = st->routed.load(std::memory_order_relaxed);
    total += r;
    peak = std::max(peak, r);
  }
  if (total == 0) return 1.0;
  double mean =
      static_cast<double>(total) / static_cast<double>(states_.size());
  return static_cast<double>(peak) / mean;
}

uint64_t ShardedOp::dropped() const {
  uint64_t n = 0;
  for (const auto& st : states_) {
    std::lock_guard<std::mutex> lock(st->mu);
    n += st->dropped;
  }
  return n;
}

void ShardedOp::CollectStats(obs::SnapshotBuilder& builder,
                             const obs::LabelSet& base_labels) const {
  obs::LabelSet op_labels = base_labels;
  op_labels.emplace_back("op", name());
  builder.AddGauge("sqp_shard_skew", op_labels, SkewRatio());
  builder.AddGauge("sqp_shard_count", op_labels,
                   static_cast<double>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    ShardStats s = shard_stats(i);
    obs::LabelSet labels = op_labels;
    labels.emplace_back("shard", std::to_string(i));
    builder.AddCounter("sqp_shard_routed_total", labels,
                       static_cast<double>(s.routed));
    builder.AddCounter("sqp_shard_merged_total", labels,
                       static_cast<double>(s.merged));
    builder.AddCounter("sqp_shard_dropped_total", labels,
                       static_cast<double>(s.dropped));
    builder.AddGauge("sqp_shard_backlog", labels,
                     static_cast<double>(s.queue_depth));
    builder.AddGauge("sqp_shard_max_queue_depth", labels,
                     static_cast<double>(s.max_queue_depth));
    builder.AddCounter("sqp_shard_busy_time", labels, s.busy_time);
    builder.AddGauge("sqp_shard_state_bytes", labels,
                     static_cast<double>(s.state_bytes));
  }
}

}  // namespace sqp
