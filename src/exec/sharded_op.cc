#include "exec/sharded_op.h"

#include <algorithm>
#include <cassert>
#include <chrono>

namespace sqp {

ShardedOp::ShardedOp(ShardedOpOptions options, ShardReplicaFactory factory,
                     std::string name)
    : Operator(std::move(name)),
      options_(options),
      router_(options.shards, options.routing, options.key_cols),
      expected_flushes_(options.expected_flushes > 0
                            ? options.expected_flushes
                            : static_cast<int>(options.key_cols.size())),
      merge_channel_(options.merge_queue_limit, Backpressure::kBlock,
                     options.batch),
      merge_(options.shards, options.routing) {
  assert(options_.shards > 0);
  states_.reserve(static_cast<size_t>(options_.shards));
  for (int i = 0; i < options_.shards; ++i) {
    auto st = std::make_unique<ShardState>(options_, &merge_channel_, i,
                                           factory(i));
    st->replica->SetOutput(&st->feed);
    st->state_bytes.store(st->replica->StateBytes(),
                          std::memory_order_relaxed);
    states_.push_back(std::move(st));
  }
}

ShardedOp::~ShardedOp() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Abandon queued work: no flush, just wake and join every worker.
  stop_.store(true, std::memory_order_release);
  for (auto& st : states_) st->channel.Stop();
  merge_channel_.Stop();
  JoinWorkers();
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
    for (int i = 0; i < options_.shards; ++i) Enqueue(i, e, port);
    return;
  }
  Enqueue(target, e, port);
}

void ShardedOp::Enqueue(int shard, const Element& e, int port) {
  ShardState& st = *states_[static_cast<size_t>(shard)];
  HandoffItem item{e, port};
  if (st.channel.TryPush(item) != PushResult::kFull) return;
  // Full under kBlock: report the stall, rate-limited to one per second
  // per shard, then block.
  if (options_.events != nullptr) {
    const uint64_t now = obs::NowNs();
    if (now - st.last_stall_ns >= 1000000000ull) {
      st.last_stall_ns = now;
      options_.events->Emit(
          obs::EventKind::kShardStall, options_.event_label,
          name() + " shard " + std::to_string(shard) + " queue full (" +
              std::to_string(st.channel.stats().depth) +
              " queued); producer blocked");
    }
  }
  st.channel.Push(std::move(item));
}

void ShardedOp::ShardLoop(int shard) {
  ShardState& st = *states_[static_cast<size_t>(shard)];
  Operator* replica = st.replica.get();
  RunDelivery delivery(replica, options_.batch, options_.columnar);
  HandoffChannel::Batch batch;
  for (;;) {
    // The whole backlog per claim: capping it at `batch` read ~20% slower
    // on E18's sharded group-by, where per-claim costs dominate.
    const ClaimResult claim = st.channel.Claim(batch, SIZE_MAX);
    if (claim == ClaimResult::kStopped) return;
    if (claim == ClaimResult::kEnded) break;
    if (claim == ClaimResult::kIdle) continue;
    auto t0 = std::chrono::steady_clock::now();
    delivery.Deliver(batch, stop_);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Don't sit on buffered emissions while waiting for the next batch.
    st.feed.Send();
    auto t1 = std::chrono::steady_clock::now();
    st.busy_ns.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count(),
        std::memory_order_relaxed);
    st.state_bytes.store(replica->StateBytes(), std::memory_order_relaxed);
  }
  // Drain: one Flush per input port (binary replicas count flushes),
  // close-out emissions flow into the merge channel, then the done
  // marker behind them.
  for (int f = 0; f < expected_flushes_; ++f) replica->Flush();
  st.state_bytes.store(replica->StateBytes(), std::memory_order_relaxed);
  st.feed.SendDone();
}

void ShardedOp::MergeLoop() {
  int done = 0;
  HandoffChannel::Batch batch;
  while (done < options_.shards) {
    if (merge_channel_.Claim(batch, SIZE_MAX) == ClaimResult::kStopped) {
      return;
    }
    for (HandoffItem& item : batch) {
      if (item.done) {
        ++done;
        continue;
      }
      if (item.e.is_tuple()) {
        merged_tuples_.fetch_add(1, std::memory_order_relaxed);
      }
      states_[static_cast<size_t>(item.port)]->merged.fetch_add(
          1, std::memory_order_relaxed);
      merge_.Push(item.e, item.port);
      if (stop_.load(std::memory_order_relaxed)) return;
    }
  }
  // Every shard flushed and its marker is behind all its output
  // (per-shard FIFO), so the tail is fully forwarded. The Nth merge
  // flush forwards one Flush downstream, on this thread — the only
  // thread that ever touched downstream.
  for (int i = 0; i < options_.shards; ++i) merge_.Flush();
}

void ShardedOp::Flush() {
  if (++flushes_seen_ < expected_flushes_) return;
  if (!started_) {
    // Never saw data: nothing to drain, but the cascade must continue.
    Operator::Flush();
    return;
  }
  for (auto& st : states_) st->channel.Close();
  JoinWorkers();
}

void ShardedOp::JoinWorkers() {
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
  const ChannelStats c = st.channel.stats();
  ShardStats out;
  out.routed = c.enqueued;
  out.merged = st.merged.load(std::memory_order_relaxed);
  out.dropped = c.dropped;
  out.queue_depth = c.depth;
  out.max_queue_depth = c.max_depth;
  out.busy_time =
      static_cast<double>(st.busy_ns.load(std::memory_order_relaxed)) * 1e-9;
  out.state_bytes = st.state_bytes.load(std::memory_order_relaxed);
  return out;
}

double ShardedOp::SkewRatio() const {
  uint64_t total = 0;
  uint64_t peak = 0;
  for (const auto& st : states_) {
    uint64_t r = st->channel.stats().enqueued;
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
  for (const auto& st : states_) n += st->channel.stats().dropped;
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
