#ifndef SQP_STREAM_CHANNEL_H_
#define SQP_STREAM_CHANNEL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

namespace sqp {

/// What a bounded Channel does when a producer finds it full.
enum class Backpressure {
  /// The producer blocks until the consumer frees room: loss-free, and
  /// it propagates pressure upstream (the punctuation/feedback style of
  /// inter-operator flow control).
  kBlock,
  /// The arriving item is dropped and counted: the classic DSMS
  /// overload response (load shedding at the queue).
  kDropNewest,
};

/// Channel counters, all in item weight (elements, not slots).
struct ChannelStats {
  uint64_t enqueued = 0;
  uint64_t dropped = 0;
  uint64_t depth = 0;
  uint64_t max_depth = 0;
};

enum class PushResult {
  kAccepted,
  kDropped,  ///< Shed under kDropNewest (counted in `dropped`).
  kClosed,   ///< Refused after Close/Stop (not counted as a drop).
  kFull,     ///< TryPush only: kBlock would have blocked; item untouched.
};

enum class ClaimResult {
  kClaimed,  ///< `out` holds at least one item.
  kIdle,     ///< The poll timed out on an empty, open channel.
  kEnded,    ///< Closed and drained: no item will ever arrive.
  kStopped,  ///< Stop() was called; the backlog is abandoned.
};

/// The one bounded hand-off between threads: a multi-producer,
/// single-consumer FIFO of `Item`s with the DSMS queue contract. It
/// either blocks or sheds when full, and never refuses or reorders
/// punctuation (slides 43 and 53). ParallelExecutor stages and
/// ShardedOp's shard and merge queues all run on it.
///
/// `Item` provides:
///  - `size_t Weight() const`: what the bound, the wake threshold and
///    the counters measure (1 per row element; a columnar batch weighs
///    its rows);
///  - `bool Bypass() const`: true for items that pass the bound and are
///    never shed (punctuation, end-of-producer markers);
///  - `size_t Shed(keep)`: called when kDropNewest refuses the item;
///    hands any bypass parts it carries to `keep(Item&&)` (they are
///    queued in order) and returns the weight lost.
///
/// Consumers are woken once `batch` weight is queued (capped at the
/// bound), at once for a bypass item, and once per PushAll chunk; a
/// ~1 ms poll in Claim picks up sub-batch trickles.
template <typename Item>
class Channel {
 public:
  /// What Claim hands the consumer: the claimed items, oldest first.
  using Batch = std::deque<Item>;

  /// `limit` bounds the queued weight (0 = unbounded). A non-bypass item
  /// is admitted while the depth is below the limit, so one columnar
  /// item may overshoot it by its own weight, as bypass items may.
  Channel(size_t limit, Backpressure backpressure, size_t batch)
      : limit_(limit),
        backpressure_(backpressure),
        wake_(std::max<size_t>(1, limit == 0 ? batch
                                             : std::min(batch, limit))) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Enqueues one item, blocking under kBlock while the channel is full.
  PushResult Push(Item item) { return PushOne(item, true); }

  /// Like Push, but returns kFull instead of blocking (the item stays
  /// with the caller, who may report the stall and then Push).
  PushResult TryPush(Item& item) { return PushOne(item, false); }

  /// Enqueues a chunk in order under one lock acquisition, applying the
  /// bound per item, and wakes the consumer at most once. Items are
  /// moved from; the caller clears the vector.
  void PushAll(std::vector<Item>& chunk) {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t before = stats_.enqueued;
    size_t total = 0;
    for (const Item& item : chunk) total += item.Weight();
    if (!Open()) return;
    if (limit_ == 0 || stats_.depth + total <= limit_) {
      for (Item& item : chunk) q_.push_back(std::move(item));
      Count(total);
    } else {
      bool unused = false;
      for (Item& item : chunk) {
        if (Admit(lock, item, true, &unused) == PushResult::kClosed) break;
      }
    }
    if (stats_.enqueued != before) not_empty_.notify_one();
  }

  /// Waits up to ~1 ms for input, then moves the oldest items into `out`
  /// (cleared first) until at least `max_weight` is claimed, taking at
  /// least one item. Wakes blocked producers after a claim.
  ClaimResult Claim(Batch& out, size_t max_weight) {
    out.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait_for(lock, std::chrono::milliseconds(1), [&] {
        return stopped_ || closed_ || !q_.empty();
      });
      if (stopped_) return ClaimResult::kStopped;
      if (q_.empty()) return closed_ ? ClaimResult::kEnded : ClaimResult::kIdle;
      if (stats_.depth <= max_weight) {
        out.swap(q_);
        stats_.depth = 0;
      } else {
        size_t claimed = 0;
        do {
          claimed += q_.front().Weight();
          out.push_back(std::move(q_.front()));
          q_.pop_front();
        } while (!q_.empty() && claimed < max_weight);
        stats_.depth -= claimed;  // Weights are stable while queued.
      }
    }
    not_full_.notify_all();
    return ClaimResult::kClaimed;
  }

  /// No further input: producers are refused, and the consumer drains
  /// the backlog before Claim reports kEnded.
  void Close() { Shut(&closed_); }

  /// Abandons the backlog and wakes every waiter; Claim reports
  /// kStopped and producers are refused.
  void Stop() { Shut(&stopped_); }

  ChannelStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  bool Open() const { return !closed_ && !stopped_; }

  PushResult PushOne(Item& item, bool block) {
    bool wake = false;
    std::unique_lock<std::mutex> lock(mu_);
    PushResult r = Admit(lock, item, block, &wake);
    if (wake) not_empty_.notify_one();
    return r;
  }

  /// Applies the bound to one item under `lock`. `*wake` is set when an
  /// appended item calls for a consumer wakeup.
  PushResult Admit(std::unique_lock<std::mutex>& lock, Item& item,
                   bool block, bool* wake) {
    if (!Open()) return PushResult::kClosed;
    if (limit_ != 0 && stats_.depth >= limit_ && !item.Bypass()) {
      if (backpressure_ == Backpressure::kDropNewest) {
        stats_.dropped +=
            item.Shed([&](Item&& part) { *wake |= Append(std::move(part)); });
        return PushResult::kDropped;
      }
      if (!block) return PushResult::kFull;
      // The consumer must drain before we can continue: make sure it is
      // awake before sleeping.
      not_empty_.notify_one();
      not_full_.wait(lock, [&] { return !Open() || stats_.depth < limit_; });
      if (!Open()) return PushResult::kClosed;
    }
    *wake |= Append(std::move(item));
    return PushResult::kAccepted;
  }

  /// True when the consumer should be woken: a bypass item, or the
  /// depth crossing the batch threshold. The consumer only sleeps on an
  /// empty channel, so a refilling channel crosses it exactly once per
  /// sleep; waking on every item past it would be a futex call per item.
  bool Append(Item&& item) {
    const size_t w = item.Weight();
    const bool wake = item.Bypass() ||
                      (stats_.depth < wake_ && stats_.depth + w >= wake_);
    q_.push_back(std::move(item));
    Count(w);
    return wake;
  }

  void Count(size_t w) {
    stats_.depth += w;
    stats_.enqueued += w;
    stats_.max_depth = std::max(stats_.max_depth, stats_.depth);
  }

  void Shut(bool* flag) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      *flag = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  const size_t limit_;
  const Backpressure backpressure_;
  const size_t wake_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  Batch q_;
  ChannelStats stats_;
  bool closed_ = false;
  bool stopped_ = false;
};

}  // namespace sqp

#endif  // SQP_STREAM_CHANNEL_H_
