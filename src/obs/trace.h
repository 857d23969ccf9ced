#ifndef SQP_OBS_TRACE_H_
#define SQP_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace sqp {
namespace obs {

/// Monotonic clock in ns (steady_clock; comparable within a process).
uint64_t NowNs();

/// One hop of a sampled tuple's path through the plan.
struct TraceEvent {
  uint64_t trace_id = 0;  // 1-based id of the sampled tuple.
  uint32_t hop = 0;       // 0 = entry operator, increasing downstream.
  std::string op;         // Operator name at this hop.
  uint64_t ts_ns = 0;     // NowNs() when the hop's Push began.
};

/// Busy-time sampling rate: on average one in N elements entering an
/// instrumented chain is timed with real clock reads, and its
/// self-times are recorded at N x, so busy_ns stays an unbiased
/// estimate while the other elements pay one countdown and relaxed
/// counter bumps. The gaps between timed chains are random (see
/// DrawTimeGap), so N need not be a power of two.
inline constexpr uint32_t kTimeSampleEvery = 256;

/// One gap draw: advances the xorshift64 state `*state` (never 0) and
/// returns a count uniform in [1, 2 * kTimeSampleEvery - 1], whose mean
/// is kTimeSampleEvery. A random gap is what keeps the sample unbiased
/// under periodic input: a fixed stride aliases with any period sharing
/// a factor with it (an engine handing each tuple to k queries in a
/// fixed order would time only the first query's chain).
inline uint32_t DrawTimeGap(uint64_t* state) {
  uint64_t x = *state;
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  *state = x;
  // Multiply-shift range reduction of the high 32 bits to [0, span).
  const uint64_t span = 2 * kTimeSampleEvery - 1;
  return 1 + static_cast<uint32_t>(((x >> 32) * span) >> 32);
}

/// The cost one NowNs() read adds to an interval it bounds: the
/// minimum of back-to-back NowNs() deltas, measured on the first call
/// and cached for the process. A timed hop subtracts it from self times
/// so the clock reads are not charged to the operators they time.
uint64_t ClockReadNs();

/// Per-thread instrumentation context, shared by self-timing and
/// tracing. `child_ns` accumulates the inclusive time of completed
/// nested Process calls so a parent can subtract them (self time);
/// `trace_id` marks an active sampled tuple for the duration of the
/// outermost Process on this thread. `timed` says whether the current
/// chain reads clocks at all; `busy_sampled` whether those reads feed
/// busy_ns (false when the element is timed only for a lineage trace).
///
/// `time_gap` is the thread's one sampler: the number of sampled events
/// (chain entries, queued elements) left until the next timed one. It
/// starts at 1, so a thread's first chain is timed; `time_rng` is the
/// xorshift state of its gap draws, seeded per thread on first redraw.
struct ThreadObsContext {
  uint32_t depth = 0;
  uint64_t child_ns = 0;
  uint64_t trace_id = 0;
  uint32_t hop = 0;
  uint32_t time_gap = 1;
  uint64_t time_rng = 0;
  bool timed = false;
  bool busy_sampled = false;

  /// Counts one sampled event; true when it is to be timed (the next
  /// gap is then drawn). Operator::Process inlines the countdown.
  bool TakeTimeSample() {
    if (--time_gap != 0) return false;
    RedrawTimeGap();
    return true;
  }
  /// Draws the next gap after a timed event.
  void RedrawTimeGap();
};

/// Inline so the per-element path of Operator::Process reaches it
/// without a call (constant-initialized: no TLS guard either).
inline ThreadObsContext& ObsContext() {
  static thread_local ThreadObsContext ctx;
  return ctx;
}

/// Sampled tuple-lineage recorder: every Nth element entering an
/// instrumented plan gets a trace id, and every operator it flows
/// through (synchronously, on one thread) appends a timestamped hop to a
/// fixed-size ring. The ring is mutex-guarded — only 1/N tuples ever
/// touch it, so the hot path stays lock-free — and end-to-end path
/// latency feeds a log-bucketed histogram for cheap quantiles.
///
/// Across a ParallelExecutor queue the thread (and thus the context)
/// changes, so a staged plan yields per-stage samples rather than one
/// stitched path; serial engines record the full lineage.
class Tracer {
 public:
  explicit Tracer(size_t capacity = 2048) : capacity_(capacity) {}

  /// 0 disables sampling (the default); N samples every Nth arrival.
  void SetSampleEvery(uint64_t n) {
    sample_every_.store(n, std::memory_order_relaxed);
  }
  uint64_t sample_every() const {
    return sample_every_.load(std::memory_order_relaxed);
  }
  bool enabled() const { return sample_every() != 0; }

  /// Called at the outermost Process of an instrumented operator:
  /// returns a fresh trace id for a sampled arrival, 0 otherwise.
  uint64_t SampleArrival() {
    uint64_t n = sample_every_.load(std::memory_order_relaxed);
    if (n == 0) return 0;
    uint64_t arrival = arrivals_.fetch_add(1, std::memory_order_relaxed);
    if (arrival % n != 0) return 0;
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Appends one hop for an active trace (ring overwrite when full).
  void Record(uint64_t trace_id, uint32_t hop, const std::string& op,
              uint64_t ts_ns);

  /// End-to-end latency of a completed sampled path.
  void ObservePathNs(uint64_t ns) { path_ns_.Observe(ns); }

  /// Copies the ring out in arrival order (oldest first).
  std::vector<TraceEvent> Events() const;
  HistogramData PathLatency() const { return path_ns_.Data(); }
  uint64_t sampled() const {
    return next_id_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  std::atomic<uint64_t> sample_every_{0};
  std::atomic<uint64_t> arrivals_{0};
  std::atomic<uint64_t> next_id_{1};
  Histogram path_ns_;

  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;  // Grows to capacity_, then wraps.
  size_t next_slot_ = 0;
};

}  // namespace obs
}  // namespace sqp

#endif  // SQP_OBS_TRACE_H_
