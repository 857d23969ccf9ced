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

/// Busy-time sampling rate: every Nth element entering an instrumented
/// chain is timed with real clock reads and its self-times are recorded
/// at N x, so busy_ns stays an unbiased estimate while the other N-1
/// elements pay only relaxed counter bumps. Must be a power of two.
inline constexpr uint32_t kTimeSampleEvery = 16;

/// Per-thread instrumentation context, shared by self-timing and
/// tracing. `child_ns` accumulates the inclusive time of completed
/// nested Process calls so a parent can subtract them (self time);
/// `trace_id` marks an active sampled tuple for the duration of the
/// outermost Process on this thread. `timed` says whether the current
/// chain reads clocks at all; `busy_sampled` whether those reads feed
/// busy_ns (false when the element is timed only for a lineage trace).
struct ThreadObsContext {
  uint32_t depth = 0;
  uint64_t child_ns = 0;
  uint64_t trace_id = 0;
  uint32_t hop = 0;
  uint32_t time_tick = 0;
  bool timed = false;
  bool busy_sampled = false;
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
