#ifndef SQP_OBS_OP_COUNTERS_H_
#define SQP_OBS_OP_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sqp {
namespace obs {

/// One operator's counters, copied out of its live slot: a registry row
/// (query/op/index set by the publishing collector) and the raw material
/// of an EXPLAIN ANALYZE row.
struct OpSnapshot {
  std::string query;  // Label of the owning plan ("q0", bench name, ...).
  std::string op;     // Operator name ("select", "window-agg", ...).
  int index = 0;      // Position in the plan (disambiguates duplicates).

  uint64_t tuples_in = 0;
  uint64_t tuples_out = 0;
  uint64_t puncts_in = 0;
  uint64_t puncts_out = 0;
  /// Delivery batches claimed by an executor (0 for purely synchronous
  /// operators — only staged executors hand work over in batches).
  uint64_t batches = 0;
  /// Self time: ns spent inside this operator's Push, excluding time
  /// spent in downstream operators it pushed into.
  uint64_t busy_ns = 0;
  /// High-water mark of the input queue in front of this operator
  /// (mirrored in by the executor that owns the queue; 0 if unqueued).
  uint64_t queue_depth_hw = 0;

  /// Event time of the last watermark this operator forwarded
  /// downstream; OpCounters::kNoWatermark until the first one.
  int64_t wm_ts = 0;
  /// NowNs() wall timestamp of that forward (pairing with a source-side
  /// ingest timestamp gives punctuation propagation delay).
  uint64_t wm_ns = 0;
  uint64_t wm_count = 0;
  /// Per-element deliveries (Process calls) vs batched ones — the
  /// batch-size distribution counts singles as batches of one.
  uint64_t singles = 0;
  HistogramData batch_rows;
  /// Total ns elements spent parked in an executor queue in front of
  /// this operator, and how many were so parked.
  uint64_t queue_wait_ns = 0;
  uint64_t queued_items = 0;
  /// Last sampled and peak StateBytes() of this operator.
  uint64_t state_bytes = 0;
  uint64_t peak_state_bytes = 0;

  double Selectivity() const {
    return tuples_in == 0 ? 0.0
                          : static_cast<double>(tuples_out) /
                                static_cast<double>(tuples_in);
  }
};

/// The per-operator accounting slot, held by value in every Operator
/// and always counting: rows in/out, busy time, deliveries, watermark
/// forwarding, queue wait and sampled state. Padded to a cache line so
/// two busy operators never false-share.
///
/// Single writer: an operator is driven by one thread by contract, so
/// the per-element mutators are a relaxed load + store, not a locked
/// read-modify-write — any number of snapshot readers still see
/// untorn values. The one field written from another thread (the queue
/// high-water, mirrored in by executors' scrape-time collectors) keeps
/// a CAS loop.
struct alignas(64) OpCounters {
  /// "No watermark forwarded yet" sentinel for wm_ts (event time is a
  /// full int64 domain, so the minimum is reserved).
  static constexpr int64_t kNoWatermark = INT64_MIN;
  /// StateBytes() can be O(state) (CollectorSink walks its rows), so
  /// sampling backs off geometrically to this ceiling.
  static constexpr uint32_t kMaxStateSampleInterval = 256;

  std::atomic<uint64_t> tuples_in{0};
  std::atomic<uint64_t> tuples_out{0};
  std::atomic<uint64_t> puncts_in{0};
  std::atomic<uint64_t> puncts_out{0};
  std::atomic<uint64_t> singles{0};
  std::atomic<uint64_t> busy_ns{0};
  std::atomic<int64_t> wm_ts{kNoWatermark};
  std::atomic<uint64_t> wm_ns{0};
  std::atomic<uint64_t> wm_count{0};
  std::atomic<uint64_t> batches{0};
  std::atomic<uint64_t> queue_depth_hw{0};
  std::atomic<uint64_t> queue_wait_ns{0};
  std::atomic<uint64_t> queued_items{0};
  std::atomic<uint64_t> state_bytes{0};
  std::atomic<uint64_t> peak_state_bytes{0};
  Histogram batch_rows;

  // Driving-thread mutators.
  void CountIn(bool punct) { Bump(punct ? puncts_in : tuples_in, 1); }
  void CountInBulk(uint64_t tuples, uint64_t puncts) {
    Bump(tuples_in, tuples);
    Bump(puncts_in, puncts);
  }
  void CountOut(bool punct) { Bump(punct ? puncts_out : tuples_out, 1); }
  void CountOutBulk(uint64_t tuples, uint64_t puncts) {
    Bump(tuples_out, tuples);
    Bump(puncts_out, puncts);
  }
  /// A per-element delivery crossed this operator.
  void CountSingle() { Bump(singles, 1); }
  /// A batched delivery of `rows` elements crossed this operator.
  void ObserveBatch(uint64_t rows) { batch_rows.Observe(rows); }
  void AddBusyNs(uint64_t ns) { Bump(busy_ns, ns); }
  /// The operator forwarded a non-keyed punctuation (watermark) with
  /// event time `ts` downstream. Watermarks are rare relative to tuples,
  /// so the clock read here is off the per-tuple path.
  void OnWatermarkForward(int64_t ts) {
    wm_ts.store(ts, std::memory_order_relaxed);
    wm_ns.store(NowNs(), std::memory_order_relaxed);
    Bump(wm_count, 1);
  }
  /// Executor-side, on the thread that delivers into this operator: one
  /// claimed batch, and `items` elements that waited `ns` in total.
  void IncBatches() { Bump(batches, 1); }
  void AddQueueWait(uint64_t ns, uint64_t items) {
    Bump(queue_wait_ns, ns);
    Bump(queued_items, items);
  }
  /// Records a StateBytes() sample.
  void SampleState(uint64_t bytes) {
    state_bytes.store(bytes, std::memory_order_relaxed);
    if (bytes > peak_state_bytes.load(std::memory_order_relaxed)) {
      peak_state_bytes.store(bytes, std::memory_order_relaxed);
    }
  }
  /// Geometric-backoff sampling wrapper around SampleState: calls
  /// `state_bytes_fn` on the 1st, 2nd, 4th, ... invocation, capping the
  /// interval at kMaxStateSampleInterval (the callback reads live
  /// operator state, so only the driving thread may call this).
  template <typename Fn>
  void MaybeSampleState(Fn&& state_bytes_fn) {
    if (++state_tick_ < state_every_) return;
    state_tick_ = 0;
    if (state_every_ < kMaxStateSampleInterval) state_every_ *= 2;
    SampleState(static_cast<uint64_t>(state_bytes_fn()));
  }

  /// Any thread: raises the queue high-water mark to `depth`.
  void UpdateQueueDepth(uint64_t depth) {
    uint64_t cur = queue_depth_hw.load(std::memory_order_relaxed);
    while (cur < depth &&
           !queue_depth_hw.compare_exchange_weak(cur, depth,
                                                 std::memory_order_relaxed,
                                                 std::memory_order_relaxed)) {
    }
  }

  /// Copies the live values out (relaxed reads; each field untorn).
  OpSnapshot Snapshot() const {
    OpSnapshot s;
    s.tuples_in = tuples_in.load(std::memory_order_relaxed);
    s.tuples_out = tuples_out.load(std::memory_order_relaxed);
    s.puncts_in = puncts_in.load(std::memory_order_relaxed);
    s.puncts_out = puncts_out.load(std::memory_order_relaxed);
    s.batches = batches.load(std::memory_order_relaxed);
    s.busy_ns = busy_ns.load(std::memory_order_relaxed);
    s.queue_depth_hw = queue_depth_hw.load(std::memory_order_relaxed);
    s.wm_ts = wm_ts.load(std::memory_order_relaxed);
    s.wm_ns = wm_ns.load(std::memory_order_relaxed);
    s.wm_count = wm_count.load(std::memory_order_relaxed);
    s.singles = singles.load(std::memory_order_relaxed);
    s.batch_rows = batch_rows.Data();
    s.queue_wait_ns = queue_wait_ns.load(std::memory_order_relaxed);
    s.queued_items = queued_items.load(std::memory_order_relaxed);
    s.state_bytes = state_bytes.load(std::memory_order_relaxed);
    s.peak_state_bytes = peak_state_bytes.load(std::memory_order_relaxed);
    return s;
  }

 private:
  static void Bump(std::atomic<uint64_t>& c, uint64_t n) {
    c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  // Driving-thread-only sampling interval state (see MaybeSampleState).
  uint32_t state_tick_ = 0;
  uint32_t state_every_ = 1;
};

}  // namespace obs
}  // namespace sqp

#endif  // SQP_OBS_OP_COUNTERS_H_
