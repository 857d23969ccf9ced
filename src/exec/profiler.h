#ifndef SQP_EXEC_PROFILER_H_
#define SQP_EXEC_PROFILER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "exec/plan.h"
#include "obs/op_counters.h"
#include "obs/snapshot.h"

namespace sqp {
namespace obs {

/// One operator row of a query profile snapshot: the operator's slot
/// (the same values its registry row renders, so EXPLAIN ANALYZE always
/// sums consistently with `\metrics`) plus its place in the plan tree
/// and the derived lag figures. Rows are in pre-order over the plan
/// tree: the root is the sink-most operator, a row at depth d is an
/// input of the nearest preceding row at depth d-1.
struct OpProfileRow : OpSnapshot {
  int depth = 0;
  /// Deliveries into this operator = per-element Process calls plus
  /// batched ProcessBatch/ProcessColumns calls.
  uint64_t deliveries = 0;
  /// Mean elements per delivery (singles fold in as batches of one).
  double mean_batch = 0.0;

  bool has_watermark = false;  // wm_ts != OpCounters::kNoWatermark.
  bool has_lag = false;        // A source watermark exists too.
  /// Event-time lag: source watermark ts minus this operator's last
  /// forwarded watermark ts (>= 0 in a well-behaved chain).
  int64_t lag = 0;
  /// Punctuation propagation delay: wall ms from the watermark's ingest
  /// to this operator forwarding it; < 0 = unknown (ring evicted it or
  /// the watermark predates profiling).
  double propagation_ms = -1.0;
};

/// A full per-query profile snapshot — the EXPLAIN ANALYZE payload.
struct QueryProfile {
  std::string query;  // Engine label ("q0", ...).
  std::string text;   // CQL text.
  uint64_t submit_ns = 0;
  uint64_t snapshot_ns = 0;
  int64_t source_wm_ts = OpCounters::kNoWatermark;
  uint64_t source_wm_count = 0;
  std::vector<OpProfileRow> ops;

  /// Annotated text tree (the `\explain analyze` rendering).
  std::string Pretty() const;
  /// {"query":..,"text":..,"source":{..},"ops":[{..,"depth":..},..]}
  std::string ToJson() const;
};

/// The per-query collector: one entry per published query, holding the
/// plan-shaped tree of its live operators. Registry rows (Publish) and
/// EXPLAIN ANALYZE (Snapshot) both read the operators' own always-on
/// slots through it, so the two views cannot disagree. Registration
/// happens under the engine's exclusive registration lock; Snapshot and
/// Publish may run from any thread (monitor, HTTP handler, sqpsh) while
/// ingest runs — they read only the slots' atomics and registration-time
/// copies of the plan shape under the profiler's own mutex.
///
/// Lives in exec (not obs) because it walks Plan/Operator.
class QueryProfiler {
 public:
  /// Lock-free source-side watermark tap, one per registered query: the
  /// engine's ingest path stamps every non-keyed punctuation entering
  /// the query here. The small ring of (ts, ingest ns) pairs is what
  /// per-operator propagation delay is computed against.
  class SourceWatermark {
   public:
    void OnWatermark(int64_t ts) {
      const uint64_t now = NowNs();
      ts_.store(ts, std::memory_order_relaxed);
      ns_.store(now, std::memory_order_relaxed);
      count_.fetch_add(1, std::memory_order_relaxed);
      const uint64_t slot =
          head_.fetch_add(1, std::memory_order_relaxed) % kRingSize;
      ring_[slot].ts.store(ts, std::memory_order_relaxed);
      ring_[slot].ns.store(now, std::memory_order_relaxed);
    }

    int64_t last_ts() const { return ts_.load(std::memory_order_relaxed); }
    uint64_t last_ns() const { return ns_.load(std::memory_order_relaxed); }
    uint64_t count() const { return count_.load(std::memory_order_relaxed); }

    /// Ingest timestamp of the watermark with event time `ts`; false
    /// when the ring has already evicted it. A racing writer can pair a
    /// fresh ts with a stale ns for one slot — tolerated, the result is
    /// a statistical read like every other scrape.
    bool LookupIngestNs(int64_t ts, uint64_t* ns) const {
      for (const Slot& s : ring_) {
        if (s.ts.load(std::memory_order_relaxed) == ts) {
          *ns = s.ns.load(std::memory_order_relaxed);
          return true;
        }
      }
      return false;
    }

   private:
    static constexpr size_t kRingSize = 64;
    struct Slot {
      std::atomic<int64_t> ts{OpCounters::kNoWatermark};
      std::atomic<uint64_t> ns{0};
    };
    std::atomic<int64_t> ts_{OpCounters::kNoWatermark};
    std::atomic<uint64_t> ns_{0};
    std::atomic<uint64_t> count_{0};
    std::array<Slot, kRingSize> ring_;
    std::atomic<uint64_t> head_{0};
  };

  /// Registers a query; returns its stable source tap (valid until
  /// Unregister). Re-registering an existing label resets it.
  SourceWatermark* Register(const std::string& label, std::string text);

  /// Records `plan`'s operators (registry rows, in plan order) and
  /// rebuilds the snapshot tree over the connected ones. Call again
  /// after a structural rewrite (the shard rewrite) — disconnected
  /// leftovers of the rewrite (no output, nothing feeding them) drop out
  /// of the tree. The operators must outlive Unregister. No-op for
  /// unregistered labels.
  void BindPlan(const std::string& label, const Plan& plan);

  /// Drops the query; after it returns, no snapshot can observe the
  /// query's operators.
  void Unregister(const std::string& label);

  /// Copies a consistent-enough profile out; false if unknown label.
  bool Snapshot(const std::string& label, QueryProfile* out) const;

  std::vector<std::string> Labels() const;

  /// Publishes one query's operator rows (query=label, op, plan index)
  /// and its watermark gauges (sqp_query_watermark_lag,
  /// sqp_query_source_watermark) — the body of the engine's per-query
  /// registry collector, so `/snapshot.json` and `\top` see event-time
  /// lag next to the rows.
  void Publish(const std::string& label, SnapshotBuilder& b) const;

 private:
  struct Node {
    const Operator* op = nullptr;
    int index = 0;
    int depth = 0;
  };
  struct Entry {
    std::string text;
    uint64_t submit_ns = 0;
    SourceWatermark source;
    std::vector<const Operator*> ops;  // Plan order (registry rows).
    std::vector<Node> tree;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Entry>> entries_;
};

}  // namespace obs
}  // namespace sqp

#endif  // SQP_EXEC_PROFILER_H_
