#ifndef SQP_OBS_REGISTRY_H_
#define SQP_OBS_REGISTRY_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/trace.h"

namespace sqp {
namespace obs {

/// Engine-wide metric registry: the single place queue depths,
/// selectivities, and per-operator rates are published so schedulers,
/// shedders, and exporters read one source of truth instead of private
/// counters.
///
/// Concurrency contract: Get* registration takes a lock (do it at plan
/// build time); the returned metric pointers are stable for the
/// registry's lifetime and update lock-free with relaxed atomics.
/// TakeSnapshot may run concurrently with updates from any thread — it
/// reads a statistically consistent view, never tears an individual
/// metric, and never blocks writers.
class MetricsRegistry {
 public:
  explicit MetricsRegistry(size_t trace_capacity = 2048)
      : tracer_(trace_capacity) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates a metric. Same (name, labels) returns the same
  /// instance, so independent call sites can share a counter.
  Counter* GetCounter(const std::string& name, LabelSet labels = {});
  Gauge* GetGauge(const std::string& name, LabelSet labels = {});
  Histogram* GetHistogram(const std::string& name, LabelSet labels = {});

  /// Sampled lineage tracing (disabled until SetSampleEvery > 0).
  Tracer* tracer() { return &tracer_; }
  /// Convenience: sample every Nth element (0 = off).
  void EnableTracing(uint64_t sample_every) {
    tracer_.SetSampleEvery(sample_every);
  }

  /// Registers a named callback evaluated at snapshot time — how
  /// external point-in-time sources (executor stage stats) publish
  /// without a hot-path dependency on the registry. Re-registering a
  /// name replaces the collector; RemoveCollector drops it (call before
  /// the collected object dies if the registry outlives it).
  void AddCollector(const std::string& name,
                    std::function<void(SnapshotBuilder&)> fn);
  void RemoveCollector(const std::string& name);

  /// Renders everything: registered metrics in registration order, then
  /// collectors (the engine's per-query collectors add the operator
  /// rows), and the trace ring.
  Snapshot TakeSnapshot() const;

 private:
  struct Entry {
    std::string name;
    LabelSet labels;
    MetricKind kind = MetricKind::kGauge;
    // Exactly one is used, per kind (deque-stored: stable addresses).
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  mutable std::mutex mu_;
  std::deque<Entry> entries_;
  std::map<std::string, Entry*> by_key_;
  std::vector<std::pair<std::string, std::function<void(SnapshotBuilder&)>>>
      collectors_;
  Tracer tracer_;
};

}  // namespace obs
}  // namespace sqp

#endif  // SQP_OBS_REGISTRY_H_
