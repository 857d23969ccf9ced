#ifndef SQP_OBS_SNAPSHOT_H_
#define SQP_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"

namespace sqp {
namespace obs {

/// Metric labels, in rendering order ({{"query","q0"},{"op","select"}}).
using LabelSet = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind { kCounter, kGauge, kHistogram };

/// One rendered metric point.
struct Sample {
  std::string name;
  LabelSet labels;
  MetricKind kind = MetricKind::kGauge;
  double value = 0.0;    // Counter/gauge value.
  HistogramData hist;    // Populated for kHistogram.
};

/// A consistent-enough point-in-time view of a registry: plain data,
/// safe to render, diff, or ship after the engine is gone.
struct Snapshot {
  std::vector<Sample> samples;
  std::vector<OpSnapshot> ops;
  std::vector<TraceEvent> trace;

  /// {"metrics":[...],"operators":[...],"trace":[...]}
  std::string ToJson() const;
  /// Prometheus text exposition format (one family per metric name;
  /// operators are expanded into sqp_op_* families with query/op
  /// labels; histograms render cumulative buckets + _sum/_count).
  std::string ToPrometheus() const;
  /// Human-oriented fixed-width tables (the sqpsh \metrics view).
  std::string Pretty() const;
};

/// Appends samples to a snapshot under construction. Handed to
/// registered collectors so external sources (executor stage stats,
/// derived gauges) publish through the same path as registry metrics.
class SnapshotBuilder {
 public:
  explicit SnapshotBuilder(Snapshot* s) : s_(s) {}

  void AddCounter(std::string name, LabelSet labels, double value) {
    Add(std::move(name), std::move(labels), MetricKind::kCounter, value);
  }
  void AddGauge(std::string name, LabelSet labels, double value) {
    Add(std::move(name), std::move(labels), MetricKind::kGauge, value);
  }
  void AddHistogram(std::string name, LabelSet labels,
                    const HistogramData& data) {
    Sample smp;
    smp.name = std::move(name);
    smp.labels = std::move(labels);
    smp.kind = MetricKind::kHistogram;
    smp.hist = data;
    s_->samples.push_back(std::move(smp));
  }
  void AddOp(OpSnapshot op) { s_->ops.push_back(std::move(op)); }

 private:
  void Add(std::string name, LabelSet labels, MetricKind kind, double value) {
    Sample smp;
    smp.name = std::move(name);
    smp.labels = std::move(labels);
    smp.kind = kind;
    smp.value = value;
    s_->samples.push_back(std::move(smp));
  }

  Snapshot* s_;
};

/// JSON string escaping (shared with the bench JSON writer).
std::string JsonEscape(const std::string& s);

}  // namespace obs
}  // namespace sqp

#endif  // SQP_OBS_SNAPSHOT_H_
