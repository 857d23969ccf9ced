#include "obs/registry.h"

namespace sqp {
namespace obs {

namespace {

std::string Key(const std::string& name, const LabelSet& labels) {
  std::string key = name;
  for (const auto& kv : labels) {
    key += '\x1f';
    key += kv.first;
    key += '\x1e';
    key += kv.second;
  }
  return key;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Key(name, labels);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return &it->second->counter;
  Entry& e = entries_.emplace_back();
  e.name = name;
  e.labels = std::move(labels);
  e.kind = MetricKind::kCounter;
  by_key_[key] = &e;
  return &e.counter;
}

Gauge* MetricsRegistry::GetGauge(const std::string& name, LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Key(name, labels);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return &it->second->gauge;
  Entry& e = entries_.emplace_back();
  e.name = name;
  e.labels = std::move(labels);
  e.kind = MetricKind::kGauge;
  by_key_[key] = &e;
  return &e.gauge;
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         LabelSet labels) {
  std::lock_guard<std::mutex> lock(mu_);
  std::string key = Key(name, labels);
  auto it = by_key_.find(key);
  if (it != by_key_.end()) return &it->second->histogram;
  Entry& e = entries_.emplace_back();
  e.name = name;
  e.labels = std::move(labels);
  e.kind = MetricKind::kHistogram;
  by_key_[key] = &e;
  return &e.histogram;
}

void MetricsRegistry::AddCollector(const std::string& name,
                                   std::function<void(SnapshotBuilder&)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& c : collectors_) {
    if (c.first == name) {
      c.second = std::move(fn);
      return;
    }
  }
  collectors_.emplace_back(name, std::move(fn));
}

void MetricsRegistry::RemoveCollector(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = collectors_.begin(); it != collectors_.end(); ++it) {
    if (it->first == name) {
      collectors_.erase(it);
      return;
    }
  }
}

Snapshot MetricsRegistry::TakeSnapshot() const {
  Snapshot snap;
  SnapshotBuilder builder(&snap);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      switch (e.kind) {
        case MetricKind::kCounter:
          builder.AddCounter(e.name, e.labels,
                             static_cast<double>(e.counter.Value()));
          break;
        case MetricKind::kGauge:
          builder.AddGauge(e.name, e.labels, e.gauge.Value());
          break;
        case MetricKind::kHistogram:
          builder.AddHistogram(e.name, e.labels, e.histogram.Data());
          break;
      }
    }
    for (const auto& c : collectors_) c.second(builder);
  }
  if (tracer_.enabled() || tracer_.sampled() > 1) {
    builder.AddHistogram("sqp_trace_path_ns", {}, tracer_.PathLatency());
    snap.trace = tracer_.Events();
  }
  return snap;
}

}  // namespace obs
}  // namespace sqp
