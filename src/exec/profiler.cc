#include "exec/profiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace sqp {
namespace obs {

namespace {

std::string FmtDouble(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string FmtBytes(uint64_t b) {
  char buf[64];
  if (b >= 10ull * 1024 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fMB",
                  static_cast<double>(b) / (1024.0 * 1024.0));
  } else if (b >= 10 * 1024) {
    std::snprintf(buf, sizeof(buf), "%.1fKB", static_cast<double>(b) / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%" PRIu64 "B", b);
  }
  return buf;
}

}  // namespace

std::string QueryProfile::Pretty() const {
  std::string out = "EXPLAIN ANALYZE " + query;
  if (!text.empty()) out += ": " + text;
  out += "\n";
  const double run_s =
      snapshot_ns > submit_ns
          ? static_cast<double>(snapshot_ns - submit_ns) / 1e9
          : 0.0;
  out += "running " + FmtDouble(run_s, 1) + "s; source watermark ";
  if (source_wm_ts == OpCounters::kNoWatermark) {
    out += "none";
  } else {
    out += std::to_string(source_wm_ts) + " (" +
           std::to_string(source_wm_count) + " puncts)";
  }
  out += "\n";

  static const char* kHeaders[] = {"op",      "in",      "out",     "sel",
                                   "busy_ms", "deliver", "avg_rows", "qwait_ms",
                                   "state",   "peak",    "wm_lag",  "prop_ms"};
  constexpr size_t kCols = sizeof(kHeaders) / sizeof(kHeaders[0]);
  std::vector<std::array<std::string, kCols>> rows;
  for (const OpProfileRow& r : ops) {
    std::array<std::string, kCols> row;
    row[0] = std::string(static_cast<size_t>(r.depth) * 2, ' ') + r.op;
    row[1] = std::to_string(r.tuples_in);
    row[2] = std::to_string(r.tuples_out);
    row[3] = FmtDouble(r.Selectivity(), 3);
    row[4] = FmtDouble(static_cast<double>(r.busy_ns) / 1e6, 1);
    row[5] = std::to_string(r.deliveries);
    row[6] = FmtDouble(r.mean_batch, 1);
    row[7] = FmtDouble(static_cast<double>(r.queue_wait_ns) / 1e6, 1);
    row[8] = FmtBytes(r.state_bytes);
    row[9] = FmtBytes(r.peak_state_bytes);
    row[10] = r.has_lag ? std::to_string(r.lag)
                        : (r.has_watermark ? "0" : "-");
    row[11] = r.propagation_ms >= 0.0 ? FmtDouble(r.propagation_ms, 2) : "-";
    rows.push_back(std::move(row));
  }

  std::array<size_t, kCols> widths;
  for (size_t c = 0; c < kCols; ++c) {
    widths[c] = std::string(kHeaders[c]).size();
    for (const auto& row : rows) widths[c] = std::max(widths[c], row[c].size());
  }
  auto emit = [&](const std::array<std::string, kCols>& row) {
    for (size_t c = 0; c < kCols; ++c) {
      if (c == 0) {
        // Left-justify the tree column, right-justify the numbers.
        out += row[c] + std::string(widths[c] - row[c].size(), ' ');
      } else {
        out += "  " + std::string(widths[c] - row[c].size(), ' ') + row[c];
      }
    }
    out += "\n";
  };
  std::array<std::string, kCols> hdr;
  for (size_t c = 0; c < kCols; ++c) hdr[c] = kHeaders[c];
  emit(hdr);
  for (const auto& row : rows) emit(row);
  return out;
}

std::string QueryProfile::ToJson() const {
  std::string out = "{\"query\":\"" + JsonEscape(query) + "\"";
  out += ",\"text\":\"" + JsonEscape(text) + "\"";
  out += ",\"running_seconds\":" +
         FmtDouble(snapshot_ns > submit_ns
                       ? static_cast<double>(snapshot_ns - submit_ns) / 1e9
                       : 0.0,
                   3);
  out += ",\"source\":{";
  if (source_wm_ts != OpCounters::kNoWatermark) {
    out += "\"watermark_ts\":" + std::to_string(source_wm_ts) + ",";
  }
  out += "\"watermarks\":" + std::to_string(source_wm_count) + "}";
  out += ",\"ops\":[";
  bool first = true;
  for (const OpProfileRow& r : ops) {
    if (!first) out += ",";
    first = false;
    out += "{\"op\":\"" + JsonEscape(r.op) + "\"";
    out += ",\"index\":" + std::to_string(r.index);
    out += ",\"depth\":" + std::to_string(r.depth);
    out += ",\"tuples_in\":" + std::to_string(r.tuples_in);
    out += ",\"tuples_out\":" + std::to_string(r.tuples_out);
    out += ",\"puncts_in\":" + std::to_string(r.puncts_in);
    out += ",\"puncts_out\":" + std::to_string(r.puncts_out);
    out += ",\"selectivity\":" + FmtDouble(r.Selectivity(), 4);
    out += ",\"busy_ns\":" + std::to_string(r.busy_ns);
    out += ",\"deliveries\":" + std::to_string(r.deliveries);
    out += ",\"mean_batch_rows\":" + FmtDouble(r.mean_batch, 2);
    out += ",\"queue_wait_ns\":" + std::to_string(r.queue_wait_ns);
    out += ",\"queue_depth_hw\":" + std::to_string(r.queue_depth_hw);
    out += ",\"state_bytes\":" + std::to_string(r.state_bytes);
    out += ",\"peak_state_bytes\":" + std::to_string(r.peak_state_bytes);
    if (r.has_watermark) {
      out += ",\"watermark_ts\":" + std::to_string(r.wm_ts);
      out += ",\"watermarks\":" + std::to_string(r.wm_count);
    }
    if (r.has_lag) out += ",\"watermark_lag\":" + std::to_string(r.lag);
    if (r.propagation_ms >= 0.0) {
      out += ",\"propagation_ms\":" + FmtDouble(r.propagation_ms, 3);
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

QueryProfiler::SourceWatermark* QueryProfiler::Register(
    const std::string& label, std::string text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto entry = std::make_unique<Entry>();
  entry->text = std::move(text);
  entry->submit_ns = NowNs();
  SourceWatermark* tap = &entry->source;
  entries_[label] = std::move(entry);
  return tap;
}

void QueryProfiler::BindPlan(const std::string& label, const Plan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(label);
  if (it == entries_.end()) return;
  Entry& e = *it->second;

  const auto& ops = plan.operators();
  e.ops.clear();
  std::map<const Operator*, int> pos;
  for (size_t i = 0; i < ops.size(); ++i) {
    e.ops.push_back(ops[i].get());
    pos[ops[i].get()] = static_cast<int>(i);
  }
  // An operator is part of the live DAG when it has an output edge or
  // something feeds it; a rewrite leftover (the shard rewrite disconnects
  // the replaced original but keeps it plan-owned as the replica
  // template) has neither and is excluded.
  std::map<const Operator*, int> fed;
  for (const Operator* op : e.ops) {
    if (op->output() != nullptr && pos.count(op->output()) != 0) {
      ++fed[op->output()];
    }
  }
  auto connected = [&](const Operator* op) {
    return op->output() != nullptr || fed[op] > 0;
  };

  // Tree: root = live op whose output leaves the plan (the engine tee);
  // children of p = live ops whose output is p, in plan order.
  e.tree.clear();
  std::map<const Operator*, std::vector<const Operator*>> children;
  std::vector<const Operator*> roots;
  for (const Operator* op : e.ops) {
    if (!connected(op)) continue;
    const Operator* out = op->output();
    if (out != nullptr && pos.count(out) != 0 && connected(out)) {
      children[out].push_back(op);
    } else {
      roots.push_back(op);
    }
  }
  // Iterative pre-order DFS, keeping plan order among siblings.
  std::vector<std::pair<const Operator*, int>> stack;
  for (auto rit = roots.rbegin(); rit != roots.rend(); ++rit) {
    stack.emplace_back(*rit, 0);
  }
  while (!stack.empty()) {
    auto [op, depth] = stack.back();
    stack.pop_back();
    e.tree.push_back(Node{op, pos[op], depth});
    auto cit = children.find(op);
    if (cit != children.end()) {
      for (auto rit = cit->second.rbegin(); rit != cit->second.rend(); ++rit) {
        stack.emplace_back(*rit, depth + 1);
      }
    }
  }
}

void QueryProfiler::Unregister(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(label);
}

bool QueryProfiler::Snapshot(const std::string& label,
                             QueryProfile* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(label);
  if (it == entries_.end()) return false;
  const Entry& e = *it->second;

  out->query = label;
  out->text = e.text;
  out->submit_ns = e.submit_ns;
  out->snapshot_ns = NowNs();
  out->source_wm_ts = e.source.last_ts();
  out->source_wm_count = e.source.count();
  out->ops.clear();
  out->ops.reserve(e.tree.size());
  for (const Node& n : e.tree) {
    OpProfileRow r;
    static_cast<OpSnapshot&>(r) = n.op->stats();
    r.op = n.op->name();
    r.index = n.index;
    r.depth = n.depth;
    r.deliveries = r.singles + r.batch_rows.count;
    const double total_rows = static_cast<double>(r.singles) +
                              static_cast<double>(r.batch_rows.sum);
    r.mean_batch = r.deliveries == 0
                       ? 0.0
                       : total_rows / static_cast<double>(r.deliveries);
    r.has_watermark = r.wm_ts != OpCounters::kNoWatermark;
    if (r.has_watermark && out->source_wm_ts != OpCounters::kNoWatermark) {
      r.has_lag = true;
      r.lag = out->source_wm_ts - r.wm_ts;
    }
    if (r.has_watermark) {
      uint64_t ingest_ns = 0;
      if (e.source.LookupIngestNs(r.wm_ts, &ingest_ns) &&
          r.wm_ns >= ingest_ns) {
        r.propagation_ms = static_cast<double>(r.wm_ns - ingest_ns) / 1e6;
      }
    }
    out->ops.push_back(std::move(r));
  }
  return true;
}

std::vector<std::string> QueryProfiler::Labels() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [label, entry] : entries_) out.push_back(label);
  return out;
}

void QueryProfiler::Publish(const std::string& label,
                            SnapshotBuilder& b) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(label);
  if (it == entries_.end()) return;
  const Entry& e = *it->second;
  for (size_t i = 0; i < e.ops.size(); ++i) {
    OpSnapshot row = e.ops[i]->stats();
    row.query = label;
    row.op = e.ops[i]->name();
    row.index = static_cast<int>(i);
    b.AddOp(std::move(row));
  }
  const int64_t src = e.source.last_ts();
  if (src == OpCounters::kNoWatermark) return;
  LabelSet ls{{"query", label}};
  b.AddGauge("sqp_query_source_watermark", ls, static_cast<double>(src));
  // Lag of the query's output: the root (sink-most) operator's last
  // forwarded watermark vs the source — how far behind event time the
  // query's results run.
  if (!e.tree.empty()) {
    const int64_t root_wm = e.tree.front().op->stats().wm_ts;
    if (root_wm != OpCounters::kNoWatermark) {
      b.AddGauge("sqp_query_watermark_lag", ls,
                 static_cast<double>(src - root_wm));
    }
  }
}

}  // namespace obs
}  // namespace sqp
