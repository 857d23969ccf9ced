#include "server/session.h"

#include <cmath>
#include <cstdio>

#include "arch/engine.h"
#include "obs/snapshot.h"

namespace sqp {
namespace server {

ResultQueue::ResultQueue(ResultQueueOptions options) : options_(options) {
  if (options_.limit == 0) options_.limit = 1;
}

bool ResultQueue::Push(const TupleRef& tuple) {
  // Render outside the lock: encoding cost lands on the producer once
  // per row instead of on every reader poll, and never stalls readers.
  std::string json;
  AppendRowJson(*tuple, &json);
  std::unique_lock<std::mutex> lock(mu_);
  if (closed_.load(std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (rows_.size() >= options_.limit) {
    if (options_.overflow == SessionOverflow::kBlock) {
      auto pred = [this] {
        return rows_.size() < options_.limit ||
               closed_.load(std::memory_order_relaxed);
      };
      if (options_.block_ms > 0) {
        not_full_.wait_for(lock, std::chrono::milliseconds(options_.block_ms),
                           pred);
      } else {
        not_full_.wait(lock, pred);
      }
    }
    if (rows_.size() >= options_.limit ||
        closed_.load(std::memory_order_relaxed)) {
      // Still full past the deadline (or torn down meanwhile): tail-drop
      // so a detached client cannot wedge the engine's delivery thread.
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
  }
  SessionRow row;
  row.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  row.tuple = tuple;
  row.json = std::move(json);
  rows_.push_back(std::move(row));
  depth_.store(rows_.size(), std::memory_order_relaxed);
  produced_.fetch_add(1, std::memory_order_relaxed);
  not_empty_.notify_all();
  return true;
}

void ResultQueue::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  finished_.store(true, std::memory_order_relaxed);
  not_empty_.notify_all();
}

void ResultQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_.store(true, std::memory_order_relaxed);
  finished_.store(true, std::memory_order_relaxed);
  not_full_.notify_all();
  not_empty_.notify_all();
}

void ResultQueue::Ack(uint64_t cursor) {
  std::lock_guard<std::mutex> lock(mu_);
  bool trimmed = false;
  while (!rows_.empty() && rows_.front().seq < cursor) {
    rows_.pop_front();
    trimmed = true;
  }
  if (trimmed) {
    depth_.store(rows_.size(), std::memory_order_relaxed);
    uint64_t base = rows_.empty() ? next_seq_.load(std::memory_order_relaxed)
                                  : rows_.front().seq;
    // acked = rows the client will never be re-sent. Monotonic: a replay
    // of an old cursor trims nothing and moves nothing backwards.
    uint64_t prev = acked_.load(std::memory_order_relaxed);
    uint64_t now = cursor < base ? cursor : base;
    if (now > prev) acked_.store(now, std::memory_order_relaxed);
    not_full_.notify_all();
  }
}

ResultQueue::Wait ResultQueue::WaitRows(
    uint64_t cursor, size_t max_rows,
    std::chrono::steady_clock::time_point deadline) {
  Wait out;
  std::unique_lock<std::mutex> lock(mu_);
  auto have_row = [this, cursor] {
    return (!rows_.empty() && rows_.back().seq >= cursor) ||
           finished_.load(std::memory_order_relaxed) ||
           closed_.load(std::memory_order_relaxed);
  };
  not_empty_.wait_until(lock, deadline, have_row);

  // Seqs are contiguous, so the cursor's row sits at a known offset from
  // the front: no scan over the retained rows before it.
  if (!rows_.empty()) {
    const uint64_t front = rows_.front().seq;
    for (uint64_t i = cursor > front ? cursor - front : 0;
         i < rows_.size() && out.rows.size() < max_rows; ++i) {
      out.rows.push_back(rows_[static_cast<size_t>(i)]);
    }
  }
  out.closed = closed_.load(std::memory_order_relaxed);
  out.full = rows_.size() >= options_.limit;
  // Finished only counts once the reader has seen everything: the query
  // is done AND no queued row at/after the cursor remains unreturned.
  if (finished_.load(std::memory_order_relaxed)) {
    uint64_t end = next_seq_.load(std::memory_order_relaxed);
    uint64_t last_returned =
        out.rows.empty() ? cursor : out.rows.back().seq + 1;
    out.finished = last_returned >= end;
  }
  return out;
}

void AppendValueJson(const Value& v, std::string* out) {
  switch (v.type()) {
    case ValueType::kNull:
      *out += "null";
      return;
    case ValueType::kInt: {
      char buf[24];
      int n = std::snprintf(buf, sizeof(buf), "%lld",
                            static_cast<long long>(v.AsInt()));
      out->append(buf, static_cast<size_t>(n));
      return;
    }
    case ValueType::kDouble: {
      const double d = v.AsDouble();
      // %.17g renders NaN/Infinity as "nan"/"inf" — not JSON. null is.
      if (!std::isfinite(d)) {
        *out += "null";
        return;
      }
      char buf[32];
      int n = std::snprintf(buf, sizeof(buf), "%.17g", d);
      out->append(buf, static_cast<size_t>(n));
      return;
    }
    case ValueType::kString:
      out->push_back('"');
      *out += obs::JsonEscape(v.AsString());
      out->push_back('"');
      return;
  }
  *out += "null";
}

void AppendRowJson(const Tuple& t, std::string* out) {
  // ~14 bytes covers a typical numeric cell with its comma; strings
  // grow the buffer once more at worst.
  out->reserve(out->size() + 16 + 14 * t.arity());
  *out += "\"ts\":";
  *out += std::to_string(t.ts());
  *out += ",\"row\":[";
  for (size_t i = 0; i < t.arity(); ++i) {
    if (i > 0) out->push_back(',');
    AppendValueJson(t.at(i), out);
  }
  out->push_back(']');
}

std::string ValueJson(const Value& v) {
  std::string out;
  AppendValueJson(v, &out);
  return out;
}

std::string RowJson(const Tuple& t) {
  std::string out;
  AppendRowJson(t, &out);
  return out;
}

std::string Session::InfoJson(double shed_rate, uint64_t shed_dropped) const {
  std::string out = "{\"session\":\"" + obs::JsonEscape(id) + "\"";
  out += ",\"query\":\"" + obs::JsonEscape(query_text) + "\"";
  out += ",\"schema\":\"" + obs::JsonEscape(schema) + "\"";
  out += ",\"plan\":\"" + obs::JsonEscape(plan) + "\"";
  out += ",\"policy\":\"" + policy + "\"";
  out += ",\"queue_limit\":" + std::to_string(queue.options().limit);
  out += ",\"rows\":" + std::to_string(queue.produced());
  out += ",\"acked\":" + std::to_string(queue.acked());
  out += ",\"dropped\":" + std::to_string(queue.dropped());
  out += ",\"queue_depth\":" + std::to_string(queue.depth());
  out += ",\"lag\":" + std::to_string(queue.lag());
  out += ",\"next_cursor\":" + std::to_string(queue.next_seq());
  out += std::string(",\"finished\":") +
         (queue.finished() ? "true" : "false");
  if (shed_rate >= 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", shed_rate);
    out += std::string(",\"shed_rate\":") + buf;
    out += ",\"shed_dropped\":" + std::to_string(shed_dropped);
  }
  out += "}";
  return out;
}

}  // namespace server
}  // namespace sqp
