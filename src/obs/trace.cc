#include "obs/trace.h"

#include <chrono>

namespace sqp {
namespace obs {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Tracer::Record(uint64_t trace_id, uint32_t hop, const std::string& op,
                    uint64_t ts_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  TraceEvent ev{trace_id, hop, op, ts_ns};
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
  } else {
    ring_[next_slot_] = std::move(ev);
  }
  next_slot_ = (next_slot_ + 1) % capacity_;
}

std::vector<TraceEvent> Tracer::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;
  } else {
    // next_slot_ is the oldest entry once the ring has wrapped.
    out.insert(out.end(), ring_.begin() + static_cast<long>(next_slot_),
               ring_.end());
    out.insert(out.end(), ring_.begin(),
               ring_.begin() + static_cast<long>(next_slot_));
  }
  return out;
}

}  // namespace obs
}  // namespace sqp
