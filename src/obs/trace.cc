#include "obs/trace.h"

#include <algorithm>
#include <chrono>

namespace sqp {
namespace obs {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t ClockReadNs() {
  static const uint64_t ns = [] {
    uint64_t best = UINT64_MAX;
    for (int i = 0; i < 256; ++i) {
      const uint64_t a = NowNs();
      const uint64_t b = NowNs();
      best = std::min(best, b - a);
    }
    return best;
  }();
  return ns;
}

void ThreadObsContext::RedrawTimeGap() {
  if (time_rng == 0) {
    // Per-thread seed (splitmix64 of a process-wide sequence number),
    // so threads fed in lockstep do not time the same events.
    static std::atomic<uint64_t> threads{0};
    uint64_t z = (threads.fetch_add(1, std::memory_order_relaxed) + 1) *
                 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    z ^= z >> 31;
    time_rng = z != 0 ? z : 1;
  }
  time_gap = DrawTimeGap(&time_rng);
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
