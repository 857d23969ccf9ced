#include "exec/reorder.h"

#include <algorithm>

namespace sqp {

namespace {

/// `hi - lo` for lo <= hi, exact over the whole int64 range.
uint64_t Span(int64_t lo, int64_t hi) {
  return static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo);
}

}  // namespace

HeartbeatOp::HeartbeatOp(int64_t period, int64_t slack, std::string name)
    : Operator(std::move(name)), period_(period), slack_(slack) {}

void HeartbeatOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  Emit(e);
  if (e.is_punctuation()) return;
  max_ts_ = std::max(max_ts_, e.ts());
  if (last_beat_ == INT64_MIN) last_beat_ = max_ts_;
  while (max_ts_ - last_beat_ >= period_) {
    last_beat_ += period_;
    Emit(Element(Punctuation::Watermark(last_beat_ - slack_)));
  }
}

void HeartbeatOp::SaveState(dur::BufWriter& w) const {
  w.I64(max_ts_);
  w.I64(last_beat_);
}

Status HeartbeatOp::RestoreState(dur::BufReader& r) {
  int64_t max_ts = INT64_MIN;
  int64_t last_beat = INT64_MIN;
  SQP_RETURN_NOT_OK(r.I64(&max_ts));
  SQP_RETURN_NOT_OK(r.I64(&last_beat));
  // Push leaves the last beat within one period below the high-water
  // mark; a wider gap would emit a burst of beats on the next tuple.
  if (last_beat > max_ts ||
      Span(last_beat, max_ts) >= static_cast<uint64_t>(period_)) {
    return Status::Internal("heartbeat: checkpoint beat out of range");
  }
  max_ts_ = max_ts;
  last_beat_ = last_beat;
  return Status::OK();
}

SlackReorderOp::SlackReorderOp(int64_t slack, bool drop_late,
                               std::string name)
    : Operator(std::move(name)), slack_(slack), drop_late_(drop_late) {}

void SlackReorderOp::Release(int64_t up_to) {
  while (!heap_.empty() && heap_.front()->ts() <= up_to) {
    std::pop_heap(heap_.begin(), heap_.end(), ByTs{});
    emitted_ts_ = std::max(emitted_ts_, heap_.back()->ts());
    Emit(Element(std::move(heap_.back())));
    heap_.pop_back();
  }
}

void SlackReorderOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    // A watermark asserts completeness: release everything at or below.
    Release(e.punctuation().ts);
    Emit(e);
    return;
  }
  const TupleRef& t = e.tuple();
  if (t->ts() < emitted_ts_) {
    // Beyond the promised disorder bound: a larger timestamp was already
    // emitted, so in-order delivery is impossible for this tuple.
    if (drop_late_) {
      ++late_dropped_;
      return;
    }
    Emit(e);  // Caller accepts out-of-order delivery for stragglers.
    return;
  }
  heap_.push_back(t);
  std::push_heap(heap_.begin(), heap_.end(), ByTs{});
  max_ts_ = std::max(max_ts_, t->ts());
  Release(max_ts_ - slack_);
}

void SlackReorderOp::Flush() {
  Release(INT64_MAX);
  Operator::Flush();
}

size_t SlackReorderOp::StateBytes() const {
  return sizeof(*this) + heap_.capacity() * sizeof(TupleRef) +
         TupleBytes(heap_);
}

void SlackReorderOp::SaveState(dur::BufWriter& w) const {
  w.I64(max_ts_);
  w.I64(emitted_ts_);
  w.U64(late_dropped_);
  w.U32(static_cast<uint32_t>(heap_.size()));
  for (const TupleRef& t : heap_) w.Tup(*t);
}

Status SlackReorderOp::RestoreState(dur::BufReader& r) {
  int64_t max_ts = INT64_MIN;
  int64_t emitted_ts = INT64_MIN;
  uint64_t late_dropped = 0;
  uint32_t n = 0;
  SQP_RETURN_NOT_OK(r.I64(&max_ts));
  SQP_RETURN_NOT_OK(r.I64(&emitted_ts));
  SQP_RETURN_NOT_OK(r.U64(&late_dropped));
  SQP_RETURN_NOT_OK(r.U32(&n));
  if (emitted_ts > max_ts) {
    return Status::Internal("reorder: checkpoint emitted past high water");
  }
  const uint64_t slack = static_cast<uint64_t>(std::max<int64_t>(slack_, 0));
  std::vector<TupleRef> heap;
  for (uint32_t i = 0; i < n; ++i) {
    TupleRef t;
    SQP_RETURN_NOT_OK(r.Tup(&t));
    // Push releases everything at or below max_ts - slack, and never
    // buffers below what it already emitted.
    const int64_t ts = t->ts();
    if (ts < emitted_ts || ts > max_ts || Span(ts, max_ts) >= slack) {
      return Status::Internal("reorder: checkpoint tuple outside the slack");
    }
    heap.push_back(std::move(t));
  }
  if (!std::is_heap(heap.begin(), heap.end(), ByTs{})) {
    return Status::Internal("reorder: checkpoint buffer is not a heap");
  }
  max_ts_ = max_ts;
  emitted_ts_ = emitted_ts;
  late_dropped_ = late_dropped;
  heap_ = std::move(heap);
  return Status::OK();
}

}  // namespace sqp
