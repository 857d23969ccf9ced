#include "exec/window_agg.h"

#include <cassert>

namespace sqp {

WindowAggregateOp::WindowAggregateOp(WindowSpec window,
                                     std::vector<AggSpec> aggs,
                                     std::string name)
    : Operator(std::move(name)),
      window_(window),
      agg_specs_(std::move(aggs)) {
  assert(window_.Validate().ok());
  fns_.reserve(agg_specs_.size());
  for (const AggSpec& s : agg_specs_) {
    auto fn = AggregateFunction::Make(s.kind, s.param);
    assert(fn.ok());
    fns_.push_back(std::move(fn.value()));
    // A landmark window never evicts, so it takes the O(1) full form: a
    // sliding min/max deque or first log would keep every value.
    accs_.push_back(window_.kind == WindowKind::kTimeLandmark
                        ? fns_.back().NewAccumulator()
                        : fns_.back().NewSlidingAccumulator());
  }
  switch (window_.kind) {
    case WindowKind::kTimeSliding:
      time_buf_ = std::make_unique<TimeWindowBuffer>(window_.size);
      break;
    case WindowKind::kCountSliding:
      count_buf_ =
          std::make_unique<CountWindowBuffer>(static_cast<size_t>(window_.size));
      break;
    case WindowKind::kTimeLandmark:
      // Landmark windows never expire: accumulators only.
      break;
    default:
      assert(false && "WindowAggregateOp supports sliding/landmark windows");
  }
}

Value WindowAggregateOp::InputOf(size_t i, const Tuple& t) const {
  const AggSpec& s = agg_specs_[i];
  return s.input_col < 0 ? Value(int64_t{1})
                         : t.at(static_cast<size_t>(s.input_col));
}

void WindowAggregateOp::Slide(const Tuple* added) {
  bool replay = false;
  for (size_t i = 0; i < accs_.size(); ++i) {
    Accumulator& acc = *accs_[i];
    if (acc.invertible()) {
      // Expired tuples are the oldest the accumulator holds, in order.
      for (const TupleRef& x : expired_) acc.Remove(InputOf(i, *x));
    } else if (!expired_.empty()) {
      replay = true;
      continue;  // Rebuilt below; the buffer already holds `added`.
    }
    if (added != nullptr) acc.Add(InputOf(i, *added));
  }
  expired_.clear();
  if (!replay) return;
  ++recomputes_;
  const std::deque<TupleRef>& window = time_buf_ != nullptr
                                           ? time_buf_->contents()
                                           : count_buf_->contents();
  for (size_t i = 0; i < accs_.size(); ++i) {
    if (accs_[i]->invertible()) continue;
    accs_[i] = fns_[i].NewSlidingAccumulator();
    for (const TupleRef& t : window) accs_[i]->Add(InputOf(i, *t));
  }
}

void WindowAggregateOp::EmitCurrent(int64_t ts) {
  std::vector<Value> row;
  row.reserve(1 + accs_.size());
  row.push_back(Value(ts));
  for (const auto& acc : accs_) row.push_back(acc->Result());
  Emit(Element(MakeTuple(ts, std::move(row))));
}

void WindowAggregateOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    // Advance time so expiry happens even without new tuples.
    if (time_buf_ != nullptr && !e.punctuation().has_key) {
      time_buf_->AdvanceTo(e.punctuation().ts, &expired_);
      if (!expired_.empty()) {
        Slide(nullptr);
        EmitCurrent(e.punctuation().ts);
      }
    }
    Emit(e);
    return;
  }

  const TupleRef& t = e.tuple();
  switch (window_.kind) {
    case WindowKind::kTimeSliding: {
      time_buf_->Insert(t, &expired_);
      // A tuple already older than the window expires on arrival, after
      // everything before it: it is never added, so never evicted either.
      const bool late = !expired_.empty() && expired_.back() == t;
      if (late) expired_.pop_back();
      Slide(late ? nullptr : t.get());
      break;
    }
    case WindowKind::kCountSliding:
      if (std::optional<TupleRef> evicted = count_buf_->Insert(t)) {
        expired_.push_back(std::move(*evicted));
      }
      Slide(t.get());
      break;
    case WindowKind::kTimeLandmark:
      if (t->ts() >= window_.start) Slide(t.get());
      break;
    default:
      break;
  }
  EmitCurrent(t->ts());
}

size_t WindowAggregateOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  if (time_buf_ != nullptr) bytes += time_buf_->MemoryBytes();
  if (count_buf_ != nullptr) bytes += count_buf_->MemoryBytes();
  for (const auto& acc : accs_) bytes += acc->MemoryBytes();
  return bytes;
}

}  // namespace sqp
