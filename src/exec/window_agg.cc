#include "exec/window_agg.h"

#include <algorithm>
#include <cassert>

namespace sqp {

WindowAggregateOp::WindowAggregateOp(WindowSpec window,
                                     std::vector<AggSpec> aggs,
                                     std::string name, int partition_col,
                                     std::vector<int> out_cols)
    : Operator(std::move(name)),
      window_(window),
      aggs_(std::move(aggs)),
      partition_col_(partition_col),
      out_cols_(std::move(out_cols)) {
  assert(window_.Validate().ok());
  assert((window_.kind == WindowKind::kTimeSliding ||
          window_.kind == WindowKind::kCountSliding ||
          window_.kind == WindowKind::kTimeLandmark) &&
         "WindowAggregateOp supports sliding/landmark windows");
  assert((partition_col_ < 0 || window_.kind == WindowKind::kCountSliding) &&
         "partitioned windows are count windows");
  assert(window_.slide == 0 && "a slide step is a GroupByAggregateOp window");
  const int width =
      (partition_col_ < 0 ? 1 : 2) + static_cast<int>(aggs_.size());
  if (out_cols_.empty()) {
    for (int c = 0; c < width; ++c) out_cols_.push_back(c);
  }
  assert(std::all_of(out_cols_.begin(), out_cols_.end(),
                     [width](int c) { return c >= 0 && c < width; }));
  if (partition_col_ < 0) whole_ = NewWindow();
}

WindowAggregateOp::Window WindowAggregateOp::NewWindow() const {
  Window w;
  if (window_.kind == WindowKind::kTimeSliding) {
    w.time_buf.emplace(window_.size);
  } else if (window_.kind == WindowKind::kCountSliding) {
    w.count_buf.emplace(static_cast<size_t>(window_.size));
  }
  // A landmark window never evicts, so it takes the O(1) full form: a
  // sliding min/max deque or first log would keep every value.
  w.accs = window_.kind == WindowKind::kTimeLandmark ? aggs_.NewAccs()
                                                     : aggs_.NewSlidingAccs();
  return w;
}

void WindowAggregateOp::Slide(Window& w, const Tuple* added) {
  const FifoLog<TupleRef>& contents =
      w.time_buf ? w.time_buf->contents() : w.count_buf->contents();
  if (aggs_.Slide(w.accs, expired_, added, contents)) ++recomputes_;
  expired_.clear();
}

void WindowAggregateOp::EmitCurrent(int64_t ts, const Window& w,
                                    const Value* key) {
  const int first_agg = key != nullptr ? 2 : 1;
  std::vector<Value> row;
  row.reserve(out_cols_.size());
  for (int c : out_cols_) {
    if (c == 0) {
      row.push_back(Value(ts));
    } else if (c < first_agg) {
      row.push_back(*key);
    } else {
      row.push_back(w.accs[static_cast<size_t>(c - first_agg)]->Result());
    }
  }
  Emit(Element(MakeTuple(ts, std::move(row))));
}

void WindowAggregateOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    // Advance time so expiry happens even without new tuples.
    if (whole_.time_buf && !e.punctuation().has_key) {
      whole_.time_buf->AdvanceTo(e.punctuation().ts, &expired_);
      if (!expired_.empty()) {
        Slide(whole_, nullptr);
        EmitCurrent(e.punctuation().ts, whole_, nullptr);
      }
    }
    Emit(e);
    return;
  }

  const TupleRef& t = e.tuple();
  Window* w = &whole_;
  const Value* key = nullptr;
  if (partition_col_ >= 0) {
    key = &t->at(static_cast<size_t>(partition_col_));
    auto it = parts_.find(*key);
    if (it == parts_.end()) it = parts_.emplace(*key, NewWindow()).first;
    w = &it->second;
  }
  switch (window_.kind) {
    case WindowKind::kTimeSliding: {
      w->time_buf->Insert(t, &expired_);
      // A tuple already older than the window expires on arrival, after
      // everything before it: it is never added, so never evicted either.
      const bool late = !expired_.empty() && expired_.back() == t;
      if (late) expired_.pop_back();
      Slide(*w, late ? nullptr : t.get());
      break;
    }
    case WindowKind::kCountSliding:
      if (std::optional<TupleRef> evicted = w->count_buf->Insert(t)) {
        expired_.push_back(std::move(*evicted));
      }
      Slide(*w, t.get());
      break;
    case WindowKind::kTimeLandmark:
      if (t->ts() >= window_.start) aggs_.Add(w->accs, *t);
      break;
    default:
      break;
  }
  EmitCurrent(t->ts(), *w, key);
}

size_t WindowAggregateOp::WindowBytes(const Window& w) {
  size_t bytes = 0;
  if (w.time_buf) bytes += w.time_buf->MemoryBytes();
  if (w.count_buf) bytes += w.count_buf->MemoryBytes();
  for (const auto& acc : w.accs) bytes += acc->MemoryBytes();
  return bytes;
}

size_t WindowAggregateOp::StateBytes() const {
  size_t bytes = sizeof(*this) + WindowBytes(whole_);
  for (const auto& [key, w] : parts_) {
    bytes += key.MemoryBytes() + 32 + WindowBytes(w);
  }
  return bytes;
}

}  // namespace sqp
