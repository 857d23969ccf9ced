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
      out_cols_(std::move(out_cols)),
      part_cols_{partition_col},
      // A partitioned operator keeps its windows in `parts_`.
      whole_{WindowBuffer(window_, /*keep_log=*/false),
             partition_col_ < 0 ? NewAccs() : AggSet::Accs{}} {
  // `whole_`'s buffer has checked the window: sliding or landmark.
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
}

WindowAggregateOp::Window WindowAggregateOp::NewWindow() const {
  // Accumulators fold the tuples; the window keeps a landmark's none.
  return {WindowBuffer(window_, /*keep_log=*/false), NewAccs()};
}

AggSet::Accs WindowAggregateOp::NewAccs() const {
  // A landmark window never evicts, so it takes the O(1) full form: a
  // sliding min/max deque or first log would keep every value.
  return window_.kind == WindowKind::kTimeLandmark ? aggs_.NewAccs()
                                                   : aggs_.NewSlidingAccs();
}

void WindowAggregateOp::Slide(Window& w, const Tuple* added) {
  if (aggs_.Slide(w.accs, expired_, added, w.buf.contents())) ++recomputes_;
  expired_.clear();
}

void WindowAggregateOp::Refold(Window& w) const {
  w.accs = NewAccs();
  for (const TupleRef& t : w.buf.contents()) aggs_.Add(w.accs, *t);
}

void WindowAggregateOp::EmitCurrent(int64_t ts, const Window& w,
                                    const Value* key) {
  const int first_agg = key != nullptr ? 2 : 1;
  Emit(Element(MakeTuple(ts, out_cols_.size(), [&](std::span<Value> row) {
    for (size_t i = 0; i < row.size(); ++i) {
      const int c = out_cols_[i];
      if (c == 0) {
        row[i] = Value(ts);
      } else if (c < first_agg) {
        row[i] = *key;
      } else {
        row[i] = w.accs[static_cast<size_t>(c - first_agg)]->Result();
      }
    }
  })));
}

void WindowAggregateOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    // Advance time so expiry happens even without new tuples (only an
    // unpartitioned time window has a clock).
    if (!e.punctuation().has_key) {
      whole_.buf.AdvanceTo(e.punctuation().ts, &expired_);
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
    w = &parts_.Insert(KeyView(*t, part_cols_), [this] { return NewWindow(); })
             .first->value;
  }
  // A tuple already outside the window leaves on arrival, after
  // everything before it: it is never added, so never evicted either.
  const bool admitted = w->buf.Insert(t, &expired_);
  if (!admitted) expired_.pop_back();
  if (admitted && window_.kind == WindowKind::kTimeSliding &&
      w->buf.contents().back() != t) {
    // An in-window tuple that arrived out of order lands before the
    // tail, out of the accumulators' order: refold them, so eviction
    // again takes the oldest in window order.
    Refold(*w);
    ++recomputes_;
    expired_.clear();
  } else {
    Slide(*w, admitted ? t.get() : nullptr);
  }
  EmitCurrent(t->ts(), *w, key);
}

size_t WindowAggregateOp::WindowBytes(const Window& w) {
  // The tuples the buffer holds: a landmark window folds and drops them.
  size_t bytes = TupleBytes(w.buf.contents());
  for (const auto& acc : w.accs) bytes += acc->MemoryBytes();
  return bytes;
}

size_t WindowAggregateOp::StateBytes() const {
  size_t bytes = sizeof(*this) + WindowBytes(whole_);
  for (const auto& part : parts_) {
    bytes += part.key.parts[0].MemoryBytes() + 32 + WindowBytes(part.value);
  }
  return bytes;
}

void WindowAggregateOp::SaveWindow(dur::BufWriter& w, const Window& win) const {
  win.buf.Save(w);
  w.U32(static_cast<uint32_t>(win.accs.size()));
  dur::BufWriter state;
  for (const auto& acc : win.accs) {
    state.Clear();
    const bool saved = acc->SaveState(state);
    w.U8(static_cast<uint8_t>(acc->kind()));
    w.U8(saved ? 1 : 0);
    if (saved) w.Raw(state.data().data(), state.size());
  }
}

// Layout: the window, or a u32 partition count and each partition's key
// and window. A window is its buffer, then a u32 accumulator count and per
// accumulator a u8 kind, a u8 "saved" flag and the saved state.
void WindowAggregateOp::SaveState(dur::BufWriter& w) const {
  if (partition_col_ < 0) {
    SaveWindow(w, whole_);
    return;
  }
  w.U32(static_cast<uint32_t>(parts_.size()));
  for (const auto& part : parts_) {
    w.Val(part.key.parts[0]);
    SaveWindow(w, part.value);
  }
}

Status WindowAggregateOp::RestoreWindow(dur::BufReader& r, const Value* key,
                                        Window* win) const {
  size_t arity = static_cast<size_t>(partition_col_ + 1);
  for (const AggSpec& s : aggs_.specs()) {
    arity = std::max(arity, static_cast<size_t>(s.input_col + 1));
  }
  SQP_RETURN_NOT_OK(win->buf.Restore(
      r, [&](dur::BufReader&, const TupleRef& t) -> Status {
        if (t->arity() < arity) {
          return Status::Internal("window-agg: checkpoint tuple too narrow");
        }
        if (key != nullptr &&
            t->at(static_cast<size_t>(partition_col_)) != *key) {
          return Status::Internal("window-agg: checkpoint tuple in another "
                                  "partition");
        }
        return Status::OK();
      }));
  Refold(*win);
  uint32_t n = 0;
  SQP_RETURN_NOT_OK(r.U32(&n));
  if (n != aggs_.size()) {
    return Status::Internal("window-agg: checkpoint accumulator count mismatch");
  }
  for (const auto& acc : win->accs) {
    uint8_t kind = 0;
    uint8_t saved = 0;
    SQP_RETURN_NOT_OK(r.U8(&kind));
    SQP_RETURN_NOT_OK(r.U8(&saved));
    if (kind != static_cast<uint8_t>(acc->kind())) {
      return Status::Internal("window-agg: checkpoint accumulator kind mismatch");
    }
    // A landmark window has no tuples to refold an unsaved accumulator.
    if (saved > 1 || (saved == 0 && !win->buf.logs())) {
      return Status::Internal("window-agg: checkpoint accumulator not saved");
    }
    if (saved != 0) {
      acc->Reset();
      SQP_RETURN_NOT_OK(acc->LoadState(r));
    }
    // A sliding accumulator holds exactly the window's tuples.
    if (win->buf.logs() && acc->count() != win->buf.contents().size()) {
      return Status::Internal("window-agg: checkpoint accumulator count");
    }
  }
  return Status::OK();
}

Status WindowAggregateOp::RestoreState(dur::BufReader& r) {
  // A fresh table: a partition never dies, so every entry is a window
  // that Insert built.
  parts_ = {};
  expired_.clear();
  if (partition_col_ < 0) return RestoreWindow(r, nullptr, &whole_);
  uint32_t n = 0;
  SQP_RETURN_NOT_OK(r.U32(&n));
  for (uint32_t i = 0; i < n; ++i) {
    Value key;
    SQP_RETURN_NOT_OK(r.Val(&key));
    auto [part, added] =
        parts_.Insert(Key{{key}}, [this] { return NewWindow(); });
    if (!added) {
      return Status::Internal("window-agg: checkpoint partition saved twice");
    }
    SQP_RETURN_NOT_OK(RestoreWindow(r, &key, &part->value));
  }
  return Status::OK();
}

}  // namespace sqp
