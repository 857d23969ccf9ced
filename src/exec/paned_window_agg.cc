#include "exec/paned_window_agg.h"

#include <cassert>
#include <numeric>

namespace sqp {

PanedWindowAggregateOp::PanedWindowAggregateOp(Options options,
                                               std::string name)
    : Operator(std::move(name)),
      options_(std::move(options)),
      aggs_(options_.aggs) {
  assert(options_.window > 0 && options_.slide > 0);
  assert(options_.slide <= options_.window);
  pane_ = std::gcd(options_.window, options_.slide);
  current_ = aggs_.NewAccs();
}

void PanedWindowAggregateOp::ClosePane() {
  if (current_pane_ == INT64_MIN) return;
  panes_.emplace_back(current_pane_, std::move(current_));
  current_ = aggs_.NewAccs();
  // Retain only the panes the widest pending window can still need.
  size_t max_panes = static_cast<size_t>(options_.window / pane_);
  while (panes_.size() > max_panes) panes_.pop_front();
}

void PanedWindowAggregateOp::EmitBoundary(int64_t boundary) {
  // Window covers [boundary - W, boundary): merge the covering panes.
  AggSet::Accs merged = aggs_.NewAccs();
  int64_t first_pane = (boundary - options_.window) / pane_;
  int64_t end_pane = boundary / pane_;
  for (const auto& [pane_id, accs] : panes_) {
    if (pane_id >= first_pane && pane_id < end_pane) {
      for (size_t i = 0; i < merged.size(); ++i) {
        merged[i]->Merge(*accs[i]);
        ++merges_;
      }
    }
  }
  std::vector<Value> row;
  row.reserve(1 + merged.size());
  row.push_back(Value(boundary));
  AggSet::AppendResults(merged, &row);
  Emit(Element(MakeTuple(boundary, std::move(row))));
}

void PanedWindowAggregateOp::AdvanceTo(int64_t now) {
  int64_t pane = now / pane_;
  if (current_pane_ == INT64_MIN) {
    current_pane_ = pane;
    // Start emitting from the first slide boundary after the stream
    // begins (partial windows before that are skipped).
    last_boundary_ = (now / options_.slide) * options_.slide;
    return;
  }
  if (pane <= current_pane_) return;
  // The open pane closes; any panes between it and `pane` are empty, so
  // the open pane can jump directly.
  ClosePane();
  current_pane_ = pane;
  int64_t complete_through = pane * pane_;
  while (last_boundary_ + options_.slide <= complete_through) {
    int64_t nb = last_boundary_ + options_.slide;
    int64_t newest_end =
        panes_.empty() ? INT64_MIN : (panes_.back().first + 1) * pane_;
    if (newest_end <= nb - options_.window) {
      // Every remaining boundary up to complete_through has an empty
      // window; skip the run (empty windows are suppressed).
      last_boundary_ = (complete_through / options_.slide) * options_.slide;
      break;
    }
    last_boundary_ = nb;
    EmitBoundary(nb);
  }
}

void PanedWindowAggregateOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    if (!e.punctuation().has_key) AdvanceTo(e.punctuation().ts + 1);
    Emit(e);
    return;
  }
  AdvanceTo(e.tuple()->ts());
  aggs_.Add(current_, *e.tuple());
}

void PanedWindowAggregateOp::Flush() {
  if (current_pane_ != INT64_MIN) {
    // Close the open pane and emit the remaining boundaries, plus one
    // trailing (possibly partial) window covering data past the last
    // boundary.
    int64_t data_end = (current_pane_ + 1) * pane_;
    ClosePane();
    while (last_boundary_ + options_.slide <= data_end) {
      last_boundary_ += options_.slide;
      EmitBoundary(last_boundary_);
    }
    if (last_boundary_ < data_end) {
      last_boundary_ += options_.slide;
      EmitBoundary(last_boundary_);
    }
  }
  Operator::Flush();
}

size_t PanedWindowAggregateOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& acc : current_) bytes += acc->MemoryBytes();
  for (const auto& [id, accs] : panes_) {
    for (const auto& acc : accs) bytes += acc->MemoryBytes();
  }
  return bytes;
}

}  // namespace sqp
