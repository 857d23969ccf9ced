#include "exec/eddy.h"

#include <algorithm>
#include <numeric>

namespace sqp {

EddyOp::EddyOp(Options options, std::string name)
    : Operator(std::move(name)), options_(std::move(options)) {
  order_.resize(options_.filters.size());
  std::iota(order_.begin(), order_.end(), 0);
  // Optimistic prior: assume everything passes until observed otherwise.
  sel_.assign(options_.filters.size(), 1.0);
}

void EddyOp::MaybeReorder() {
  if (!options_.adaptive) return;
  if (++since_reorder_ < options_.reorder_interval) return;
  since_reorder_ = 0;
  // Rank ordering on current estimates: most filtering per unit cost
  // first.
  std::sort(order_.begin(), order_.end(), [&](size_t a, size_t b) {
    double ra = (1.0 - sel_[a]) / options_.filters[a].cost;
    double rb = (1.0 - sel_[b]) / options_.filters[b].cost;
    return ra > rb;
  });
}

void EddyOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    Emit(e);
    return;
  }
  const Tuple& t = *e.tuple();
  bool pass = true;
  for (size_t i : order_) {
    const Filter& f = options_.filters[i];
    ++evaluations_;
    work_ += f.cost;
    bool ok = f.predicate->Test(t);
    sel_[i] = (1.0 - options_.ewma_alpha) * sel_[i] +
              options_.ewma_alpha * (ok ? 1.0 : 0.0);
    if (!ok) {
      pass = false;
      break;  // Short-circuit: later filters never see this tuple.
    }
  }
  MaybeReorder();
  if (pass) Emit(e);
}

}  // namespace sqp
