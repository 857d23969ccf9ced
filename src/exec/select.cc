#include "exec/select.h"

namespace sqp {

SelectOp::SelectOp(ExprRef predicate, std::string name)
    : Operator(std::move(name)), pred_(std::move(predicate)) {
  vpred_ = vec::CompiledPredicate::Compile(*pred_);
}

void SelectOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    Emit(e);
    return;
  }
  if (pred_->Test(*e.tuple())) Emit(e);
}

void SelectOp::PushBatch(ElementBatch& batch, int /*port*/) {
  // Per-element work is only the predicate: passing elements are moved
  // straight into the coalesced output batch (no refcount traffic), and
  // in/out counters are settled once per batch instead of per element.
  uint64_t tuples = 0;
  uint64_t puncts = 0;
  for (Element& e : batch) {
    if (e.is_punctuation()) {
      ++puncts;
      Emit(std::move(e));
      continue;
    }
    ++tuples;
    if (pred_->Test(*e.tuple())) Emit(std::move(e));
  }
  CountInBulk(tuples, puncts);
}

void SelectOp::PushColumns(ColumnBatch& batch, int /*port*/) {
  CountInColumns(batch);
  if (vpred_ == nullptr || !vpred_->Filter(&batch)) {
    // Predicate didn't vectorize (or the batch doesn't fit the plan):
    // materialize once and take the row loop. Counters were already
    // settled in bulk, so bypass PushBatch's accounting via the
    // uncounted filter loop below.
    ElementBatch rows;
    batch.MaterializeRows(&rows);
    for (Element& e : rows) {
      if (e.is_punctuation() || pred_->Test(*e.tuple())) {
        Emit(std::move(e));
      }
    }
    return;
  }
  EmitColumns(std::move(batch));
}

}  // namespace sqp
