#include "shed/load_shedder.h"

namespace sqp {

RandomDropOp::RandomDropOp(double drop_rate, uint64_t seed, std::string name)
    : Operator(std::move(name)), drop_rate_(drop_rate), rng_(seed) {}

void RandomDropOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    Emit(e);
    return;
  }
  if (rng_.Bernoulli(drop_rate_.load(std::memory_order_relaxed))) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Emit(e);
}

SemanticDropOp::SemanticDropOp(ExprRef keep_pred, double drop_rate,
                               uint64_t seed, std::string name)
    : Operator(std::move(name)),
      keep_pred_(std::move(keep_pred)),
      drop_rate_(drop_rate),
      rng_(seed) {}

void SemanticDropOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    Emit(e);
    return;
  }
  if (!keep_pred_->Test(*e.tuple()) && rng_.Bernoulli(drop_rate_)) {
    ++dropped_;
    return;
  }
  Emit(e);
}

}  // namespace sqp
