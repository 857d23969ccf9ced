#ifndef SQP_SHED_LOAD_SHEDDER_H_
#define SQP_SHED_LOAD_SHEDDER_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/rng.h"
#include "exec/expr.h"
#include "exec/operator.h"

namespace sqp {

/// Random load shedding (slide 44): drops each tuple independently with
/// probability `drop_rate`. Downstream aggregate answers can be scaled by
/// 1/(1-p) to stay approximately unbiased — `scale_factor()` exposes it.
///
/// `drop_rate` and `dropped` are atomic so a monitoring/control thread
/// (the engine's adaptive shedding, ExecutionOptions::shed) can retune
/// the rate and read the loss counter while the data path runs. The data
/// path itself must stay single-threaded (rng_ is not synchronized).
class RandomDropOp : public Operator {
 public:
  RandomDropOp(double drop_rate, uint64_t seed,
               std::string name = "random-drop");

  void Push(const Element& e, int port = 0) override;

  void set_drop_rate(double p) {
    drop_rate_.store(p, std::memory_order_relaxed);
  }
  double drop_rate() const {
    return drop_rate_.load(std::memory_order_relaxed);
  }
  double scale_factor() const {
    double p = drop_rate();
    return p >= 1.0 ? 0.0 : 1.0 / (1.0 - p);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> drop_rate_;
  Rng rng_;
  std::atomic<uint64_t> dropped_{0};
};

/// Semantic load shedding (slide 44): drops tuples by *value*, keeping
/// the ones that matter to the query/QoS. Tuples satisfying `keep_pred`
/// always pass; the rest are dropped with probability `drop_rate`
/// (1.0 = drop all non-matching tuples under overload).
class SemanticDropOp : public Operator {
 public:
  SemanticDropOp(ExprRef keep_pred, double drop_rate, uint64_t seed,
                 std::string name = "semantic-drop");

  void Push(const Element& e, int port = 0) override;

  void set_drop_rate(double p) { drop_rate_ = p; }
  double drop_rate() const { return drop_rate_; }
  uint64_t dropped() const { return dropped_; }

 private:
  ExprRef keep_pred_;
  double drop_rate_;
  Rng rng_;
  uint64_t dropped_ = 0;
};

}  // namespace sqp

#endif  // SQP_SHED_LOAD_SHEDDER_H_
