#ifndef SQP_EXEC_PLAN_H_
#define SQP_EXEC_PLAN_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "exec/operator.h"

namespace sqp {

/// Owns a DAG of operators. Sources push into entry operators; the plan
/// is the unit the optimizer rewrites and the scheduler executes.
class Plan {
 public:
  Plan() = default;

  /// Takes ownership; returns a raw handle valid for the plan's lifetime.
  template <typename Op>
  Op* Add(std::unique_ptr<Op> op) {
    Op* raw = op.get();
    ops_.push_back(std::move(op));
    return raw;
  }

  /// Constructs an operator in place.
  template <typename Op, typename... Args>
  Op* Make(Args&&... args) {
    return Add(std::make_unique<Op>(std::forward<Args>(args)...));
  }

  /// Connects `from`'s output to `to`'s input `port`.
  static void Connect(Operator* from, Operator* to, int port = 0) {
    from->SetOutput(to, port);
  }

  const std::vector<std::unique_ptr<Operator>>& operators() const {
    return ops_;
  }

  /// Sum of StateBytes over all operators.
  size_t TotalStateBytes() const;

  /// Per-operator stats dump ("name: in=.. out=.. sel=..").
  std::string StatsString() const;

 private:
  std::vector<std::unique_ptr<Operator>> ops_;
};

/// Drives `n` tuples from `next` into `entry` (port 0), then flushes.
void RunStream(Operator* entry, const std::function<TupleRef()>& next,
               uint64_t n, bool flush = true);

/// Drives elements (tuples or punctuations).
void RunElements(Operator* entry,
                 const std::function<Element()>& next, uint64_t n,
                 bool flush = true);

}  // namespace sqp

#endif  // SQP_EXEC_PLAN_H_
