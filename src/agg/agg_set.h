#ifndef SQP_AGG_AGG_SET_H_
#define SQP_AGG_AGG_SET_H_

#include <memory>
#include <string>
#include <vector>

#include "agg/aggregate_fn.h"
#include "common/fifo_log.h"
#include "common/schema.h"
#include "common/tuple.h"

namespace sqp {

/// One aggregate expression of a query: `kind(input_col)`.
struct AggSpec {
  AggKind kind = AggKind::kCount;
  /// Input column; -1 for count(*).
  int input_col = -1;
  /// Blend factor for kBlend.
  double param = 0.5;
};

/// The aggregate list of one operator (slides 34-37): its specs and their
/// functions. Every aggregate operator keeps one accumulator vector per
/// group, pane or window, and this is the only code that builds those
/// vectors, feeds rows into them and reads their results, so count(*),
/// result types and checkpoint eligibility are decided here once.
class AggSet {
 public:
  using Accs = std::vector<std::unique_ptr<Accumulator>>;

  explicit AggSet(std::vector<AggSpec> specs);

  const std::vector<AggSpec>& specs() const { return specs_; }
  size_t size() const { return specs_.size(); }

  /// One `NewAccumulator()` per aggregate: group-by, panes, landmark
  /// windows, partial aggregation and checkpoints.
  Accs NewAccs() const;
  /// One `NewSlidingAccumulator()` per aggregate: sliding windows.
  Accs NewSlidingAccs() const;

  /// Folds tuple `t` into `accs`.
  void Add(const Accs& accs, const Tuple& t) const {
    AddRow(accs, [&t](size_t c) -> const Value& { return t.at(c); });
  }
  /// Folds one row into `accs`; `column(c)` returns the row's value in
  /// column c (columnar input reads it straight from the typed arrays).
  template <typename ColumnAt>
  void AddRow(const Accs& accs, ColumnAt&& column) const {
    for (size_t i = 0; i < specs_.size(); ++i) {
      accs[i]->Add(Input(i, column));
    }
  }

  /// Slides a window over sliding accumulators: evicts `expired` (oldest
  /// first), then adds `added` when non-null. Aggregates that cannot
  /// evict are rebuilt from `window`, which already holds `added` and no
  /// longer holds `expired`. Returns whether any aggregate was rebuilt.
  bool Slide(Accs& accs, const std::vector<TupleRef>& expired,
             const Tuple* added, const FifoLog<TupleRef>& window) const;

  /// Overwrites `out[0..size())` with each accumulator's result.
  static void WriteResults(const Accs& accs, Value* out);
  /// Returns every accumulator to its freshly built state.
  static void Reset(const Accs& accs);

  /// Appends one field per aggregate, typed over rows of `input`: counts
  /// are ints, avg/stddev/median/blend doubles, the rest take their input
  /// column's type.
  static Status AppendFields(const std::vector<AggSpec>& specs,
                             const Schema& input, std::vector<Field>* fields);

 private:
  /// The value aggregate `i` reads from a row: count(*) reads no column
  /// and feeds the constant 1.
  template <typename ColumnAt>
  auto Input(size_t i, ColumnAt&& column) const
      -> decltype(column(size_t{0})) {
    const AggSpec& s = specs_[i];
    if (s.input_col < 0) return kOne;
    return column(static_cast<size_t>(s.input_col));
  }

  static inline const Value kOne{int64_t{1}};

  std::vector<AggSpec> specs_;
  std::vector<AggregateFunction> fns_;
};

}  // namespace sqp

#endif  // SQP_AGG_AGG_SET_H_
