#ifndef SQP_EXEC_PROJECT_H_
#define SQP_EXEC_PROJECT_H_

#include <memory>
#include <variant>
#include <vector>

#include "common/key_table.h"
#include "common/schema.h"
#include "dur/checkpointable.h"
#include "exec/expr.h"
#include "exec/operator.h"
#include "exec/vector_expr.h"

namespace sqp {

/// Duplicate-preserving projection (generalized: any scalar expressions).
/// Output tuples keep the input timestamp — projections on streams must
/// preserve the ordering attribute (slide 29, [JMS95]).
class ProjectOp : public Operator {
 public:
  ProjectOp(std::vector<ExprRef> exprs, std::string name = "project");

  void Push(const Element& e, int port = 0) override;

  /// Computes the output schema given the input schema; names fields
  /// f0..fn unless `names` provided.
  static Result<Schema> OutputSchema(const Schema& input,
                                     const std::vector<ExprRef>& exprs,
                                     const std::vector<std::string>& names = {});

  /// Columnar when every output expression vectorized at construction.
  bool SupportsColumns(int port = 0) const override {
    (void)port;
    return vproj_ != nullptr;
  }

 protected:
  /// Tight per-batch projection loop (see Operator::PushBatch).
  void PushBatch(ElementBatch& batch, int port) override;

  /// Vectorized projection: gathers/computes dense output columns from
  /// the live rows and forwards a fresh batch.
  void PushColumns(ColumnBatch& batch, int port) override;

 private:
  /// Row-path body shared by Push/PushBatch. Pure column projections
  /// (every expression a bare column reference, resolved to ordinals at
  /// construction) copy cells directly instead of virtual-dispatching
  /// Eval per cell.
  TupleRef ProjectRow(const Tuple& in) const;

  std::vector<ExprRef> exprs_;
  /// Bind-time ordinal resolution: non-empty iff every expression is a
  /// bare column reference.
  std::vector<int> ordinals_;
  std::unique_ptr<vec::CompiledProjection> vproj_;
  ColumnBatch scratch_;  // columnar output (reused across batches)
};

/// Duplicate-eliminating projection: "like grouping" (slide 29). Keeps a
/// seen-set per tumbling window when `window_size > 0` (reset at bucket
/// boundaries, keeping memory bounded); unbounded otherwise — the
/// distinction slide 36 draws for `select distinct`.
class DistinctOp : public Operator, public CheckpointableOperator {
 public:
  explicit DistinctOp(std::vector<int> cols, int64_t window_size = 0,
                      std::string name = "distinct");

  void Push(const Element& e, int port = 0) override;
  size_t StateBytes() const override;

  /// Checkpointing: the seen-set and current bucket round-trip.
  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

 private:
  std::vector<int> cols_;
  int64_t window_size_;
  int64_t current_bucket_ = INT64_MIN;
  /// KeyView-probed: duplicates never materialize a Key, and a new
  /// window's keys reuse the last window's entries.
  KeyTable<std::monostate> seen_;
};

}  // namespace sqp

#endif  // SQP_EXEC_PROJECT_H_
