#ifndef SQP_EXEC_EXPR_H_
#define SQP_EXEC_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "common/tuple.h"

namespace sqp {

class Expr;
using ExprRef = std::shared_ptr<const Expr>;

/// True when `v` is a truthy boolean (non-zero int / non-null).
inline bool Truthy(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt:
      return v.AsInt() != 0;
    case ValueType::kDouble:
      return v.AsDouble() != 0.0;
    case ValueType::kString:
      return !v.AsString().empty();
  }
  return false;
}

/// Binary operators in predicate / projection expressions.
enum class BinOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAnd,
  kOr,
};

const char* BinOpName(BinOp op);

/// Structural shape of an expression node, exposed so plan-time
/// compilers (the vectorizer in exec/vector_expr, the project ordinal
/// fast path) can walk the tree without RTTI. kOther is the safe
/// default for future node types: compilers must treat it as opaque and
/// fall back to per-tuple Eval.
enum class ExprKind { kColumn, kConst, kBinary, kNot, kContains, kOther };

/// Scalar expression tree evaluated against one tuple.
///
/// Contract: `Check` validates the expression against a schema at plan
/// time and reports the output type; after a successful Check, `Eval`
/// cannot fail for tuples of that schema (runtime anomalies such as
/// division by zero yield Null). This keeps the per-tuple hot path free
/// of Status plumbing, per the usual engine layering.
///
/// Evaluation is in place: a column yields a reference into the tuple,
/// a literal one into its node, a comparison or logical node a shared
/// true or false constant, and only an arithmetic node writes a Value,
/// into the caller's scratch. Testing a predicate therefore copies no
/// cell and builds no Value.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluates against `t`. The result refers into `t`, into this tree,
  /// to a static constant or to `*scratch` (which an arithmetic node
  /// overwrites, and which may be a cell of the row being built); it is
  /// valid while `t`, the tree and `*scratch` are. See class contract.
  virtual const Value& Eval(const Tuple& t, Value* scratch) const = 0;

  /// Evaluates against `t` into an owned Value.
  Value Eval(const Tuple& t) const {
    Value scratch;
    const Value& v = Eval(t, &scratch);
    return &v == &scratch ? std::move(scratch) : v;
  }

  /// Truthy(Eval(t)), without copying a cell.
  bool Test(const Tuple& t) const {
    Value scratch;
    return Truthy(Eval(t, &scratch));
  }

  /// Plan-time type check; returns the expression's output type.
  virtual Result<ValueType> Check(const Schema& schema) const = 0;

  virtual std::string ToString() const = 0;

  /// Reflection for plan-time compilation (see ExprKind). The accessors
  /// below are meaningful only for the kinds noted; defaults are the
  /// "not this kind" sentinels so callers can probe without casts.
  virtual ExprKind kind() const { return ExprKind::kOther; }
  /// kColumn: the referenced column ordinal, else -1.
  virtual int column_index() const { return -1; }
  /// kConst: the literal, else nullptr.
  virtual const Value* literal() const { return nullptr; }
  /// kBinary: the operator (unspecified for other kinds).
  virtual BinOp bin_op() const { return BinOp::kAdd; }
  /// Operand subtrees: child(0)/child(1) for kBinary and kContains
  /// (haystack, needle), child(0) for kNot; nullptr past the end.
  virtual const Expr* child(int i) const {
    (void)i;
    return nullptr;
  }
};

/// Column reference by position.
ExprRef Col(int index);
/// Constant.
ExprRef Lit(Value v);
inline ExprRef Lit(int64_t v) { return Lit(Value(v)); }
inline ExprRef Lit(double v) { return Lit(Value(v)); }
inline ExprRef Lit(const char* v) { return Lit(Value(v)); }
/// Binary expression.
ExprRef Bin(BinOp op, ExprRef lhs, ExprRef rhs);
/// NOT.
ExprRef Not(ExprRef e);
/// contains(haystack, needle): byte-substring match (payload keywords).
ExprRef ContainsFn(ExprRef haystack, ExprRef needle);

// Shorthand combinators.
inline ExprRef Eq(ExprRef a, ExprRef b) { return Bin(BinOp::kEq, a, b); }
inline ExprRef Ne(ExprRef a, ExprRef b) { return Bin(BinOp::kNe, a, b); }
inline ExprRef Lt(ExprRef a, ExprRef b) { return Bin(BinOp::kLt, a, b); }
inline ExprRef Le(ExprRef a, ExprRef b) { return Bin(BinOp::kLe, a, b); }
inline ExprRef Gt(ExprRef a, ExprRef b) { return Bin(BinOp::kGt, a, b); }
inline ExprRef Ge(ExprRef a, ExprRef b) { return Bin(BinOp::kGe, a, b); }
inline ExprRef And(ExprRef a, ExprRef b) { return Bin(BinOp::kAnd, a, b); }
inline ExprRef Or(ExprRef a, ExprRef b) { return Bin(BinOp::kOr, a, b); }
inline ExprRef Add(ExprRef a, ExprRef b) { return Bin(BinOp::kAdd, a, b); }
inline ExprRef Sub(ExprRef a, ExprRef b) { return Bin(BinOp::kSub, a, b); }
inline ExprRef Mul(ExprRef a, ExprRef b) { return Bin(BinOp::kMul, a, b); }
inline ExprRef Div(ExprRef a, ExprRef b) { return Bin(BinOp::kDiv, a, b); }
inline ExprRef Mod(ExprRef a, ExprRef b) { return Bin(BinOp::kMod, a, b); }

}  // namespace sqp

#endif  // SQP_EXEC_EXPR_H_
