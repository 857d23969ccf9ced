#include "exec/expr.h"

#include "common/strings.h"

namespace sqp {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return "+";
    case BinOp::kSub:
      return "-";
    case BinOp::kMul:
      return "*";
    case BinOp::kDiv:
      return "/";
    case BinOp::kMod:
      return "%";
    case BinOp::kEq:
      return "=";
    case BinOp::kNe:
      return "!=";
    case BinOp::kLt:
      return "<";
    case BinOp::kLe:
      return "<=";
    case BinOp::kGt:
      return ">";
    case BinOp::kGe:
      return ">=";
    case BinOp::kAnd:
      return "and";
    case BinOp::kOr:
      return "or";
  }
  return "?";
}

namespace {

class ColumnExpr : public Expr {
 public:
  explicit ColumnExpr(int index) : index_(index) {}

  const Value& Eval(const Tuple& t, Value* /*scratch*/) const override {
    return t.at(static_cast<size_t>(index_));
  }

  Result<ValueType> Check(const Schema& schema) const override {
    if (index_ < 0 || static_cast<size_t>(index_) >= schema.num_fields()) {
      return Status::InvalidArgument(
          StrFormat("column index %d out of range (schema has %zu fields)",
                    index_, schema.num_fields()));
    }
    return schema.field(static_cast<size_t>(index_)).type;
  }

  std::string ToString() const override {
    return "$" + std::to_string(index_);
  }

  ExprKind kind() const override { return ExprKind::kColumn; }
  int column_index() const override { return index_; }

 private:
  int index_;
};

class ConstExpr : public Expr {
 public:
  explicit ConstExpr(Value v) : v_(std::move(v)) {}

  const Value& Eval(const Tuple& /*t*/, Value* /*scratch*/) const override {
    return v_;
  }

  Result<ValueType> Check(const Schema& /*schema*/) const override {
    return v_.type();
  }

  std::string ToString() const override { return v_.ToString(); }

  ExprKind kind() const override { return ExprKind::kConst; }
  const Value* literal() const override { return &v_; }

 private:
  Value v_;
};

// A predicate's result: a shared constant, so testing one writes no
// Value.
const Value kFalse(int64_t{0});
const Value kTrue(int64_t{1});

const Value& Bool(bool v) { return v ? kTrue : kFalse; }

bool IsNumericType(ValueType t) {
  return t == ValueType::kInt || t == ValueType::kDouble;
}

class BinaryExpr : public Expr {
 public:
  BinaryExpr(BinOp op, ExprRef lhs, ExprRef rhs)
      : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)) {}

  const Value& Eval(const Tuple& t, Value* scratch) const override {
    switch (op_) {
      case BinOp::kAnd:  // Short-circuit.
        return Bool(Truthy(lhs_->Eval(t, scratch)) &&
                    Truthy(rhs_->Eval(t, scratch)));
      case BinOp::kOr:
        return Bool(Truthy(lhs_->Eval(t, scratch)) ||
                    Truthy(rhs_->Eval(t, scratch)));
      default:
        break;
    }
    // A left operand held in *scratch keeps it; the right one then takes
    // its own.
    const Value& a = lhs_->Eval(t, scratch);
    if (&a != scratch) return Apply(a, rhs_->Eval(t, scratch), scratch);
    Value rhs_scratch;
    return Apply(a, rhs_->Eval(t, &rhs_scratch), scratch);
  }

  Result<ValueType> Check(const Schema& schema) const override {
    auto lt = lhs_->Check(schema);
    if (!lt.ok()) return lt;
    auto rt = rhs_->Check(schema);
    if (!rt.ok()) return rt;
    switch (op_) {
      case BinOp::kAdd:
      case BinOp::kSub:
      case BinOp::kMul:
      case BinOp::kDiv:
        if (!IsNumericType(*lt) || !IsNumericType(*rt)) {
          return Status::TypeError(std::string("operator ") + BinOpName(op_) +
                                   " requires numeric operands in " +
                                   ToString());
        }
        return (*lt == ValueType::kDouble || *rt == ValueType::kDouble)
                   ? ValueType::kDouble
                   : ValueType::kInt;
      case BinOp::kMod:
        if (*lt != ValueType::kInt || *rt != ValueType::kInt) {
          return Status::TypeError("% requires integer operands in " +
                                   ToString());
        }
        return ValueType::kInt;
      case BinOp::kEq:
      case BinOp::kNe:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
        if (IsNumericType(*lt) != IsNumericType(*rt)) {
          return Status::TypeError("cannot compare " +
                                   std::string(ValueTypeName(*lt)) + " with " +
                                   ValueTypeName(*rt) + " in " + ToString());
        }
        return ValueType::kInt;
      case BinOp::kAnd:
      case BinOp::kOr:
        return ValueType::kInt;
    }
    return Status::Internal("unhandled binary operator");
  }

  std::string ToString() const override {
    return "(" + lhs_->ToString() + " " + BinOpName(op_) + " " +
           rhs_->ToString() + ")";
  }

  ExprKind kind() const override { return ExprKind::kBinary; }
  BinOp bin_op() const override { return op_; }
  const Expr* child(int i) const override {
    return i == 0 ? lhs_.get() : (i == 1 ? rhs_.get() : nullptr);
  }

 private:
  /// `a op b` for every operator but AND and OR. An arithmetic result
  /// is written to *scratch, which may hold `a` or `b`.
  const Value& Apply(const Value& a, const Value& b, Value* scratch) const {
    switch (op_) {
      case BinOp::kAdd:
        return *scratch = Value::Add(a, b).value_or(Value::Null());
      case BinOp::kSub:
        return *scratch = Value::Sub(a, b).value_or(Value::Null());
      case BinOp::kMul:
        return *scratch = Value::Mul(a, b).value_or(Value::Null());
      case BinOp::kDiv:
        return *scratch = Value::Div(a, b).value_or(Value::Null());
      case BinOp::kMod:
        return *scratch = Value::Mod(a, b).value_or(Value::Null());
      case BinOp::kEq:
        return Bool(a.Compare(b) == 0);
      case BinOp::kNe:
        return Bool(a.Compare(b) != 0);
      case BinOp::kLt:
        return Bool(a.Compare(b) < 0);
      case BinOp::kLe:
        return Bool(a.Compare(b) <= 0);
      case BinOp::kGt:
        return Bool(a.Compare(b) > 0);
      case BinOp::kGe:
        return Bool(a.Compare(b) >= 0);
      case BinOp::kAnd:
      case BinOp::kOr:
        break;  // Evaluated by Eval.
    }
    return *scratch = Value::Null();
  }

  BinOp op_;
  ExprRef lhs_, rhs_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprRef e) : e_(std::move(e)) {}

  const Value& Eval(const Tuple& t, Value* scratch) const override {
    return Bool(!Truthy(e_->Eval(t, scratch)));
  }

  Result<ValueType> Check(const Schema& schema) const override {
    auto et = e_->Check(schema);
    if (!et.ok()) return et;
    return ValueType::kInt;
  }

  std::string ToString() const override { return "not " + e_->ToString(); }

  ExprKind kind() const override { return ExprKind::kNot; }
  const Expr* child(int i) const override {
    return i == 0 ? e_.get() : nullptr;
  }

 private:
  ExprRef e_;
};

class ContainsExpr : public Expr {
 public:
  ContainsExpr(ExprRef haystack, ExprRef needle)
      : haystack_(std::move(haystack)), needle_(std::move(needle)) {}

  const Value& Eval(const Tuple& t, Value* scratch) const override {
    const Value& h = haystack_->Eval(t, scratch);
    if (&h != scratch) return Bool(Holds(h, needle_->Eval(t, scratch)));
    Value needle_scratch;
    return Bool(Holds(h, needle_->Eval(t, &needle_scratch)));
  }

  Result<ValueType> Check(const Schema& schema) const override {
    auto ht = haystack_->Check(schema);
    if (!ht.ok()) return ht;
    auto nt = needle_->Check(schema);
    if (!nt.ok()) return nt;
    if (*ht != ValueType::kString || *nt != ValueType::kString) {
      return Status::TypeError("contains() requires string arguments");
    }
    return ValueType::kInt;
  }

  std::string ToString() const override {
    return "contains(" + haystack_->ToString() + ", " + needle_->ToString() +
           ")";
  }

  ExprKind kind() const override { return ExprKind::kContains; }
  const Expr* child(int i) const override {
    return i == 0 ? haystack_.get() : (i == 1 ? needle_.get() : nullptr);
  }

 private:
  static bool Holds(const Value& h, const Value& n) {
    return h.type() == ValueType::kString && n.type() == ValueType::kString &&
           Contains(h.AsString(), n.AsString());
  }

  ExprRef haystack_, needle_;
};

}  // namespace

ExprRef Col(int index) { return std::make_shared<ColumnExpr>(index); }

ExprRef Lit(Value v) { return std::make_shared<ConstExpr>(std::move(v)); }

ExprRef Bin(BinOp op, ExprRef lhs, ExprRef rhs) {
  return std::make_shared<BinaryExpr>(op, std::move(lhs), std::move(rhs));
}

ExprRef Not(ExprRef e) { return std::make_shared<NotExpr>(std::move(e)); }

ExprRef ContainsFn(ExprRef haystack, ExprRef needle) {
  return std::make_shared<ContainsExpr>(std::move(haystack),
                                        std::move(needle));
}

}  // namespace sqp
