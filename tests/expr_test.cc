#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "exec/column_batch.h"
#include "exec/expr.h"
#include "exec/vector_expr.h"

namespace sqp {
namespace {

Schema TestSchema() {
  return Schema({{"a", ValueType::kInt},
                 {"b", ValueType::kDouble},
                 {"s", ValueType::kString}});
}

TupleRef T(int64_t a, double b, const char* s) {
  return MakeTuple(0, {Value(a), Value(b), Value(s)});
}

TEST(ExprTest, ColumnAndConst) {
  TupleRef t = T(7, 2.5, "xy");
  EXPECT_EQ(Col(0)->Eval(*t).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Col(1)->Eval(*t).AsDouble(), 2.5);
  EXPECT_EQ(Lit(int64_t{9})->Eval(*t).AsInt(), 9);
}

TEST(ExprTest, Arithmetic) {
  TupleRef t = T(10, 0.5, "");
  EXPECT_EQ(Add(Col(0), Lit(int64_t{5}))->Eval(*t).AsInt(), 15);
  EXPECT_DOUBLE_EQ(Mul(Col(1), Lit(4.0))->Eval(*t).AsDouble(), 2.0);
  EXPECT_EQ(Mod(Col(0), Lit(int64_t{3}))->Eval(*t).AsInt(), 1);
  EXPECT_EQ(Div(Col(0), Lit(int64_t{4}))->Eval(*t).AsInt(), 2);
}

TEST(ExprTest, DivisionByZeroYieldsNull) {
  TupleRef t = T(1, 0.0, "");
  EXPECT_TRUE(Div(Col(0), Lit(int64_t{0}))->Eval(*t).is_null());
}

TEST(ExprTest, Comparisons) {
  TupleRef t = T(5, 5.0, "abc");
  EXPECT_TRUE(Truthy(Eq(Col(0), Col(1))->Eval(*t)));  // 5 == 5.0.
  EXPECT_TRUE(Truthy(Gt(Col(0), Lit(int64_t{4}))->Eval(*t)));
  EXPECT_FALSE(Truthy(Lt(Col(0), Lit(int64_t{4}))->Eval(*t)));
  EXPECT_TRUE(Truthy(Eq(Col(2), Lit("abc"))->Eval(*t)));
}

TEST(ExprTest, LogicalShortCircuit) {
  TupleRef t = T(1, 0.0, "");
  // RHS would divide by zero; AND must not evaluate it into a crash (it
  // yields null -> falsy anyway, but short-circuit means it's skipped).
  ExprRef e = And(Lit(int64_t{0}), Div(Col(0), Lit(int64_t{0})));
  EXPECT_FALSE(Truthy(e->Eval(*t)));
  EXPECT_TRUE(Truthy(Or(Lit(int64_t{1}), Lit(int64_t{0}))->Eval(*t)));
  EXPECT_TRUE(Truthy(Not(Lit(int64_t{0}))->Eval(*t)));
}

TEST(ExprTest, ContainsFn) {
  TupleRef t = T(0, 0.0, "..X-Kazaa-IP..");
  EXPECT_TRUE(Truthy(ContainsFn(Col(2), Lit("X-Kazaa-"))->Eval(*t)));
  EXPECT_FALSE(Truthy(ContainsFn(Col(2), Lit("BitTorrent"))->Eval(*t)));
  // Non-string operands are simply false, not errors.
  EXPECT_FALSE(Truthy(ContainsFn(Col(0), Lit("x"))->Eval(*t)));
}

TEST(ExprTest, CheckTypesArithmetic) {
  Schema s = TestSchema();
  EXPECT_EQ(*Add(Col(0), Lit(int64_t{1}))->Check(s), ValueType::kInt);
  EXPECT_EQ(*Add(Col(0), Col(1))->Check(s), ValueType::kDouble);
  EXPECT_FALSE(Add(Col(2), Lit(int64_t{1}))->Check(s).ok());
  EXPECT_FALSE(Mod(Col(1), Lit(int64_t{2}))->Check(s).ok());
}

TEST(ExprTest, CheckComparisonsMixedTypesRejected) {
  Schema s = TestSchema();
  EXPECT_TRUE(Eq(Col(0), Col(1))->Check(s).ok());
  EXPECT_FALSE(Eq(Col(0), Col(2))->Check(s).ok());
  EXPECT_EQ(Eq(Col(0), Col(2))->Check(s).status().code(),
            StatusCode::kTypeError);
}

TEST(ExprTest, CheckColumnBounds) {
  Schema s = TestSchema();
  EXPECT_TRUE(Col(2)->Check(s).ok());
  EXPECT_FALSE(Col(3)->Check(s).ok());
  EXPECT_FALSE(Col(-1)->Check(s).ok());
}

TEST(ExprTest, ToStringRoundtrip) {
  ExprRef e = And(Gt(Col(0), Lit(int64_t{5})), ContainsFn(Col(2), Lit("x")));
  EXPECT_EQ(e->ToString(), "(($0 > 5) and contains($2, x))");
}

TEST(ExprTest, TruthyRules) {
  EXPECT_FALSE(Truthy(Value::Null()));
  EXPECT_FALSE(Truthy(Value(int64_t{0})));
  EXPECT_TRUE(Truthy(Value(int64_t{-1})));
  EXPECT_FALSE(Truthy(Value(0.0)));
  EXPECT_TRUE(Truthy(Value(0.1)));
  EXPECT_FALSE(Truthy(Value("")));
  EXPECT_TRUE(Truthy(Value("x")));
}

// --- Differential check of the in-place evaluator ---

// The oracle: a by-value walk of the tree through its reflection API,
// built from the same Value primitives, copying every operand.
Value Oracle(const Expr& e, const Tuple& t) {
  switch (e.kind()) {
    case ExprKind::kColumn:
      return t.at(static_cast<size_t>(e.column_index()));
    case ExprKind::kConst:
      return *e.literal();
    case ExprKind::kNot:
      return Value(int64_t{Truthy(Oracle(*e.child(0), t)) ? 0 : 1});
    case ExprKind::kContains: {
      const Value h = Oracle(*e.child(0), t);
      const Value n = Oracle(*e.child(1), t);
      return Value(int64_t{h.type() == ValueType::kString &&
                           n.type() == ValueType::kString &&
                           h.AsString().find(n.AsString()) !=
                               std::string::npos});
    }
    case ExprKind::kBinary:
      break;
    case ExprKind::kOther:
      ADD_FAILURE() << "unexpected node " << e.ToString();
      return Value();
  }
  const BinOp op = e.bin_op();
  const Value a = Oracle(*e.child(0), t);
  if (op == BinOp::kAnd || op == BinOp::kOr) {
    if (Truthy(a) == (op == BinOp::kOr)) return Value(int64_t{Truthy(a)});
    return Value(int64_t{Truthy(Oracle(*e.child(1), t))});
  }
  const Value b = Oracle(*e.child(1), t);
  const int c = a.Compare(b);
  switch (op) {
    case BinOp::kAdd:
      return Value::Add(a, b).value_or(Value());
    case BinOp::kSub:
      return Value::Sub(a, b).value_or(Value());
    case BinOp::kMul:
      return Value::Mul(a, b).value_or(Value());
    case BinOp::kDiv:
      return Value::Div(a, b).value_or(Value());
    case BinOp::kMod:
      return Value::Mod(a, b).value_or(Value());
    case BinOp::kEq:
      return Value(int64_t{c == 0});
    case BinOp::kNe:
      return Value(int64_t{c != 0});
    case BinOp::kLt:
      return Value(int64_t{c < 0});
    case BinOp::kLe:
      return Value(int64_t{c <= 0});
    case BinOp::kGt:
      return Value(int64_t{c > 0});
    case BinOp::kGe:
      return Value(int64_t{c >= 0});
    case BinOp::kAnd:
    case BinOp::kOr:
      break;
  }
  return Value();
}

// Same type and same value (an int 1 and a double 1.0 compare equal).
bool Same(const Value& a, const Value& b) {
  return a.type() == b.type() && a.Compare(b) == 0;
}

constexpr int kDiffCols = 4;
const char* const kWords[] = {"", "a", "ab", "ba", "kazaa", "zz"};

// A cell of `type`, or a null one time in five. Small ints and doubles
// (zero included) keep products of eight leaves in range and make
// division by zero common.
Value RandomCell(Rng& rng, ValueType type) {
  if (rng.Uniform(5) == 0) return Value();
  switch (type) {
    case ValueType::kInt:
      return Value(rng.UniformRange(-3, 3));
    case ValueType::kDouble:
      return Value(static_cast<double>(rng.UniformRange(-4, 4)) / 2);
    case ValueType::kString:
      return Value(kWords[rng.Uniform(6)]);
    case ValueType::kNull:
      break;
  }
  return Value();
}

ValueType RandomType(Rng& rng) {
  static const ValueType kTypes[] = {ValueType::kInt, ValueType::kDouble,
                                     ValueType::kString};
  return kTypes[rng.Uniform(3)];
}

ExprRef RandomExpr(Rng& rng, int depth) {
  if (depth == 0 || rng.Uniform(4) == 0) {
    if (rng.Uniform(2) == 0) {
      return Col(static_cast<int>(rng.Uniform(kDiffCols)));
    }
    return Lit(RandomCell(rng, RandomType(rng)));
  }
  const uint64_t pick = rng.Uniform(15);
  if (pick == 13) return Not(RandomExpr(rng, depth - 1));
  if (pick == 14) {
    return ContainsFn(RandomExpr(rng, depth - 1), RandomExpr(rng, depth - 1));
  }
  return Bin(static_cast<BinOp>(pick), RandomExpr(rng, depth - 1),
             RandomExpr(rng, depth - 1));
}

// Random trees of every node kind over rows that mix null, int, double
// and string cells: evaluating in place, by value and as a predicate
// all agree with the oracle, and so do the rows a compiled predicate
// keeps. In half the batches each column keeps one type (so the batch
// converts to columns); in the rest, cells take any type.
TEST(ExprTest, InPlaceEvaluationMatchesOracle) {
  Rng rng(29);
  int filtered = 0;
  for (int round = 0; round < 400; ++round) {
    const ExprRef e = RandomExpr(rng, 3);
    SCOPED_TRACE(e->ToString());
    ValueType col_type[kDiffCols];
    for (ValueType& type : col_type) type = RandomType(rng);
    const bool mixed = round % 2 == 1;
    ElementBatch rows;
    std::vector<bool> keep;
    for (int r = 0; r < 32; ++r) {
      std::vector<Value> cells;
      for (ValueType type : col_type) {
        cells.push_back(RandomCell(rng, mixed ? RandomType(rng) : type));
      }
      const TupleRef t = MakeTuple(r, std::move(cells));
      const Value want = Oracle(*e, *t);
      Value scratch(int64_t{-7});  // Stale scratch must not leak through.
      const Value& in_place = e->Eval(*t, &scratch);
      EXPECT_TRUE(Same(in_place, want))
          << t->ToString() << ": " << in_place.ToString() << " vs "
          << want.ToString();
      EXPECT_TRUE(Same(e->Eval(*t), want)) << t->ToString();
      EXPECT_EQ(e->Test(*t), Truthy(want)) << t->ToString();
      keep.push_back(Truthy(want));
      rows.push_back(Element(t));
    }
    const auto pred = vec::CompiledPredicate::Compile(*e);
    ColumnBatch cb;
    if (pred == nullptr || !ColumnBatch::FromRows(rows, &cb) ||
        !pred->Filter(&cb)) {
      continue;
    }
    ++filtered;
    std::vector<bool> kept(keep.size(), false);
    for (size_t k = 0; k < cb.ActiveRows(); ++k) kept[cb.Active(k)] = true;
    EXPECT_EQ(kept, keep);
  }
  // Most single-typed batches take the columnar path.
  EXPECT_GT(filtered, 100);
}

}  // namespace
}  // namespace sqp
