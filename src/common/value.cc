#include "common/value.h"

#include <cmath>
#include <functional>

namespace sqp {

namespace {

bool IsNumeric(const Value& v) {
  return v.type() == ValueType::kInt || v.type() == ValueType::kDouble;
}

// Applies a binary arithmetic op with int/int -> int, otherwise double.
template <typename IntOp, typename DoubleOp>
Result<Value> Arith(const Value& a, const Value& b, const char* name,
                    IntOp int_op, DoubleOp double_op) {
  if (!IsNumeric(a) || !IsNumeric(b)) {
    return Status::TypeError(std::string(name) + " requires numeric operands, got " +
                             ValueTypeName(a.type()) + " and " +
                             ValueTypeName(b.type()));
  }
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    return int_op(a.AsInt(), b.AsInt());
  }
  return double_op(a.ToDouble(), b.ToDouble());
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return "int";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

double Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt:
      return static_cast<double>(AsInt());
    case ValueType::kDouble:
      return AsDouble();
    default:
      return 0.0;
  }
}

int64_t Value::ToInt() const {
  switch (type()) {
    case ValueType::kInt:
      return AsInt();
    case ValueType::kDouble:
      return static_cast<int64_t>(AsDouble());
    default:
      return 0;
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt:
      return std::to_string(AsInt());
    case ValueType::kDouble: {
      // Trim trailing zeros for readable benchmark output.
      std::string s = std::to_string(AsDouble());
      size_t dot = s.find('.');
      if (dot != std::string::npos) {
        size_t last = s.find_last_not_of('0');
        if (last == dot) last = dot + 1;
        s.erase(last + 1);
      }
      return s;
    }
    case ValueType::kString:
      return AsString();
  }
  return "?";
}

size_t Value::MemoryBytes() const {
  size_t base = sizeof(Value);
  if (type() == ValueType::kString) base += AsString().capacity();
  return base;
}

int Value::CompareMixed(const Value& other) const {
  if (IsNumeric(*this) && IsNumeric(other)) {
    double a = ToDouble(), b = other.ToDouble();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (type() != other.type()) {
    return type() < other.type() ? -1 : 1;
  }
  switch (type()) {
    case ValueType::kNull:
      return 0;
    case ValueType::kString: {
      int c = AsString().compare(other.AsString());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    default:
      return 0;  // Unreachable: numerics handled above.
  }
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kInt: {
      // SplitMix64 finalizer: strong avalanche for hash-join buckets.
      uint64_t x = static_cast<uint64_t>(AsInt());
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    }
    case ValueType::kDouble: {
      double d = AsDouble();
      if (d == static_cast<int64_t>(d)) {
        // Make 2.0 hash like Int(2) so numeric-equal values collide.
        return Value(static_cast<int64_t>(d)).Hash();
      }
      return std::hash<double>()(d);
    }
    case ValueType::kString:
      return std::hash<std::string>()(AsString());
  }
  return 0;
}

Result<Value> Value::Add(const Value& a, const Value& b) {
  return Arith(
      a, b, "+", [](int64_t x, int64_t y) { return Value(x + y); },
      [](double x, double y) { return Value(x + y); });
}

Result<Value> Value::Sub(const Value& a, const Value& b) {
  return Arith(
      a, b, "-", [](int64_t x, int64_t y) { return Value(x - y); },
      [](double x, double y) { return Value(x - y); });
}

Result<Value> Value::Mul(const Value& a, const Value& b) {
  return Arith(
      a, b, "*", [](int64_t x, int64_t y) { return Value(x * y); },
      [](double x, double y) { return Value(x * y); });
}

Result<Value> Value::Div(const Value& a, const Value& b) {
  if (!IsNumeric(a) || !IsNumeric(b)) {
    return Status::TypeError("/ requires numeric operands");
  }
  if (a.type() == ValueType::kInt && b.type() == ValueType::kInt) {
    if (b.AsInt() == 0) return Status::InvalidArgument("integer division by zero");
    return Value(a.AsInt() / b.AsInt());
  }
  double denom = b.ToDouble();
  if (denom == 0.0) return Status::InvalidArgument("division by zero");
  return Value(a.ToDouble() / denom);
}

Result<Value> Value::Mod(const Value& a, const Value& b) {
  if (a.type() != ValueType::kInt || b.type() != ValueType::kInt) {
    return Status::TypeError("% requires integer operands");
  }
  if (b.AsInt() == 0) return Status::InvalidArgument("modulo by zero");
  return Value(a.AsInt() % b.AsInt());
}

}  // namespace sqp
