#ifndef SQP_COMMON_VALUE_H_
#define SQP_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "common/status.h"

namespace sqp {

/// Runtime type of a Value / schema field.
enum class ValueType {
  kNull = 0,
  kInt,     ///< 64-bit signed integer (also used for timestamps, IPs, ports)
  kDouble,  ///< IEEE double
  kString,  ///< byte string (payloads, keywords, dialed numbers)
};

/// Returns "null" / "int" / "double" / "string".
const char* ValueTypeName(ValueType type);

/// A dynamically typed scalar — the cell type of a stream tuple.
///
/// Values are small, copyable, ordered and hashable. Mixed int/double
/// comparisons follow numeric promotion; comparisons across other type
/// boundaries order by type tag (deterministic but not meaningful), which
/// keeps Value usable as a std::map key without extra ceremony.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}
  explicit Value(const char* v) : data_(std::string(v)) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }

  ValueType type() const {
    return static_cast<ValueType>(data_.index());
  }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Raw accessors. Precondition: the value holds the requested type.
  int64_t AsInt() const { return std::get<int64_t>(data_); }
  double AsDouble() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric coercion: int and double widen to double; null is 0.0.
  /// Strings are not coerced — returns 0.0.
  double ToDouble() const;
  /// Numeric coercion to int64 (doubles truncate). Strings/null -> 0.
  int64_t ToInt() const;

  /// Renders the value for display ("null", "42", "3.5", "abc").
  std::string ToString() const;

  /// Approximate in-memory footprint in bytes (used by memory accounting).
  size_t MemoryBytes() const;

  /// Total order; numeric across int/double, type-tag order otherwise.
  /// The int-to-int case (most keys and stream predicates) is inline.
  int Compare(const Value& other) const {
    if (type() == ValueType::kInt && other.type() == ValueType::kInt) {
      const int64_t a = AsInt(), b = other.AsInt();
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    return CompareMixed(other);
  }

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

  /// Stable hash suitable for hash joins and group-by tables.
  size_t Hash() const;

  /// Arithmetic used by the expression evaluator. Numeric operands only;
  /// type errors surface as Status.
  static Result<Value> Add(const Value& a, const Value& b);
  static Result<Value> Sub(const Value& a, const Value& b);
  static Result<Value> Mul(const Value& a, const Value& b);
  static Result<Value> Div(const Value& a, const Value& b);
  static Result<Value> Mod(const Value& a, const Value& b);

 private:
  /// Compare for every pair but two ints.
  int CompareMixed(const Value& other) const;

  std::variant<std::monostate, int64_t, double, std::string> data_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace sqp

#endif  // SQP_COMMON_VALUE_H_
