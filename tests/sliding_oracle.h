// Inputs and result comparison shared by the sliding-aggregate property
// tests (agg_test, window_agg_test, partitioned_agg_test). Their oracle
// is a fresh NewAccumulator() folded over what the window holds.

#ifndef SQP_TESTS_SLIDING_ORACLE_H_
#define SQP_TESTS_SLIDING_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "agg/aggregate_fn.h"
#include "common/rng.h"
#include "common/value.h"

namespace sqp {
namespace sliding_oracle {

/// Every kind NewSlidingAccumulator() makes evictable.
inline constexpr AggKind kExactKinds[] = {
    AggKind::kCount,  AggKind::kSum,    AggKind::kMin,
    AggKind::kMax,    AggKind::kAvg,    AggKind::kStddev,
    AggKind::kMedian, AggKind::kCountDistinct, AggKind::kFirst,
    AggKind::kLast};

/// NULL matches only NULL; anything else compares numerically.
inline void ExpectSameResult(const Value& got, const Value& want,
                             const std::string& where) {
  ASSERT_EQ(got.is_null(), want.is_null()) << where;
  if (want.is_null()) return;
  ASSERT_NEAR(got.ToDouble(), want.ToDouble(),
              1e-9 * std::max(1.0, std::abs(want.ToDouble())))
      << where;
}

/// kUniform: 0..999. kTies: a 4-value domain with NULLs, so ties are
/// everywhere. kRuns: long rising and falling runs, with NULLs and
/// repeats (a monotonic deque's best and worst cases). kDisordered:
/// kUniform's values, at timestamps that `JitterTs` sets back inside a
/// time window, so tuples arrive out of ts order.
enum class Shape { kUniform, kTies, kRuns, kDisordered };
inline constexpr Shape kShapes[] = {Shape::kUniform, Shape::kTies,
                                    Shape::kRuns, Shape::kDisordered};

inline const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kUniform:
      return "uniform";
    case Shape::kTies:
      return "ties";
    case Shape::kRuns:
      return "runs";
    case Shape::kDisordered:
      return "disordered";
  }
  return "?";
}

class ValueSource {
 public:
  ValueSource(Shape shape, uint64_t seed) : shape_(shape), rng_(seed) {}

  Value Next() {
    ++i_;
    switch (shape_) {
      case Shape::kUniform:
      case Shape::kDisordered:
        return Value(static_cast<int64_t>(rng_.Uniform(1000)));
      case Shape::kTies:
        if (rng_.Uniform(6) == 0) return Value::Null();
        return Value(static_cast<int64_t>(rng_.Uniform(4)));
      case Shape::kRuns:
        if (rng_.Uniform(10) == 0) return Value::Null();
        run_ += (i_ / 120) % 2 == 0 ? static_cast<int64_t>(rng_.Uniform(3))
                                    : -static_cast<int64_t>(rng_.Uniform(3));
        return Value(run_);
    }
    return Value::Null();
  }

 private:
  Shape shape_;
  Rng rng_;
  int64_t i_ = 0;
  int64_t run_ = 0;
};

/// The timestamp of a tuple generated at `clock`, the largest so far.
/// kDisordered sets one in three back by 1 to size - 1, so it lands
/// inside a `[range size]` window whose clock is at most `clock`, behind
/// newer tuples; every other shape keeps `clock`.
inline int64_t JitterTs(Shape shape, int64_t clock, int64_t size, Rng& rng) {
  if (shape != Shape::kDisordered || size < 2 || rng.Uniform(3) != 0) {
    return clock;
  }
  return clock - 1 - static_cast<int64_t>(rng.Uniform(size - 1));
}

/// The oracle: a fresh NewAccumulator() folded over `values`.
template <typename Container>
Value FreshFold(AggKind kind, const Container& values) {
  auto acc = AggregateFunction::Make(kind, 0.5)->NewAccumulator();
  for (const Value& v : values) acc->Add(v);
  return acc->Result();
}

inline bool Evicts(AggKind kind) {
  return AggregateFunction::Make(kind, 0.5)->NewSlidingAccumulator()
      ->invertible();
}

}  // namespace sliding_oracle
}  // namespace sqp

#endif  // SQP_TESTS_SLIDING_ORACLE_H_
