#ifndef SQP_AGG_AGGREGATE_FN_H_
#define SQP_AGG_AGGREGATE_FN_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "dur/codec.h"

namespace sqp {

/// Aggregate expressions supported by the engine (slide 34).
enum class AggKind {
  kCount,
  kSum,
  kMin,
  kMax,
  kAvg,
  kStddev,
  kMedian,         // holistic
  kCountDistinct,  // holistic
  kFirst,
  kLast,
  kBlend,  ///< Hancock's exponential blend: sig = a*x + (1-a)*sig (slide 8)
  /// Sketch-backed approximations of the holistic aggregates (slide 38:
  /// "use summary structures" when exact computation needs unbounded
  /// storage). Bounded state, mergeable.
  kApproxMedian,         ///< Greenwald-Khanna quantile summary.
  kApproxCountDistinct,  ///< HyperLogLog.
};

/// The classification that drives bounded-memory analysis [ABB+02]:
/// distributive and algebraic aggregates need O(1) state per group;
/// holistic ones need state proportional to the data; sketched ones
/// trade a bounded error for bounded state (slide 38).
enum class AggClass { kDistributive, kAlgebraic, kHolistic, kSketched };

AggClass ClassOf(AggKind kind);
const char* AggKindName(AggKind kind);
/// Parses "count", "sum", "count_distinct"/"count(distinct"... style names.
Result<AggKind> ParseAggKind(const std::string& name);

/// Incremental aggregate state for one group.
///
/// `Remove` supports sliding-window maintenance and is only available when
/// `invertible()`. What it may remove depends on the factory:
/// - `NewAccumulator()`: count/sum/avg/stddev are invertible and `Remove`
///   takes back any value added earlier. Median is invertible under the
///   FIFO contract below; every other kind is not.
/// - `NewSlidingAccumulator()`: every exact kind is invertible under a
///   FIFO contract — `Remove(v)` evicts the *oldest* value still held,
///   and `v` must equal it. Oldest is in the window's order, which for a
///   time window is ts order: a window operator refolds its accumulators
///   when a tuple arrives out of order, so values are always added in
///   that order. Blend and the sketches are not invertible; a window
///   operator rebuilds those from its buffer on expiry.
class Accumulator {
 public:
  virtual ~Accumulator() = default;

  virtual AggKind kind() const = 0;

  virtual void Add(const Value& v) = 0;

  /// Inverse of Add. Precondition: invertible() and v was previously
  /// added (for a sliding accumulator: v is the oldest value held).
  virtual void Remove(const Value& v);

  virtual bool invertible() const { return false; }

  /// Current aggregate value (Null when no input yet, except count = 0).
  virtual Value Result() const = 0;

  /// Returns the accumulator to its freshly built state, keeping any
  /// buffer capacity, so an operator can reuse it for a new group
  /// instead of building another: afterwards it behaves exactly like a
  /// new accumulator from the same factory.
  virtual void Reset() = 0;

  /// Merges another accumulator of the same kind into this one — the
  /// high-level step of two-level partial aggregation (slide 37).
  /// Precondition: both come from `NewAccumulator()`.
  virtual void Merge(const Accumulator& other) = 0;

  /// Approximate state footprint.
  virtual size_t MemoryBytes() const = 0;

  virtual uint64_t count() const { return n_; }

  /// Serializes the accumulator state for a durability checkpoint
  /// (dur::Checkpoint). Every `NewAccumulator()` form serializes; the
  /// sliding min/max, first and count_distinct forms return false, and
  /// a window operator refolds them from its tuples.
  virtual bool SaveState(dur::BufWriter& w) const {
    (void)w;
    return false;
  }
  /// Inverse of SaveState, on a freshly built accumulator of the same
  /// configuration. Default: Unimplemented.
  virtual Status LoadState(dur::BufReader& r);

 protected:
  uint64_t n_ = 0;
};

/// Factory + metadata for one aggregate expression.
class AggregateFunction {
 public:
  /// Creates the function; `param` is the blend factor for kBlend.
  static Result<AggregateFunction> Make(AggKind kind, double param = 0.5);

  AggKind kind() const { return kind_; }
  AggClass agg_class() const { return ClassOf(kind_); }

  std::unique_ptr<Accumulator> NewAccumulator() const;

  /// An accumulator for a sliding window: values leave in the order they
  /// arrived, so `Remove` evicts the oldest one. Invertible for every
  /// exact kind (min/max keep a monotonic deque of candidates; first and
  /// count_distinct keep the values they still need); median, blend and
  /// the sketches get their `NewAccumulator()` form. The sliding min/max,
  /// first and count_distinct neither merge nor serialize, and their
  /// state grows with input that is never evicted: group-by, panes,
  /// landmark windows, partial aggregation and checkpoints use
  /// `NewAccumulator()`.
  std::unique_ptr<Accumulator> NewSlidingAccumulator() const;

 private:
  AggregateFunction(AggKind kind, double param)
      : kind_(kind), param_(param) {}

  AggKind kind_;
  double param_;
};

}  // namespace sqp

#endif  // SQP_AGG_AGGREGATE_FN_H_
