#ifndef SQP_WINDOW_WINDOW_SPEC_H_
#define SQP_WINDOW_WINDOW_SPEC_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace sqp {

/// The window taxonomy of slides 26-28.
enum class WindowKind {
  /// [RANGE T]: tuples with ts in (now - T, now]. Slides continuously.
  kTimeSliding,
  /// Shifting window, e.g. `group by time/60`: disjoint buckets of width T.
  kTimeTumbling,
  /// Agglomerative (landmark): from a fixed start time to now.
  kTimeLandmark,
  /// [ROWS N]: the last N tuples.
  kCountSliding,
  /// Scope delimited by punctuations [TMSF03]; data-dependent length.
  kPunctuation,
};

const char* WindowKindName(WindowKind kind);

/// Declarative window specification, attached to a stream reference in a
/// query (`Traffic [window T]`, slide 30).
struct WindowSpec {
  WindowKind kind = WindowKind::kTimeSliding;
  /// Width in ordering-attribute units (time kinds) or tuples (count kinds).
  /// Ignored for landmark/punctuation windows.
  int64_t size = 0;
  /// Landmark start time (kTimeLandmark only).
  int64_t start = 0;
  /// Hop of a time-sliding window evaluated every `slide` units
  /// (`[RANGE T SLIDE S]`, 0 < S <= T), or 0 when it slides with every
  /// tuple. Only GroupByAggregateOp reads it.
  int64_t slide = 0;

  static WindowSpec TimeSliding(int64_t t, int64_t slide = 0) {
    return {WindowKind::kTimeSliding, t, 0, slide};
  }
  static WindowSpec TimeTumbling(int64_t t) {
    return {WindowKind::kTimeTumbling, t, 0};
  }
  static WindowSpec Landmark(int64_t start = 0) {
    return {WindowKind::kTimeLandmark, 0, start};
  }
  static WindowSpec CountSliding(int64_t n) {
    return {WindowKind::kCountSliding, n, 0};
  }
  static WindowSpec Punctuated() { return {WindowKind::kPunctuation, 0, 0}; }

  /// Validates parameter ranges (positive sizes where required).
  Status Validate() const;

  std::string ToString() const;

  bool operator==(const WindowSpec& other) const {
    return kind == other.kind && size == other.size && start == other.start &&
           slide == other.slide;
  }
};

}  // namespace sqp

#endif  // SQP_WINDOW_WINDOW_SPEC_H_
