#ifndef SQP_WINDOW_TIME_WINDOW_H_
#define SQP_WINDOW_TIME_WINDOW_H_

#include <cstdint>
#include <vector>

#include "common/fifo_log.h"
#include "common/tuple.h"

namespace sqp {

/// Materialized contents of a time-based sliding window [RANGE T]:
/// tuples whose timestamp is in (now - T, now].
///
/// The buffer assumes nondecreasing insertion timestamps (enforced by the
/// stream's ordering attribute), which makes expiration O(1) amortized —
/// the "invalidate all expired tuples" step of the KNV03 join (slide 32).
/// At a steady window size, inserts and expiries never allocate.
class TimeWindowBuffer {
 public:
  explicit TimeWindowBuffer(int64_t size) : size_(size) {}

  /// Inserts a tuple (its ts advances `now`), then expires old entries.
  /// Expired tuples are appended to `expired` when non-null.
  void Insert(TupleRef t, std::vector<TupleRef>* expired = nullptr);

  /// Advances time without inserting (e.g. on a punctuation).
  void AdvanceTo(int64_t now, std::vector<TupleRef>* expired = nullptr);

  const FifoLog<TupleRef>& contents() const { return buf_; }
  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  int64_t window_size() const { return size_; }
  int64_t now() const { return now_; }

  /// Total bytes of retained tuples (memory-limited join experiments),
  /// summed when asked so inserts and expiries never walk a tuple.
  size_t MemoryBytes() const { return TupleBytes(buf_); }

 private:
  void Expire(std::vector<TupleRef>* expired);

  int64_t size_;
  int64_t now_ = INT64_MIN;
  FifoLog<TupleRef> buf_;
};

/// Maps timestamps to disjoint tumbling buckets of width `size` — the
/// `time/60 as tb` shifting window of GSQL (slides 13, 37).
class TumblingAssigner {
 public:
  explicit TumblingAssigner(int64_t size) : size_(size) {}

  /// Bucket id containing `ts`.
  int64_t BucketOf(int64_t ts) const { return ts / size_; }
  /// First timestamp of bucket `b`.
  int64_t BucketStart(int64_t b) const { return b * size_; }
  /// One past the last timestamp of bucket `b`.
  int64_t BucketEnd(int64_t b) const { return (b + 1) * size_; }

  int64_t size() const { return size_; }

 private:
  int64_t size_;
};

}  // namespace sqp

#endif  // SQP_WINDOW_TIME_WINDOW_H_
