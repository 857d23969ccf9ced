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

}  // namespace sqp

#endif  // SQP_WINDOW_TIME_WINDOW_H_
