#ifndef SQP_WINDOW_COUNT_WINDOW_H_
#define SQP_WINDOW_COUNT_WINDOW_H_

#include <optional>

#include "common/fifo_log.h"
#include "common/tuple.h"

namespace sqp {

/// Materialized contents of a count-based sliding window [ROWS N]:
/// the most recent N tuples.
class CountWindowBuffer {
 public:
  explicit CountWindowBuffer(size_t capacity) : capacity_(capacity) {}

  /// Inserts a tuple; returns the evicted tuple once the window is full.
  std::optional<TupleRef> Insert(TupleRef t);

  const FifoLog<TupleRef>& contents() const { return buf_; }
  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  size_t capacity() const { return capacity_; }
  bool full() const { return buf_.size() == capacity_; }

  /// Total bytes of retained tuples, summed when asked.
  size_t MemoryBytes() const { return TupleBytes(buf_); }

 private:
  size_t capacity_;
  FifoLog<TupleRef> buf_;
};

}  // namespace sqp

#endif  // SQP_WINDOW_COUNT_WINDOW_H_
