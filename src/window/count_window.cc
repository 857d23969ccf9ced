#include "window/count_window.h"

namespace sqp {

std::optional<TupleRef> CountWindowBuffer::Insert(TupleRef t) {
  buf_.push_back(std::move(t));
  if (buf_.size() > capacity_) {
    TupleRef evicted = std::move(buf_.front());
    buf_.pop_front();
    return evicted;
  }
  return std::nullopt;
}

}  // namespace sqp
