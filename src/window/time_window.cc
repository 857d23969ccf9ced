#include "window/time_window.h"

#include <algorithm>

namespace sqp {

void TimeWindowBuffer::Insert(TupleRef t, std::vector<TupleRef>* expired) {
  now_ = std::max(now_, t->ts());
  buf_.push_back(std::move(t));
  Expire(expired);
}

void TimeWindowBuffer::AdvanceTo(int64_t now, std::vector<TupleRef>* expired) {
  now_ = std::max(now_, now);
  Expire(expired);
}

void TimeWindowBuffer::Expire(std::vector<TupleRef>* expired) {
  // Window covers (now - size, now]; drop anything at or below the bound.
  int64_t bound = now_ - size_;
  while (!buf_.empty() && buf_.front()->ts() <= bound) {
    if (expired != nullptr) expired->push_back(std::move(buf_.front()));
    buf_.pop_front();
  }
}

}  // namespace sqp
