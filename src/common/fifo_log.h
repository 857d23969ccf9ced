#ifndef SQP_COMMON_FIFO_LOG_H_
#define SQP_COMMON_FIFO_LOG_H_

#include <cstddef>
#include <utility>
#include <vector>

namespace sqp {

/// Values in order, oldest first: the buffer behind windows and the
/// sliding accumulators. pop_front advances a head index and compacts
/// once half the vector is dead, so push_back and pop_front are O(1)
/// amortized, an empty log is just an empty vector, and a log at steady
/// size pushes and pops without touching the heap (clear keeps the
/// capacity). An insert before the tail costs its distance from it.
template <typename T>
class FifoLog {
 public:
  using const_iterator = typename std::vector<T>::const_iterator;

  bool empty() const { return head_ == items_.size(); }
  const T& front() const { return items_[head_]; }
  /// Mutable so a consumer can move the oldest value out before
  /// pop_front.
  T& front() { return items_[head_]; }
  const T& back() const { return items_.back(); }
  const_iterator begin() const {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  const_iterator end() const { return items_.end(); }
  size_t size() const { return items_.size() - head_; }
  size_t capacity_bytes() const { return items_.capacity() * sizeof(T); }

  void clear() {
    items_.clear();
    head_ = 0;
  }
  void reserve(size_t n) { items_.reserve(head_ + n); }
  void push_back(T v) { items_.push_back(std::move(v)); }
  /// Inserts `v` before `pos`, an iterator into this log.
  void insert(const_iterator pos, T v) { items_.insert(pos, std::move(v)); }
  void pop_back() { items_.pop_back(); }
  /// Drops the oldest value, releasing it at once (a moved-from or
  /// reset slot waits for compaction, not the value).
  void pop_front() {
    items_[head_] = T();
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= 16 && 2 * head_ >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<T> items_;
  size_t head_ = 0;
};

}  // namespace sqp

#endif  // SQP_COMMON_FIFO_LOG_H_
