#include "window/window_buffer.h"

#include <algorithm>
#include <cassert>

namespace sqp {

WindowBuffer::WindowBuffer(const WindowSpec& spec, bool keep_log,
                           std::vector<int> key_cols, bool indexed)
    : kind_(spec.kind),
      logs_(keep_log || spec.kind != WindowKind::kTimeLandmark),
      indexed_(indexed),
      size_(spec.size),
      start_(spec.start),
      key_cols_(std::move(key_cols)) {
  assert(spec.Validate().ok() && spec.slide == 0 &&
         kind_ != WindowKind::kTimeTumbling &&
         kind_ != WindowKind::kPunctuation);
}

bool WindowBuffer::Insert(const TupleRef& t, std::vector<TupleRef>* expired) {
  if (kind_ == WindowKind::kTimeSliding) {
    now_ = std::max(now_, t->ts());
    Expire(expired);
  }
  // Late for a time window, or before a landmark's start.
  if (t->ts() < ExpiryBound()) {
    if (expired != nullptr) expired->push_back(t);
    return false;
  }
  if (kind_ == WindowKind::kTimeLandmark) admitted_bytes_ += t->MemoryBytes();
  if (logs_) Place(log_, t);
  if (kind_ == WindowKind::kCountSliding &&
      log_.size() > static_cast<size_t>(size_)) {
    PopFront(expired);
  }
  // Indexed after the expiry, so a new key can reuse the entry an
  // expired key just left.
  if (indexed_) Place(index_.Insert(KeyView(*t, key_cols_)).first->value, t);
  return true;
}

void WindowBuffer::AdvanceTo(int64_t ts, std::vector<TupleRef>* expired) {
  if (kind_ != WindowKind::kTimeSliding) return;
  now_ = std::max(now_, ts);
  Expire(expired);
}

int64_t WindowBuffer::ExpiryBound() const {
  if (kind_ == WindowKind::kCountSliding) return INT64_MIN;
  if (kind_ != WindowKind::kTimeSliding) return start_;
  return now_ < INT64_MIN + size_ ? INT64_MIN : now_ - size_ + 1;
}

void WindowBuffer::Expire(std::vector<TupleRef>* expired) {
  const int64_t bound = ExpiryBound();
  while (!log_.empty() && log_.front()->ts() < bound) PopFront(expired);
}

void WindowBuffer::PopFront(std::vector<TupleRef>* expired) {
  if (indexed_) {
    // The window's oldest tuple is the oldest of its key.
    Index::Entry* entry = index_.Find(KeyView(*log_.front(), key_cols_));
    assert(entry != nullptr && entry->value.front() == log_.front());
    std::vector<TupleRef>& held = entry->value;
    held.erase(held.begin());
    // An emptied entry stays in the table for the next new key, so the
    // index never holds more entries than the most keys it ever held.
    if (held.empty()) index_.Erase(entry);
  }
  if (expired != nullptr) expired->push_back(std::move(log_.front()));
  log_.pop_front();
}

size_t WindowBuffer::MemoryBytes() const {
  size_t bytes = kind_ == WindowKind::kTimeLandmark
                     ? admitted_bytes_ + log_.capacity_bytes()
                     : TupleBytes(log_);
  if (!indexed_) return bytes;
  // A sliding window's index shares its tuples: one reference each (a
  // landmark's is charged per entry only). Then the bucket overhead.
  if (kind_ != WindowKind::kTimeLandmark) {
    bytes += log_.size() * sizeof(TupleRef);
  }
  return bytes + index_.retained().size() * 48;
}

void WindowBuffer::Clear() {
  log_.clear();
  // A dead entry must be empty when the next key takes it.
  for (auto& entry : index_) entry.value.clear();
  index_.Clear();
  now_ = INT64_MIN;
  admitted_bytes_ = 0;
}

void WindowBuffer::Save(dur::BufWriter& w, const SaveEach& each) const {
  w.U8(static_cast<uint8_t>(kind_));
  if (kind_ == WindowKind::kTimeSliding) w.I64(now_);
  auto save = [&](const TupleRef& t) {
    w.Tup(*t);
    if (each) each(w, t);
  };
  if (logs_) {
    w.U32(static_cast<uint32_t>(log_.size()));
    for (const TupleRef& t : log_) save(t);
    return;
  }
  // Only the index holds this landmark window: save it key by key, as a
  // probe reads only each key's arrival order.
  size_t n = 0;
  for (const auto& entry : index_) n += entry.value.size();
  w.U32(static_cast<uint32_t>(n));
  for (const auto& entry : index_) {
    for (const TupleRef& t : entry.value) save(t);
  }
}

Status WindowBuffer::Restore(dur::BufReader& r, const RestoreEach& each) {
  Clear();
  uint8_t kind = 0;
  SQP_RETURN_NOT_OK(r.U8(&kind));
  if (kind != static_cast<uint8_t>(kind_)) {
    return Status::Internal("window: checkpoint window kind mismatch");
  }
  int64_t now = INT64_MIN;  // A clock that never moved.
  if (kind_ == WindowKind::kTimeSliding) SQP_RETURN_NOT_OK(r.I64(&now));
  if (now != INT64_MIN && now < INT64_MIN + size_) {
    return Status::Internal("window: checkpoint clock out of range");
  }
  uint32_t n = 0;
  SQP_RETURN_NOT_OK(r.U32(&n));
  // Re-inserting what was saved, in order, rebuilds the window exactly:
  // nothing may leave on the way, nor when the clock is put back.
  std::vector<TupleRef> expired;
  for (uint32_t i = 0; i < n && expired.empty(); ++i) {
    TupleRef t;
    SQP_RETURN_NOT_OK(r.Tup(&t));
    for (int c : key_cols_) {
      if (static_cast<size_t>(c) >= t->arity()) {
        return Status::Internal("window: checkpoint tuple too narrow");
      }
    }
    if (Insert(t, &expired) && each) SQP_RETURN_NOT_OK(each(r, t));
  }
  AdvanceTo(now, &expired);
  if (!expired.empty()) {
    return Status::Internal("window: checkpoint tuple outside window");
  }
  return Status::OK();
}

}  // namespace sqp
