#include "window/window_buffer.h"

#include <algorithm>
#include <cassert>

namespace sqp {

WindowBuffer::WindowBuffer(const WindowSpec& spec, bool keep_log)
    : kind_(spec.kind),
      logs_(keep_log || spec.kind != WindowKind::kTimeLandmark),
      size_(spec.size),
      start_(spec.start) {
  assert(spec.Validate().ok() && spec.slide == 0 &&
         kind_ != WindowKind::kTimeTumbling &&
         kind_ != WindowKind::kPunctuation);
}

bool WindowBuffer::Insert(const TupleRef& t, std::vector<TupleRef>* expired) {
  if (kind_ == WindowKind::kTimeSliding) {
    now_ = std::max(now_, t->ts());
    Expire(expired);
    if (t->ts() < ExpiryBound()) {  // Late: it leaves on arrival.
      if (expired != nullptr) expired->push_back(t);
      return false;
    }
    log_.push_back(t);
    return true;
  }
  if (kind_ == WindowKind::kCountSliding) {
    log_.push_back(t);
    if (log_.size() > static_cast<size_t>(size_)) {
      if (expired != nullptr) expired->push_back(std::move(log_.front()));
      log_.pop_front();
    }
    return true;
  }
  if (t->ts() < start_) {
    if (expired != nullptr) expired->push_back(t);
    return false;
  }
  admitted_bytes_ += t->MemoryBytes();
  if (logs_) log_.push_back(t);
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
  while (!log_.empty() && log_.front()->ts() < bound) {
    if (expired != nullptr) expired->push_back(std::move(log_.front()));
    log_.pop_front();
  }
}

size_t WindowBuffer::MemoryBytes() const {
  if (kind_ != WindowKind::kTimeLandmark) return TupleBytes(log_);
  return admitted_bytes_ + log_.capacity_bytes();
}

void WindowBuffer::Clear() {
  log_.clear();
  now_ = INT64_MIN;
  admitted_bytes_ = 0;
}

void WindowBuffer::SaveHeader(dur::BufWriter& w, size_t n) const {
  w.U8(static_cast<uint8_t>(kind_));
  if (kind_ == WindowKind::kTimeSliding) w.I64(now_);
  w.U32(static_cast<uint32_t>(n));
}

void WindowBuffer::Save(dur::BufWriter& w, const SaveEach& each) const {
  SaveHeader(w, log_.size());
  for (const TupleRef& t : log_) {
    w.Tup(*t);
    if (each) each(w, t);
  }
}

void WindowBuffer::Save(dur::BufWriter& w,
                        const std::vector<TupleRef>& held) const {
  SaveHeader(w, held.size());
  for (const TupleRef& t : held) w.Tup(*t);
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
    if (Insert(t, &expired) && each) SQP_RETURN_NOT_OK(each(r, t));
  }
  AdvanceTo(now, &expired);
  if (!expired.empty()) {
    return Status::Internal("window: checkpoint tuple outside window");
  }
  return Status::OK();
}

}  // namespace sqp
