#include "exec/window_join.h"

#include <algorithm>
#include <cassert>

namespace sqp {

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kNestedLoop:
      return "nested-loop";
    case JoinStrategy::kHash:
      return "hash";
  }
  return "?";
}

BinaryWindowJoinOp::Options BinaryWindowJoinOp::Options::Unwindowed(
    std::vector<int> left_cols, std::vector<int> right_cols) {
  return {.left_cols = std::move(left_cols),
          .right_cols = std::move(right_cols),
          .left_window = WindowSpec::Landmark(INT64_MIN),
          .right_window = WindowSpec::Landmark(INT64_MIN)};
}

namespace {
WindowBuffer SideWindow(const WindowSpec& window, std::vector<int> key_cols,
                        JoinStrategy strategy, bool keep_log) {
  return WindowBuffer(window,
                      keep_log || strategy == JoinStrategy::kNestedLoop,
                      std::move(key_cols), strategy == JoinStrategy::kHash);
}
}  // namespace

BinaryWindowJoinOp::BinaryWindowJoinOp(Options options, std::string name)
    : Operator(std::move(name)),
      options_(std::move(options)),
      left_outer_(options_.left_outer),
      right_arity_(options_.right_arity),
      sides_{SideWindow(options_.left_window, options_.left_cols,
                        options_.left_strategy, left_outer_),
             SideWindow(options_.right_window, options_.right_cols,
                        options_.right_strategy, false)} {
  assert(!left_outer_ || right_arity_ > 0);
}

void BinaryWindowJoinOp::EmitJoined(const Tuple& left, const Tuple& right) {
  ++jstats_.results;
  if (left_outer_) left_matched_.insert(&left);
  Emit(Element(JoinedRow(left, right)));
}

void BinaryWindowJoinOp::EmitUnmatchedLeft(const Tuple& left, int64_t ts) {
  ++jstats_.unmatched_left;
  // The right half stays null.
  Emit(Element(MakeTuple(ts, left.arity() + right_arity_,
                         [&](std::span<Value> row) {
                           std::ranges::copy(left.values(), row.begin());
                         })));
}

void BinaryWindowJoinOp::HandleExpired(int side) {
  if (expired_.empty()) return;
  if (side == 0 && left_outer_) {
    // Outer semantics: a left tuple leaving the window unmatched will
    // never match (right arrivals only probe the live window).
    for (const TupleRef& t : expired_) {
      auto it = left_matched_.find(t.get());
      if (it != left_matched_.end()) {
        left_matched_.erase(it);
      } else {
        // A time window pads at its clock; the others have none.
        EmitUnmatchedLeft(*t, std::max(sides_[0].now(), t->ts()));
      }
    }
  }
  expired_.clear();
}

void BinaryWindowJoinOp::Push(const Element& e, int port) {
  CountIn(e);
  if (e.is_punctuation()) {
    // Advance both windows so stale state is purged on quiet streams.
    if (!e.punctuation().has_key) {
      for (int s = 0; s < 2; ++s) {
        sides_[s].AdvanceTo(e.punctuation().ts, &expired_);
        HandleExpired(s);
      }
    }
    Emit(e);
    return;
  }

  int me = port == 0 ? 0 : 1;
  int other = 1 - me;
  const TupleRef& t = e.tuple();

  // KNV03 order: invalidate the opposite window up to the arriving
  // tuple's time, probe it, then insert into our own window (which also
  // invalidates our side). A tuple already outside its window leaves on
  // arrival, after everything before it, and is never indexed.
  sides_[other].AdvanceTo(t->ts(), &expired_);
  HandleExpired(other);
  sides_[other].ForEachMatch(KeyView(*t, sides_[me].key_cols()), &jstats_,
                             [&](const TupleRef& match) {
                               if (me == 0) {
                                 EmitJoined(*t, *match);
                               } else {
                                 EmitJoined(*match, *t);
                               }
                             });
  sides_[me].Insert(t, &expired_);
  HandleExpired(me);
}

void BinaryWindowJoinOp::Flush() {
  if (++flushes_ < 2) return;
  if (left_outer_ && flushes_ == 2) {
    // End of stream: everything still in the left window that never
    // matched is reported unmatched, once (a join restored from a
    // post-flush checkpoint is flushed again).
    for (const TupleRef& t : sides_[0].contents()) {
      if (left_matched_.count(t.get()) == 0) EmitUnmatchedLeft(*t, t->ts());
    }
  }
  Operator::Flush();
}

bool BinaryWindowJoinOp::CanShard(std::string* why) const {
  for (const WindowBuffer& s : sides_) {
    if (s.kind() == WindowKind::kCountSliding) {
      if (why != nullptr) *why = "count window is not partitionable";
      return false;
    }
  }
  if (left_outer_) {
    if (why != nullptr) *why = "outer join pad timestamps are shard-local";
    return false;
  }
  return true;
}

size_t BinaryWindowJoinOp::StateBytes() const {
  return sizeof(*this) + sides_[0].MemoryBytes() + sides_[1].MemoryBytes() +
         left_matched_.size() * 16;
}

namespace {
// Leads the saved state. The retired unwindowed join's layout began with
// its flush count (0-2) as an I64, so it never parses as this one.
constexpr uint32_t kStateTag = 0x314e4a57;  // "WJN1"
}  // namespace

void BinaryWindowJoinOp::SaveState(dur::BufWriter& w) const {
  w.U32(kStateTag);
  w.I64(flushes_);
  WindowBuffer::SaveEach matched_flag;
  if (left_outer_) {
    matched_flag = [this](dur::BufWriter& out, const TupleRef& t) {
      out.U8(left_matched_.count(t.get()) != 0);
    };
  }
  sides_[0].Save(w, matched_flag);
  sides_[1].Save(w);
}

Status BinaryWindowJoinOp::RestoreState(dur::BufReader& r) {
  uint32_t tag = 0;
  SQP_RETURN_NOT_OK(r.U32(&tag));
  if (tag != kStateTag) {
    return Status::Internal("window join: unknown checkpoint layout");
  }
  int64_t flushes = 0;
  SQP_RETURN_NOT_OK(r.I64(&flushes));
  flushes_ = static_cast<int>(flushes);
  left_matched_.clear();
  expired_.clear();
  WindowBuffer::RestoreEach matched_flag;
  if (left_outer_) {
    matched_flag = [this](dur::BufReader& in, const TupleRef& t) -> Status {
      uint8_t matched = 0;
      SQP_RETURN_NOT_OK(in.U8(&matched));
      if (matched != 0) left_matched_.insert(t.get());
      return Status::OK();
    };
  }
  SQP_RETURN_NOT_OK(sides_[0].Restore(r, matched_flag));
  return sides_[1].Restore(r);
}

}  // namespace sqp
