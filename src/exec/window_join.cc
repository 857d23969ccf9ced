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

const FifoLog<TupleRef>& BinaryWindowJoinOp::Side::contents() const {
  if (time_buf != nullptr) return time_buf->contents();
  if (count_buf != nullptr) return count_buf->contents();
  return landmark;
}

void BinaryWindowJoinOp::Side::Reset() {
  time_buf.reset();
  count_buf.reset();
  landmark.clear();
  landmark_bytes = 0;
  index.clear();
  spare_entries.clear();
  assert(window.Validate().ok() && window.slide == 0);
  if (window.kind == WindowKind::kTimeSliding) {
    time_buf = std::make_unique<TimeWindowBuffer>(window.size);
  } else if (window.kind == WindowKind::kCountSliding) {
    count_buf =
        std::make_unique<CountWindowBuffer>(static_cast<size_t>(window.size));
  } else {
    assert(window.kind == WindowKind::kTimeLandmark &&
           "window join supports sliding and landmark windows");
  }
}

BinaryWindowJoinOp::BinaryWindowJoinOp(Options options, std::string name)
    : Operator(std::move(name)),
      options_(std::move(options)),
      left_outer_(options_.left_outer),
      right_arity_(options_.right_arity) {
  sides_[0].key_cols = options_.left_cols;
  sides_[1].key_cols = options_.right_cols;
  sides_[0].window = options_.left_window;
  sides_[1].window = options_.right_window;
  sides_[0].strategy = options_.left_strategy;
  sides_[1].strategy = options_.right_strategy;
  assert(!left_outer_ || right_arity_ > 0);
  for (int s = 0; s < 2; ++s) {
    Side& side = sides_[s];
    side.logs_landmark =
        side.strategy == JoinStrategy::kNestedLoop || (s == 0 && left_outer_);
    side.Reset();
  }
}

void BinaryWindowJoinOp::EmitJoined(const Tuple& left, const Tuple& right) {
  ++jstats_.results;
  if (left_outer_) left_matched_.insert(&left);
  std::vector<Value> row;
  row.reserve(left.arity() + right.arity());
  row.insert(row.end(), left.values().begin(), left.values().end());
  row.insert(row.end(), right.values().begin(), right.values().end());
  Emit(Element(MakeTuple(std::max(left.ts(), right.ts()), std::move(row))));
}

void BinaryWindowJoinOp::EmitUnmatchedLeft(const Tuple& left, int64_t ts) {
  ++jstats_.unmatched_left;
  std::vector<Value> row;
  row.reserve(left.arity() + right_arity_);
  row.insert(row.end(), left.values().begin(), left.values().end());
  for (size_t i = 0; i < right_arity_; ++i) row.push_back(Value::Null());
  Emit(Element(MakeTuple(ts, std::move(row))));
}

uint64_t BinaryWindowJoinOp::Probe(const Side& probe_side, const KeyView& key,
                                   const Tuple& t, bool t_is_left) {
  uint64_t matches = 0;
  if (probe_side.strategy == JoinStrategy::kHash) {
    ++jstats_.hash_probes;
    auto it = probe_side.index.find(key);
    if (it == probe_side.index.end()) return 0;
    // Lazy deletion: skip entries no longer in the window.
    int64_t bound = probe_side.time_buf != nullptr
                        ? probe_side.time_buf->now() - probe_side.window.size
                        : INT64_MIN;
    for (const TupleRef& match : it->second) {
      if (probe_side.time_buf != nullptr && match->ts() <= bound) continue;
      ++matches;
      if (t_is_left) {
        EmitJoined(t, *match);
      } else {
        EmitJoined(*match, t);
      }
    }
    return matches;
  }
  // Nested loop: scan the window buffer, comparing each candidate's key
  // columns directly against the already-extracted probe key — no
  // per-candidate key construction.
  const std::vector<int>& cols = probe_side.key_cols;
  for (const TupleRef& match : probe_side.contents()) {
    ++jstats_.nl_comparisons;
    bool eq = cols.size() == key.size();
    for (size_t c = 0; eq && c < cols.size(); ++c) {
      eq = match->at(static_cast<size_t>(cols[c])) == key.part(c);
    }
    if (eq) {
      ++matches;
      if (t_is_left) {
        EmitJoined(t, *match);
      } else {
        EmitJoined(*match, t);
      }
    }
  }
  return matches;
}

void BinaryWindowJoinOp::RemoveFromIndex(Side& side) {
  if (side.strategy != JoinStrategy::kHash) return;
  for (const TupleRef& t : expired_) {
    KeyView key(*t, side.key_cols);
    auto it = side.index.find(key);
    if (it == side.index.end()) continue;
    auto& vec = it->second;
    auto vit = std::find(vec.begin(), vec.end(), t);
    if (vit != vec.end()) vec.erase(vit);
    // Keep the emptied entry for the next new key. An entry is built
    // only when no spare is left, so live plus spare entries never
    // exceed the most keys the index ever held.
    if (vec.empty()) side.spare_entries.push_back(side.index.extract(it));
  }
}

void BinaryWindowJoinOp::HandleExpired(int side) {
  if (expired_.empty()) return;
  RemoveFromIndex(sides_[side]);
  if (side == 0 && left_outer_) {
    // Outer semantics: a left tuple leaving the window unmatched will
    // never match (right arrivals only probe the live window).
    for (const TupleRef& t : expired_) {
      auto it = left_matched_.find(t.get());
      if (it != left_matched_.end()) {
        left_matched_.erase(it);
      } else {
        EmitUnmatchedLeft(*t, sides_[0].time_buf != nullptr
                                  ? sides_[0].time_buf->now()
                                  : t->ts());
      }
    }
  }
  expired_.clear();
}

void BinaryWindowJoinOp::Side::Append(const TupleRef& t,
                                      std::vector<TupleRef>* expired) {
  if (time_buf != nullptr) {
    time_buf->Insert(t, expired);
  } else if (count_buf != nullptr) {
    if (auto evicted = count_buf->Insert(t)) {
      expired->push_back(std::move(*evicted));
    }
  } else if (t->ts() >= window.start) {
    landmark_bytes += t->MemoryBytes();
    if (logs_landmark) landmark.push_back(t);
  } else {
    expired->push_back(t);
  }
}

void BinaryWindowJoinOp::Insert(Side& side, const TupleRef& t) {
  side.Append(t, &expired_);
  // A tuple already older than the window expires on arrival, after
  // everything before it; it never enters the index. Expiring before
  // indexing lets a new key reuse the entry an expired key just left.
  const bool late = !expired_.empty() && expired_.back() == t;
  HandleExpired(static_cast<int>(&side - &sides_[0]));
  if (side.strategy == JoinStrategy::kHash && !late) side.AddToIndex(t);
}

void BinaryWindowJoinOp::Side::AddToIndex(const TupleRef& t) {
  KeyView key(*t, key_cols);
  auto it = index.find(key);
  if (it == index.end()) {
    it = InsertReusing(index, spare_entries, key,
                       [] { return std::vector<TupleRef>{}; });
  }
  it->second.push_back(t);
}

void BinaryWindowJoinOp::Push(const Element& e, int port) {
  CountIn(e);
  if (e.is_punctuation()) {
    // Advance both windows so stale state is purged on quiet streams.
    if (!e.punctuation().has_key) {
      for (int s = 0; s < 2; ++s) {
        if (sides_[s].time_buf != nullptr) {
          sides_[s].time_buf->AdvanceTo(e.punctuation().ts, &expired_);
          HandleExpired(s);
        }
      }
    }
    Emit(e);
    return;
  }

  int me = port == 0 ? 0 : 1;
  int other = 1 - me;
  const TupleRef& t = e.tuple();
  KeyView key(*t, sides_[me].key_cols);

  // KNV03 order: invalidate the opposite window up to the arriving
  // tuple's time, probe it, then insert into our own window (which also
  // invalidates our side).
  if (sides_[other].time_buf != nullptr) {
    sides_[other].time_buf->AdvanceTo(t->ts(), &expired_);
    HandleExpired(other);
  }
  Probe(sides_[other], key, *t, /*t_is_left=*/me == 0);
  Insert(sides_[me], t);
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
  for (const Side& s : sides_) {
    if (s.window.kind == WindowKind::kCountSliding) {
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
  size_t bytes = sizeof(*this);
  for (const Side& s : sides_) {
    if (s.time_buf == nullptr && s.count_buf == nullptr) {
      // Landmark: the tuples once, and the log's references if any.
      bytes += s.landmark_bytes + s.landmark.capacity_bytes();
    } else {
      bytes += TupleBytes(s.contents());
      // A hash index shares the window's tuples: one reference each.
      if (s.strategy == JoinStrategy::kHash) {
        bytes += s.contents().size() * sizeof(TupleRef);
      }
    }
    // Bucket overhead, spare entries included.
    bytes += (s.index.size() + s.spare_entries.size()) * 48;
  }
  bytes += left_matched_.size() * 16;
  return bytes;
}

namespace {
// Leads the saved state. The retired unwindowed join's layout began with
// its flush count (0-2) as an I64, so it never parses as this one.
constexpr uint32_t kStateTag = 0x314e4a57;  // "WJN1"
}  // namespace

void BinaryWindowJoinOp::SaveState(dur::BufWriter& w) const {
  w.U32(kStateTag);
  w.I64(flushes_);
  for (int s = 0; s < 2; ++s) {
    const Side& side = sides_[s];
    w.U8(static_cast<uint8_t>(side.window.kind));
    if (side.time_buf != nullptr) w.I64(side.time_buf->now());
    if (side.time_buf == nullptr && side.count_buf == nullptr &&
        !side.logs_landmark) {
      // Only the index holds this landmark side: save it key by key, as
      // a hash probe reads only each key's arrival order.
      size_t n = 0;
      for (const auto& entry : side.index) n += entry.second.size();
      w.U32(static_cast<uint32_t>(n));
      for (const auto& entry : side.index) {
        for (const TupleRef& t : entry.second) w.Tup(*t);
      }
      continue;
    }
    const FifoLog<TupleRef>& contents = side.contents();
    w.U32(static_cast<uint32_t>(contents.size()));
    for (const TupleRef& t : contents) {
      w.Tup(*t);
      if (s == 0 && left_outer_) w.U8(left_matched_.count(t.get()) != 0);
    }
  }
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
  for (int s = 0; s < 2; ++s) {
    Side& side = sides_[s];
    side.Reset();
    uint8_t kind = 0;
    SQP_RETURN_NOT_OK(r.U8(&kind));
    if (kind != static_cast<uint8_t>(side.window.kind)) {
      return Status::Internal("window join: checkpoint window kind mismatch");
    }
    int64_t now = INT64_MIN;
    if (side.time_buf != nullptr) SQP_RETURN_NOT_OK(r.I64(&now));
    uint32_t n = 0;
    SQP_RETURN_NOT_OK(r.U32(&n));
    for (uint32_t i = 0; i < n; ++i) {
      TupleRef t;
      SQP_RETURN_NOT_OK(r.Tup(&t));
      uint8_t matched = 0;
      if (s == 0 && left_outer_) SQP_RETURN_NOT_OK(r.U8(&matched));
      // Re-appending in the saved order rebuilds the window exactly:
      // what was saved was inside it, so nothing may expire on the way.
      side.Append(t, &expired_);
      if (!expired_.empty()) {
        expired_.clear();
        return Status::Internal("window join: checkpoint tuple outside window");
      }
      if (matched != 0) left_matched_.insert(t.get());
      if (side.strategy == JoinStrategy::kHash) side.AddToIndex(t);
    }
    // INT64_MIN: this side's clock never moved.
    if (side.time_buf != nullptr && now != INT64_MIN) {
      if (now < INT64_MIN + side.window.size) {
        return Status::Internal("window join: checkpoint clock out of range");
      }
      side.time_buf->AdvanceTo(now, &expired_);
      if (!expired_.empty()) {
        expired_.clear();
        return Status::Internal("window join: checkpoint clock past window");
      }
    }
  }
  return Status::OK();
}

}  // namespace sqp
