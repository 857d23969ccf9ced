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

void BinaryWindowJoinOp::Side::Reset() {
  buf.Clear();
  index.clear();
  spare_entries.clear();
}

BinaryWindowJoinOp::BinaryWindowJoinOp(Options options, std::string name)
    : Operator(std::move(name)),
      options_(std::move(options)),
      left_outer_(options_.left_outer),
      right_arity_(options_.right_arity),
      sides_{Side{.key_cols = options_.left_cols,
                  .strategy = options_.left_strategy,
                  .buf = WindowBuffer(options_.left_window,
                                      options_.left_strategy ==
                                              JoinStrategy::kNestedLoop ||
                                          left_outer_)},
             Side{.key_cols = options_.right_cols,
                  .strategy = options_.right_strategy,
                  .buf = WindowBuffer(options_.right_window,
                                      options_.right_strategy ==
                                          JoinStrategy::kNestedLoop)}} {
  assert(!left_outer_ || right_arity_ > 0);
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
    const int64_t bound = probe_side.buf.ExpiryBound();
    for (const TupleRef& match : it->second) {
      if (match->ts() < bound) continue;
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
  for (const TupleRef& match : probe_side.buf.contents()) {
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
        // A time window pads at its clock; the others have none.
        EmitUnmatchedLeft(*t, std::max(sides_[0].buf.now(), t->ts()));
      }
    }
  }
  expired_.clear();
}

void BinaryWindowJoinOp::Insert(Side& side, const TupleRef& t) {
  // A tuple already outside the window leaves on arrival, after
  // everything before it; it never enters the index. Expiring before
  // indexing lets a new key reuse the entry an expired key just left.
  const bool admitted = side.buf.Insert(t, &expired_);
  HandleExpired(static_cast<int>(&side - &sides_[0]));
  if (side.strategy == JoinStrategy::kHash && admitted) side.AddToIndex(t);
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
        sides_[s].buf.AdvanceTo(e.punctuation().ts, &expired_);
        HandleExpired(s);
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
  sides_[other].buf.AdvanceTo(t->ts(), &expired_);
  HandleExpired(other);
  Probe(sides_[other], key, *t, /*t_is_left=*/me == 0);
  Insert(sides_[me], t);
}

void BinaryWindowJoinOp::Flush() {
  if (++flushes_ < 2) return;
  if (left_outer_ && flushes_ == 2) {
    // End of stream: everything still in the left window that never
    // matched is reported unmatched, once (a join restored from a
    // post-flush checkpoint is flushed again).
    for (const TupleRef& t : sides_[0].buf.contents()) {
      if (left_matched_.count(t.get()) == 0) EmitUnmatchedLeft(*t, t->ts());
    }
  }
  Operator::Flush();
}

bool BinaryWindowJoinOp::CanShard(std::string* why) const {
  for (const Side& s : sides_) {
    if (s.buf.kind() == WindowKind::kCountSliding) {
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
    bytes += s.buf.MemoryBytes();
    // A sliding side's hash index shares its window's tuples: one
    // reference each (a landmark side's is charged per entry only).
    if (s.strategy == JoinStrategy::kHash &&
        s.buf.kind() != WindowKind::kTimeLandmark) {
      bytes += s.buf.contents().size() * sizeof(TupleRef);
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
    if (!side.buf.logs()) {
      // Only the index holds this landmark side: save it key by key, as
      // a hash probe reads only each key's arrival order.
      std::vector<TupleRef> held;
      for (const auto& entry : side.index) {
        held.insert(held.end(), entry.second.begin(), entry.second.end());
      }
      side.buf.Save(w, held);
      continue;
    }
    WindowBuffer::SaveEach matched_flag;
    if (s == 0 && left_outer_) {
      matched_flag = [this](dur::BufWriter& out, const TupleRef& t) {
        out.U8(left_matched_.count(t.get()) != 0);
      };
    }
    side.buf.Save(w, matched_flag);
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
    const bool flagged = s == 0 && left_outer_;
    SQP_RETURN_NOT_OK(side.buf.Restore(
        r, [&](dur::BufReader& in, const TupleRef& t) -> Status {
          for (int c : side.key_cols) {
            if (static_cast<size_t>(c) >= t->arity()) {
              return Status::Internal("window join: tuple too narrow");
            }
          }
          uint8_t matched = 0;
          if (flagged) SQP_RETURN_NOT_OK(in.U8(&matched));
          if (matched != 0) left_matched_.insert(t.get());
          if (side.strategy == JoinStrategy::kHash) side.AddToIndex(t);
          return Status::OK();
        }));
  }
  return Status::OK();
}

}  // namespace sqp
