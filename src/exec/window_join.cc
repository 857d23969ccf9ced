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
  for (Side& s : sides_) {
    assert(s.window.Validate().ok());
    switch (s.window.kind) {
      case WindowKind::kTimeSliding:
        s.time_buf = std::make_unique<TimeWindowBuffer>(s.window.size);
        break;
      case WindowKind::kCountSliding:
        s.count_buf = std::make_unique<CountWindowBuffer>(
            static_cast<size_t>(s.window.size));
        break;
      default:
        assert(false && "window join supports sliding windows");
    }
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
  auto scan = [&](const auto& contents) {
    const std::vector<int>& cols = probe_side.key_cols;
    for (const TupleRef& match : contents) {
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
  };
  if (probe_side.time_buf != nullptr) {
    scan(probe_side.time_buf->contents());
  } else {
    scan(probe_side.count_buf->contents());
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

void BinaryWindowJoinOp::Insert(Side& side, const TupleRef& t) {
  if (side.time_buf != nullptr) {
    side.time_buf->Insert(t, &expired_);
  } else if (auto evicted = side.count_buf->Insert(t)) {
    expired_.push_back(std::move(*evicted));
  }
  // A tuple already older than the window expires on arrival, after
  // everything before it; it never enters the index. Expiring before
  // indexing lets a new key reuse the entry an expired key just left.
  const bool late = !expired_.empty() && expired_.back() == t;
  HandleExpired(static_cast<int>(&side - &sides_[0]));
  if (side.strategy == JoinStrategy::kHash && !late) {
    KeyView key(*t, side.key_cols);
    auto it = side.index.find(key);
    if (it == side.index.end()) {
      it = InsertReusing(side.index, side.spare_entries, key,
                         [] { return std::vector<TupleRef>{}; });
    }
    it->second.push_back(t);
  }
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
  if (left_outer_) {
    // End of stream: everything still in the left window that never
    // matched is reported unmatched.
    auto drain = [&](const auto& contents) {
      for (const TupleRef& t : contents) {
        if (left_matched_.count(t.get()) == 0) {
          EmitUnmatchedLeft(*t, t->ts());
        }
      }
    };
    if (sides_[0].time_buf != nullptr) {
      drain(sides_[0].time_buf->contents());
    } else if (sides_[0].count_buf != nullptr) {
      drain(sides_[0].count_buf->contents());
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
    const size_t window = s.time_buf != nullptr ? s.time_buf->MemoryBytes()
                                                : s.count_buf->MemoryBytes();
    bytes += window;
    // A hash index holds exactly the window's tuples.
    if (s.strategy == JoinStrategy::kHash) bytes += window;
    // Bucket overhead, spare entries included.
    bytes += (s.index.size() + s.spare_entries.size()) * 48;
  }
  bytes += left_matched_.size() * 16;
  return bytes;
}

}  // namespace sqp
