#include "exec/merge_join.h"

#include <algorithm>

namespace sqp {

OrderedMergeJoinOp::OrderedMergeJoinOp(Options options, std::string name)
    : Operator(std::move(name)), options_(std::move(options)) {}

bool OrderedMergeJoinOp::KeysMatch(const Tuple& l, const Tuple& r) const {
  // Part by part on the tuples: no Key is built per comparison.
  const std::vector<int>& lc = options_.left_cols;
  const std::vector<int>& rc = options_.right_cols;
  if (lc.empty()) return true;
  if (lc.size() != rc.size()) return false;
  for (size_t i = 0; i < lc.size(); ++i) {
    if (!(l.at(static_cast<size_t>(lc[i])) ==
          r.at(static_cast<size_t>(rc[i])))) {
      return false;
    }
  }
  return true;
}

void OrderedMergeJoinOp::EmitJoined(const Tuple& l, const Tuple& r) {
  Emit(Element(JoinedRow(l, r)));
}

void OrderedMergeJoinOp::Push(const Element& e, int port) {
  CountIn(e);
  int me = port == 0 ? 0 : 1;
  if (e.is_punctuation()) {
    frontier_[me] = std::max(frontier_[me], e.punctuation().ts);
    Advance();
    Emit(e);
    return;
  }
  const TupleRef& t = e.tuple();
  frontier_[me] = std::max(frontier_[me], t->ts());

  // Join against the opposite buffer within the band.
  const std::deque<TupleRef>& other = buf_[1 - me];
  for (const TupleRef& o : other) {
    if (std::llabs(o->ts() - t->ts()) <= options_.band && KeysMatch(
            me == 0 ? *t : *o, me == 0 ? *o : *t)) {
      if (me == 0) {
        EmitJoined(*t, *o);
      } else {
        EmitJoined(*o, *t);
      }
    }
  }
  buf_[me].push_back(t);
  Advance();
}

void OrderedMergeJoinOp::Advance() {
  // Drop tuples that can no longer match: older than the other side's
  // frontier minus the band. An unseen frontier (INT64_MIN) purges
  // nothing — the subtraction would underflow.
  for (int s = 0; s < 2; ++s) {
    if (frontier_[1 - s] == INT64_MIN) continue;
    int64_t bound = frontier_[1 - s] - options_.band;
    while (!buf_[s].empty() && buf_[s].front()->ts() < bound) {
      buf_[s].pop_front();
    }
  }
}

void OrderedMergeJoinOp::Flush() {
  if (++flushes_ < 2) return;
  buf_[0].clear();
  buf_[1].clear();
  Operator::Flush();
}

size_t OrderedMergeJoinOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& side : buf_) {
    for (const TupleRef& t : side) bytes += t->MemoryBytes();
  }
  return bytes;
}

}  // namespace sqp
