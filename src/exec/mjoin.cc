#include "exec/mjoin.h"

#include <algorithm>
#include <cassert>

namespace sqp {

MultiWindowJoinOp::MultiWindowJoinOp(Options options, std::string name)
    : Operator(std::move(name)), options_(std::move(options)) {
  assert(options_.streams.size() >= 2);
  sides_.reserve(options_.streams.size());
  for (const StreamSpec& s : options_.streams) sides_.emplace_back(s);
}

void MultiWindowJoinOp::RemoveFromIndex(
    Side& side, const std::vector<TupleRef>& expired) {
  for (const TupleRef& t : expired) {
    const Value& key = t->at(static_cast<size_t>(side.spec.key_col));
    auto it = side.index.find(key);
    if (it == side.index.end()) continue;
    auto& vec = it->second;
    for (auto vit = vec.begin(); vit != vec.end(); ++vit) {
      if (vit->get() == t.get()) {
        vec.erase(vit);
        break;
      }
    }
    if (vec.empty()) side.index.erase(it);
  }
}

void MultiWindowJoinOp::ExpireAll(int64_t now) {
  for (Side& s : sides_) {
    std::vector<TupleRef> expired;
    s.buf.AdvanceTo(now, &expired);
    RemoveFromIndex(s, expired);
  }
}

void MultiWindowJoinOp::EmitCombined(const std::vector<const Tuple*>& parts,
                                     int64_t ts) {
  ++results_;
  std::vector<Value> row;
  size_t arity = 0;
  for (const Tuple* p : parts) arity += p->arity();
  row.reserve(arity);
  for (const Tuple* p : parts) {
    row.insert(row.end(), p->values().begin(), p->values().end());
  }
  Emit(Element(MakeTuple(ts, std::move(row))));
}

void MultiWindowJoinOp::Push(const Element& e, int port) {
  CountIn(e);
  if (e.is_punctuation()) {
    if (!e.punctuation().has_key) ExpireAll(e.punctuation().ts);
    Emit(e);
    return;
  }
  size_t me = static_cast<size_t>(port);
  assert(me < sides_.size());
  const TupleRef& t = e.tuple();

  // Invalidate every window up to the new arrival's time.
  ExpireAll(t->ts());

  const Value& key = t->at(static_cast<size_t>(sides_[me].spec.key_col));

  // Gather the other sides' match lists; bail early on any empty one.
  struct Probe {
    size_t side;
    const std::vector<TupleRef>* matches;
  };
  std::vector<Probe> probes;
  probes.reserve(sides_.size() - 1);
  for (size_t s = 0; s < sides_.size(); ++s) {
    if (s == me) continue;
    auto it = sides_[s].index.find(key);
    if (it == sides_[s].index.end() || it->second.empty()) {
      probes.clear();
      break;
    }
    probes.push_back({s, &it->second});
  }

  if (!probes.empty() || sides_.size() == 1) {
    if (options_.adaptive_order) {
      // Most selective probe first: fewest matches prunes earliest (in
      // the cross-product enumeration below, earlier probes multiply
      // fewer partials).
      std::sort(probes.begin(), probes.end(),
                [](const Probe& a, const Probe& b) {
                  return a.matches->size() < b.matches->size();
                });
    } else {
      std::sort(probes.begin(), probes.end(),
                [](const Probe& a, const Probe& b) { return a.side < b.side; });
    }

    // Partial-work model [VNB03]: pairwise composition materializes the
    // prefix products of the probe order, so probing small lists first
    // shrinks every intermediate.
    uint64_t prefix = 1;
    for (size_t k = 0; k + 1 < probes.size(); ++k) {
      prefix *= probes[k].matches->size();
      partials_ += prefix;
    }

    // Enumerate the cross-product over the probe lists.
    std::vector<size_t> idx(probes.size(), 0);
    if (!probes.empty()) {
      while (true) {
        // Assemble this combination in *stream order* for a stable
        // output layout.
        std::vector<const Tuple*> parts(sides_.size(), nullptr);
        parts[me] = t.get();
        for (size_t k = 0; k < probes.size(); ++k) {
          parts[probes[k].side] = (*probes[k].matches)[idx[k]].get();
        }
        EmitCombined(parts, t->ts());
        // Advance the mixed-radix counter.
        size_t k = 0;
        while (k < idx.size()) {
          if (++idx[k] < probes[k].matches->size()) break;
          idx[k] = 0;
          ++k;
        }
        if (k == idx.size()) break;
      }
    }
  } else if (sides_.size() > 1) {
    // Count the aborted probe as one unit of partial work.
    ++partials_;
  }

  // Insert the new tuple into its own window + index, unless it is
  // already outside the window.
  if (sides_[me].buf.Insert(t)) sides_[me].index[key].push_back(t);
}

void MultiWindowJoinOp::Flush() {
  if (++flushes_ < static_cast<int>(sides_.size())) return;
  Operator::Flush();
}

size_t MultiWindowJoinOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const Side& s : sides_) {
    bytes += s.buf.MemoryBytes();
    bytes += s.index.size() * 48;
  }
  return bytes;
}

}  // namespace sqp
