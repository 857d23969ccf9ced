#include "exec/mjoin.h"

#include <algorithm>
#include <cassert>

namespace sqp {

MultiWindowJoinOp::MultiWindowJoinOp(Options options, std::string name)
    : Operator(std::move(name)),
      options_(std::move(options)),
      matches_(options_.streams.size()) {
  assert(options_.streams.size() >= 2);
  windows_.reserve(options_.streams.size());
  for (const StreamSpec& s : options_.streams) {
    windows_.emplace_back(WindowSpec::TimeSliding(s.window), true,
                          std::vector<int>{s.key_col}, /*indexed=*/true);
  }
}

void MultiWindowJoinOp::EmitCombined(const std::vector<const Tuple*>& parts,
                                     int64_t ts) {
  ++results_;
  size_t arity = 0;
  for (const Tuple* p : parts) arity += p->arity();
  Emit(Element(MakeTuple(ts, arity, [&](std::span<Value> row) {
    auto out = row.begin();
    for (const Tuple* p : parts) out = std::ranges::copy(p->values(), out).out;
  })));
}

void MultiWindowJoinOp::Push(const Element& e, int port) {
  CountIn(e);
  if (e.is_punctuation()) {
    if (!e.punctuation().has_key) {
      for (WindowBuffer& w : windows_) w.AdvanceTo(e.punctuation().ts);
    }
    Emit(e);
    return;
  }
  size_t me = static_cast<size_t>(port);
  assert(me < windows_.size());
  const TupleRef& t = e.tuple();

  // Invalidate every window up to the new arrival's time.
  for (WindowBuffer& w : windows_) w.AdvanceTo(t->ts());

  const KeyView key(*t, windows_[me].key_cols());

  // Gather the other sides' match lists; bail early on any empty one.
  struct Probe {
    size_t side;
    const std::vector<const Tuple*>* matches;
  };
  std::vector<Probe> probes;
  probes.reserve(windows_.size() - 1);
  for (size_t s = 0; s < windows_.size(); ++s) {
    if (s == me) continue;
    std::vector<const Tuple*>& m = matches_[s];
    m.clear();
    windows_[s].ForEachMatch(key, nullptr,
                             [&m](const TupleRef& x) { m.push_back(x.get()); });
    if (m.empty()) {
      probes.clear();
      break;
    }
    probes.push_back({s, &m});
  }

  if (!probes.empty() || windows_.size() == 1) {
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
        std::vector<const Tuple*> parts(windows_.size(), nullptr);
        parts[me] = t.get();
        for (size_t k = 0; k < probes.size(); ++k) {
          parts[probes[k].side] = (*probes[k].matches)[idx[k]];
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
  } else if (windows_.size() > 1) {
    // Count the aborted probe as one unit of partial work.
    ++partials_;
  }

  // Insert the new tuple into its own window, unless it is already
  // outside it.
  windows_[me].Insert(t);
}

void MultiWindowJoinOp::Flush() {
  if (++flushes_ < static_cast<int>(windows_.size())) return;
  Operator::Flush();
}

size_t MultiWindowJoinOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const WindowBuffer& w : windows_) bytes += w.MemoryBytes();
  return bytes;
}

}  // namespace sqp
