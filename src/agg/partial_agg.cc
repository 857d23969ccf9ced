#include "agg/partial_agg.h"

namespace sqp {

PartialAggregator::PartialAggregator(size_t slots, std::vector<int> key_cols,
                                     std::vector<AggSpec> aggs)
    : slots_(slots),
      key_cols_(std::move(key_cols)),
      aggs_(std::move(aggs)) {
  if (slots_ > 0) table_.resize(slots_);
}

PartialGroup PartialAggregator::NewGroup(Key key) const {
  PartialGroup g;
  g.key = std::move(key);
  g.accs = aggs_.NewAccs();
  return g;
}

void PartialAggregator::Add(const Tuple& t, std::vector<PartialGroup>* out) {
  ++stats_.tuples_in;
  Key key = ExtractKey(t, key_cols_);

  if (slots_ == 0) {
    auto it = unbounded_.find(key);
    if (it == unbounded_.end()) {
      it = unbounded_.emplace(key, NewGroup(key)).first;
    }
    aggs_.Add(it->second.accs, t);
    return;
  }

  size_t idx = KeyHash()(key) % slots_;
  Slot& slot = table_[idx];
  if (slot.occupied && !(slot.group.key == key)) {
    // Collision: evict the resident group as a partial result.
    ++stats_.evictions;
    out->push_back(std::move(slot.group));
    slot.occupied = false;
  }
  if (!slot.occupied) {
    slot.group = NewGroup(std::move(key));
    slot.occupied = true;
  }
  aggs_.Add(slot.group.accs, t);
}

void PartialAggregator::Flush(std::vector<PartialGroup>* out) {
  if (slots_ == 0) {
    for (auto& [key, group] : unbounded_) {
      ++stats_.flushed;
      out->push_back(std::move(group));
    }
    unbounded_.clear();
    return;
  }
  for (Slot& slot : table_) {
    if (slot.occupied) {
      ++stats_.flushed;
      out->push_back(std::move(slot.group));
      slot.occupied = false;
    }
  }
}

size_t PartialAggregator::resident_groups() const {
  if (slots_ == 0) return unbounded_.size();
  size_t n = 0;
  for (const Slot& s : table_) n += s.occupied ? 1 : 0;
  return n;
}

size_t PartialAggregator::MemoryBytes() const {
  size_t bytes = sizeof(*this) + table_.capacity() * sizeof(Slot);
  auto group_bytes = [](const PartialGroup& g) {
    size_t b = 0;
    for (const Value& v : g.key.parts) b += v.MemoryBytes();
    for (const auto& a : g.accs) b += a->MemoryBytes();
    return b;
  };
  for (const Slot& s : table_) {
    if (s.occupied) bytes += group_bytes(s.group);
  }
  for (const auto& [key, group] : unbounded_) {
    bytes += group_bytes(group) + sizeof(Key);
  }
  return bytes;
}

void FinalAggregator::Merge(PartialGroup group) {
  auto it = groups_.find(group.key);
  if (it == groups_.end()) {
    groups_.emplace(std::move(group.key), std::move(group.accs));
    return;
  }
  for (size_t i = 0; i < it->second.size(); ++i) {
    it->second[i]->Merge(*group.accs[i]);
  }
}

std::vector<std::pair<Key, std::vector<Value>>> FinalAggregator::Results()
    const {
  std::vector<std::pair<Key, std::vector<Value>>> out;
  out.reserve(groups_.size());
  for (const auto& [key, accs] : groups_) {
    std::vector<Value> vals;
    vals.reserve(accs.size());
    AggSet::AppendResults(accs, &vals);
    out.emplace_back(key, std::move(vals));
  }
  return out;
}

}  // namespace sqp
