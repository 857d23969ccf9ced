#include "agg/partial_agg.h"

namespace sqp {

PartialAggregator::PartialAggregator(size_t slots, std::vector<int> key_cols,
                                     std::vector<AggSpec> aggs)
    : slots_(slots),
      key_cols_(std::move(key_cols)),
      aggs_(std::move(aggs)) {
  if (slots_ > 0) table_.resize(slots_);
}

void PartialAggregator::Add(const Tuple& t, std::vector<PartialGroup>* out) {
  ++stats_.tuples_in;
  KeyView key(t, key_cols_);

  if (slots_ == 0) {
    auto [group, added] = unbounded_.Insert(key);
    if (added) group->value = aggs_.NewAccs();
    aggs_.Add(group->value, t);
    return;
  }

  size_t idx = key.Hash() % slots_;
  Slot& slot = table_[idx];
  if (slot.occupied && !slot.group.key.Equals(key)) {
    // Collision: evict the resident group as a partial result.
    ++stats_.evictions;
    out->push_back(std::move(slot.group));
    slot.occupied = false;
  }
  if (!slot.occupied) {
    slot.group = PartialGroup{key.Materialize(), aggs_.NewAccs()};
    slot.occupied = true;
  }
  aggs_.Add(slot.group.accs, t);
}

void PartialAggregator::Flush(std::vector<PartialGroup>* out) {
  if (slots_ == 0) {
    for (auto& group : unbounded_) {
      ++stats_.flushed;
      out->push_back(PartialGroup{group.key, std::move(group.value)});
    }
    unbounded_.Clear();
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
  auto group_bytes = [](const Key& key, const AggSet::Accs& accs) {
    size_t b = 0;
    for (const Value& v : key.parts) b += v.MemoryBytes();
    for (const auto& a : accs) b += a->MemoryBytes();
    return b;
  };
  for (const Slot& s : table_) {
    if (s.occupied) bytes += group_bytes(s.group.key, s.group.accs);
  }
  for (const auto& group : unbounded_) {
    bytes += group_bytes(group.key, group.value) + sizeof(Key);
  }
  return bytes;
}

void FinalAggregator::Merge(PartialGroup group) {
  auto [merged, added] = groups_.Insert(group.key);
  if (added) {
    merged->value = std::move(group.accs);
    return;
  }
  for (size_t i = 0; i < merged->value.size(); ++i) {
    merged->value[i]->Merge(*group.accs[i]);
  }
}

std::vector<std::pair<Key, std::vector<Value>>> FinalAggregator::Results()
    const {
  std::vector<std::pair<Key, std::vector<Value>>> out;
  out.reserve(groups_.size());
  for (const auto& group : groups_) {
    std::vector<Value> vals(group.value.size());
    AggSet::WriteResults(group.value, vals.data());
    out.emplace_back(group.key, std::move(vals));
  }
  return out;
}

}  // namespace sqp
