#ifndef SQP_COMMON_KEY_TABLE_H_
#define SQP_COMMON_KEY_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/tuple.h"

namespace sqp {

/// The one table of per-key operator state: a dense entry array, live
/// entries first in insertion order, behind an open-addressed index
/// (linear probing, at most half full) over the entries' stored hashes.
/// Erase moves the last live entry into the hole. An erased entry, and
/// every entry after Clear(), stays behind the live ones, dead: a new key
/// overwrites its key parts in place and takes its value as it was left,
/// so a table that once held N keys takes N new keys without allocating.
/// Probe keys (`KeyView`, `Key`) have size(), part(i) and Hash().
template <typename V>
class KeyTable {
 public:
  struct Entry {
    size_t hash;
    Key key;
    V value;
  };

  size_t size() const { return size_; }
  Entry* begin() { return entries_.data(); }
  Entry* end() { return entries_.data() + size_; }
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + size_; }
  /// Every entry held, the dead ones after the live.
  const std::vector<Entry>& retained() const { return entries_; }

  template <typename K>
  Entry* Find(const K& key) {
    const uint32_t s = size_ == 0 ? 0 : slots_[Probe(key, key.Hash())];
    return s == 0 ? nullptr : &entries_[s - 1];
  }
  template <typename K>
  const Entry* Find(const K& key) const {
    return const_cast<KeyTable*>(this)->Find(key);
  }

  /// The entry for `key`; `second` is true when it was added, with the
  /// value `make()` or a dead entry's value as it was left. Entry
  /// pointers stay valid until the next Insert or Erase.
  template <typename K, typename Make>
  std::pair<Entry*, bool> Insert(const K& key, Make&& make) {
    if ((size_ + 1) * 2 > slots_.size()) Rehash();
    const size_t h = key.Hash();
    const size_t i = Probe(key, h);
    if (slots_[i] != 0) return {&entries_[slots_[i] - 1], false};
    if (size_ == entries_.size()) entries_.push_back(Entry{h, Key{}, make()});
    Entry& e = entries_[size_];
    e.hash = h;
    e.key.parts.resize(key.size());
    for (size_t p = 0; p < key.size(); ++p) e.key.parts[p] = key.part(p);
    slots_[i] = static_cast<uint32_t>(++size_);
    return {&e, true};
  }
  template <typename K>
  std::pair<Entry*, bool> Insert(const K& key) {
    return Insert(key, [] { return V{}; });
  }

  void Erase(Entry* e) {
    const size_t mask = slots_.size() - 1;
    // Backward-shift deletion: each later entry of the probe run moves
    // into the hole unless that would put it before its home slot.
    size_t hole = Probe(e->key, e->hash);
    for (size_t j = (hole + 1) & mask; slots_[j] != 0; j = (j + 1) & mask) {
      const size_t home = Home(entries_[slots_[j] - 1].hash);
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = 0;
    Entry& last = entries_[--size_];
    if (e != &last) {
      slots_[Probe(last.key, last.hash)] =
          static_cast<uint32_t>(e - entries_.data() + 1);
      std::swap(*e, last);
    }
  }

  void Clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
  }

 private:
  /// Fibonacci hashing: the product's top bits depend on every bit of
  /// `h`, whose low bits alone may agree.
  size_t Home(size_t h) const {
    return (uint64_t{h} * 0x9e3779b97f4a7c15ULL) >>
           __builtin_clzll(slots_.size() - 1);
  }
  /// The slot holding `key`, or the empty slot that ends its probe run.
  template <typename K>
  size_t Probe(const K& key, size_t h) const {
    size_t i = Home(h);
    for (; slots_[i] != 0; i = (i + 1) & (slots_.size() - 1)) {
      const Entry& e = entries_[slots_[i] - 1];
      if (e.hash == h && e.key.Equals(key)) break;
    }
    return i;
  }
  void Rehash() {
    slots_.assign(std::max<size_t>(8, 2 * slots_.size()), 0);
    for (size_t pos = 0; pos < size_; ++pos) {
      const Entry& e = entries_[pos];
      slots_[Probe(e.key, e.hash)] = static_cast<uint32_t>(pos + 1);
    }
  }

  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  ///< Entry position + 1; 0 when empty.
  size_t size_ = 0;
};

}  // namespace sqp

#endif  // SQP_COMMON_KEY_TABLE_H_
