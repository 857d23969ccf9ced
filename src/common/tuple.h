#ifndef SQP_COMMON_TUPLE_H_
#define SQP_COMMON_TUPLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/value.h"

namespace sqp {

/// One stream element's payload: a fixed-arity row of Values plus a
/// timestamp in the stream's ordering domain.
///
/// The timestamp is carried out-of-band (`ts`) so that window managers and
/// joins touch it without schema lookups; schemas whose ordering attribute
/// is also a visible column simply mirror `ts` into that column.
///
/// Layout: a 32-byte header (ts, cell pointer, arity, heap owner) over
/// the cells. A shared row from MakeTuple of up to kMaxInlineArity
/// cells keeps them inline, after the header, in the one block
/// `make_shared` allocates for header and shared count. Size classes
/// are exact up to 16 cells, then multiples of 8. A wider shared row
/// keeps its cells in a vector of its own (two blocks, or one when
/// MakeTuple takes over the caller's vector); a by-value Tuple (a
/// scratch row) owns a heap array.
class Tuple {
 public:
  /// Widest row whose cells live in the same block as its header.
  static constexpr size_t kMaxInlineArity = 32;

  /// A by-value row owning its cells on the heap.
  Tuple() = default;
  Tuple(int64_t ts, std::vector<Value> values);
  /// Not copyable: an inline row's cells belong to its block.
  Tuple(const Tuple&) = delete;
  Tuple& operator=(const Tuple&) = delete;

  int64_t ts() const { return ts_; }
  void set_ts(int64_t ts) { ts_ = ts; }

  size_t arity() const { return arity_; }
  const Value& at(size_t i) const { return cells_[i]; }
  Value& at(size_t i) { return cells_[i]; }
  std::span<const Value> values() const { return {cells_, arity_}; }
  std::span<Value> mutable_values() { return {cells_, arity_}; }

  /// Approximate in-memory footprint in bytes (window/queue accounting):
  /// the header plus each cell's Value::MemoryBytes.
  size_t MemoryBytes() const;

  /// "(ts=5, [1, 2.5, abc])".
  std::string ToString() const;

  bool operator==(const Tuple& other) const {
    return ts_ == other.ts_ && std::ranges::equal(values(), other.values());
  }

  /// A shared row of `arity` null cells, allocated in one block when
  /// arity <= kMaxInlineArity. MakeTuple's builder fills it in place.
  static std::shared_ptr<Tuple> Allocate(int64_t ts, size_t arity);

 protected:
  /// For the shared rows Allocate builds: `cells` belongs to the
  /// derived object, inline after this header or in its vector.
  Tuple(int64_t ts, Value* cells, size_t arity)
      : ts_(ts), cells_(cells), arity_(static_cast<uint32_t>(arity)) {}

 private:
  int64_t ts_ = 0;
  Value* cells_ = nullptr;
  uint32_t arity_ = 0;
  std::unique_ptr<Value[]> heap_;  // the cells, unless they are inline
};

/// Tuples are shared (immutable after construction) so joins and windows
/// can retain them without copying payloads.
using TupleRef = std::shared_ptr<const Tuple>;

/// The one row builder: allocates a row of `arity` null cells (one heap
/// block up to Tuple::kMaxInlineArity cells) and lets `fill` write them
/// in place, as `fill(std::span<Value> cells)`.
template <typename Fill>
TupleRef MakeTuple(int64_t ts, size_t arity, Fill&& fill) {
  std::shared_ptr<Tuple> t = Tuple::Allocate(ts, arity);
  std::forward<Fill>(fill)(t->mutable_values());
  return t;
}

/// Convenience constructors: move the cells of `values`, or copy them.
TupleRef MakeTuple(int64_t ts, std::vector<Value> values);
TupleRef MakeTuple(std::vector<Value> values);
TupleRef MakeTuple(int64_t ts, std::span<const Value> values);

/// A join's output row: `left`'s cells, then `right`'s, stamped with the
/// later of their timestamps.
TupleRef JoinedRow(const Tuple& left, const Tuple& right);

/// Sum of Tuple::MemoryBytes over a range of TupleRefs. Window buffers
/// account their bytes this way, when asked, instead of walking every
/// tuple's values on each insert and expiry.
template <typename Range>
size_t TupleBytes(const Range& tuples) {
  size_t bytes = 0;
  for (const TupleRef& t : tuples) bytes += t->MemoryBytes();
  return bytes;
}

/// Hash of a subset of columns — the grouping/join key abstraction.
struct Key {
  std::vector<Value> parts;

  bool operator==(const Key& other) const { return parts == other.parts; }
  /// KeyView's accessors, so a KeyTable takes either key shape.
  size_t size() const { return parts.size(); }
  const Value& part(size_t i) const { return parts[i]; }
  /// Equal to KeyView::Hash over the same values.
  size_t Hash() const;
  /// Part-wise equality with a Key or a KeyView.
  template <typename K>
  bool Equals(const K& k) const {
    if (k.size() != parts.size()) return false;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (!(parts[i] == k.part(i))) return false;
    }
    return true;
  }
  std::string ToString() const;
};

/// A borrowed, zero-allocation view of the key `cols` of a tuple —
/// three words on the stack, valid only while the tuple it references
/// is. A KeyTable is probed with it and copies its parts only into a
/// new entry, so hot probe paths (hash join, group-by) never heap-
/// allocate for keys that already exist.
class KeyView {
 public:
  KeyView(const Tuple& t, const std::vector<int>& cols)
      : t_(&t), cols_(cols.data()), n_(cols.size()) {}

  size_t size() const { return n_; }
  const Value& part(size_t i) const {
    return t_->at(static_cast<size_t>(cols_[i]));
  }

  /// Equal to Key::Hash for an equal owning key.
  size_t Hash() const;

  /// The one allocating step: copies the borrowed columns into an
  /// owning Key (use on genuine inserts only).
  Key Materialize() const;

 private:
  const Tuple* t_;
  const int* cols_;
  size_t n_;
};

/// Extracts `cols` of `t` as a Key.
Key ExtractKey(const Tuple& t, const std::vector<int>& cols);

/// Hash of a single value as a one-part key — identical to
/// KeyView::Hash/Key::Hash over a one-column key, so key-addressed
/// punctuations (Punctuation::CloseKey) hash-route to the same
/// partition as the tuples they close.
size_t OneValueKeyHash(const Value& v);

}  // namespace sqp

#endif  // SQP_COMMON_TUPLE_H_
