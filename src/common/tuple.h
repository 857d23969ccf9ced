#ifndef SQP_COMMON_TUPLE_H_
#define SQP_COMMON_TUPLE_H_

#include <cstdint>
#include <memory>
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
class Tuple {
 public:
  Tuple() = default;
  Tuple(int64_t ts, std::vector<Value> values)
      : ts_(ts), values_(std::move(values)) {}

  int64_t ts() const { return ts_; }
  void set_ts(int64_t ts) { ts_ = ts; }

  size_t arity() const { return values_.size(); }
  const Value& at(size_t i) const { return values_[i]; }
  Value& at(size_t i) { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }

  /// Approximate in-memory footprint in bytes (window/queue accounting).
  size_t MemoryBytes() const;

  /// "(ts=5, [1, 2.5, abc])".
  std::string ToString() const;

  bool operator==(const Tuple& other) const {
    return ts_ == other.ts_ && values_ == other.values_;
  }

 private:
  int64_t ts_ = 0;
  std::vector<Value> values_;
};

/// Tuples are shared (immutable after construction) so joins and windows
/// can retain them without copying payloads.
using TupleRef = std::shared_ptr<const Tuple>;

/// Convenience constructors.
TupleRef MakeTuple(int64_t ts, std::vector<Value> values);
TupleRef MakeTuple(std::vector<Value> values);

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
