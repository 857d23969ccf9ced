#include "common/tuple.h"

namespace sqp {

size_t Tuple::MemoryBytes() const {
  size_t bytes = sizeof(Tuple);
  for (const Value& v : values_) bytes += v.MemoryBytes();
  return bytes;
}

std::string Tuple::ToString() const {
  std::string out = "(ts=" + std::to_string(ts_) + ", [";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ", ";
    out += values_[i].ToString();
  }
  out += "])";
  return out;
}

TupleRef MakeTuple(int64_t ts, std::vector<Value> values) {
  return std::make_shared<Tuple>(ts, std::move(values));
}

TupleRef MakeTuple(std::vector<Value> values) {
  return std::make_shared<Tuple>(0, std::move(values));
}

std::string Key::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += ", ";
    out += parts[i].ToString();
  }
  out += "]";
  return out;
}

namespace {

// Boost-style hash combine — the one key-hash used by both the owning
// Key and the borrowed KeyView, so heterogeneous probes land in the
// same bucket.
inline size_t CombineHash(size_t h, size_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

}  // namespace

size_t Key::Hash() const {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : parts) h = CombineHash(h, v.Hash());
  return h;
}

size_t KeyView::Hash() const {
  size_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i = 0; i < n_; ++i) h = CombineHash(h, part(i).Hash());
  return h;
}

Key KeyView::Materialize() const {
  Key key;
  key.parts.reserve(n_);
  for (size_t i = 0; i < n_; ++i) key.parts.push_back(part(i));
  return key;
}

Key ExtractKey(const Tuple& t, const std::vector<int>& cols) {
  Key key;
  key.parts.reserve(cols.size());
  for (int c : cols) key.parts.push_back(t.at(static_cast<size_t>(c)));
  return key;
}

size_t OneValueKeyHash(const Value& v) {
  return CombineHash(0x9e3779b97f4a7c15ULL, v.Hash());
}

}  // namespace sqp
