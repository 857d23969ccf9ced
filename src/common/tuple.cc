#include "common/tuple.h"

#include <array>
#include <utility>

namespace sqp {

namespace {

/// A row whose cells (arity <= N) follow its header in the same object,
/// so make_shared puts header, cells and shared count in one block.
template <size_t N>
class InlineTuple final : public Tuple {
 public:
  InlineTuple(int64_t ts, size_t arity) : Tuple(ts, cells_.data(), arity) {}

 private:
  std::array<Value, N> cells_;
};

/// The cells of a WideTuple, a base so they are built before its Tuple.
struct CellVector {
  std::vector<Value> cells;
};

/// A row wider than kMaxInlineArity (or of no cells): its cells stay in
/// a vector it owns, taken over from the caller where there is one.
class WideTuple final : private CellVector, public Tuple {
 public:
  WideTuple(int64_t ts, std::vector<Value> values)
      : CellVector{std::move(values)},
        Tuple(ts, cells.data(), cells.size()) {}
};

/// The size class of an inline row: its arity up to 16 cells, then
/// the next multiple of 8 (a packet self-join's row has 20).
constexpr size_t InlineCells(size_t arity) {
  return arity <= 16 ? arity : (arity + 7) / 8 * 8;
}

using AllocateFn = std::shared_ptr<Tuple> (*)(int64_t, size_t);

template <size_t N>
std::shared_ptr<Tuple> AllocateInline(int64_t ts, size_t arity) {
  return std::make_shared<InlineTuple<N>>(ts, arity);
}

template <size_t... I>
constexpr std::array<AllocateFn, sizeof...(I)> InlineAllocators(
    std::index_sequence<I...>) {
  return {&AllocateInline<InlineCells(I + 1)>...};
}

/// kInline[n - 1] allocates an inline row of arity n.
constexpr auto kInline =
    InlineAllocators(std::make_index_sequence<Tuple::kMaxInlineArity>());

}  // namespace

// The header term of MemoryBytes, which window, queue and state
// accounting (and their published figures) have always charged per row.
static_assert(sizeof(Tuple) == 32);

Tuple::Tuple(int64_t ts, std::vector<Value> values)
    : ts_(ts), arity_(static_cast<uint32_t>(values.size())) {
  if (values.empty()) return;
  heap_ = std::make_unique<Value[]>(values.size());
  cells_ = heap_.get();
  std::move(values.begin(), values.end(), cells_);
}

std::shared_ptr<Tuple> Tuple::Allocate(int64_t ts, size_t arity) {
  if (arity >= 1 && arity <= kMaxInlineArity) {
    return kInline[arity - 1](ts, arity);
  }
  return std::make_shared<WideTuple>(ts, std::vector<Value>(arity));
}

size_t Tuple::MemoryBytes() const {
  size_t bytes = sizeof(Tuple);
  for (const Value& v : values()) bytes += v.MemoryBytes();
  return bytes;
}

std::string Tuple::ToString() const {
  std::string out = "(ts=" + std::to_string(ts_) + ", [";
  for (size_t i = 0; i < arity_; ++i) {
    if (i > 0) out += ", ";
    out += cells_[i].ToString();
  }
  out += "])";
  return out;
}

TupleRef MakeTuple(int64_t ts, std::vector<Value> values) {
  if (values.empty() || values.size() > Tuple::kMaxInlineArity) {
    return std::make_shared<WideTuple>(ts, std::move(values));
  }
  return MakeTuple(ts, values.size(), [&](std::span<Value> cells) {
    std::move(values.begin(), values.end(), cells.begin());
  });
}

TupleRef MakeTuple(std::vector<Value> values) {
  return MakeTuple(0, std::move(values));
}

TupleRef MakeTuple(int64_t ts, std::span<const Value> values) {
  return MakeTuple(ts, values.size(), [&](std::span<Value> cells) {
    std::copy(values.begin(), values.end(), cells.begin());
  });
}

TupleRef JoinedRow(const Tuple& left, const Tuple& right) {
  return MakeTuple(std::max(left.ts(), right.ts()),
                   left.arity() + right.arity(), [&](std::span<Value> row) {
                     auto rest = std::ranges::copy(left.values(), row.begin());
                     std::ranges::copy(right.values(), rest.out);
                   });
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
