#include "exec/partitioned_window_agg.h"

#include <cassert>

namespace sqp {

PartitionedWindowAggregateOp::PartitionedWindowAggregateOp(
    int partition_col, size_t rows, std::vector<AggSpec> aggs,
    std::string name)
    : Operator(std::move(name)),
      partition_col_(partition_col),
      rows_(rows),
      agg_specs_(std::move(aggs)) {
  assert(rows_ > 0);
  for (const AggSpec& s : agg_specs_) {
    auto fn = AggregateFunction::Make(s.kind, s.param);
    assert(fn.ok());
    fns_.push_back(std::move(fn.value()));
  }
}

Value PartitionedWindowAggregateOp::InputOf(size_t i, const Tuple& t) const {
  const AggSpec& s = agg_specs_[i];
  return s.input_col < 0 ? Value(int64_t{1})
                         : t.at(static_cast<size_t>(s.input_col));
}

void PartitionedWindowAggregateOp::Recompute(Partition& p) {
  ++recomputes_;
  for (size_t i = 0; i < fns_.size(); ++i) {
    if (p.accs[i]->invertible()) continue;
    p.accs[i] = fns_[i].NewSlidingAccumulator();
    for (const TupleRef& t : p.window.contents()) {
      p.accs[i]->Add(InputOf(i, *t));
    }
  }
}

void PartitionedWindowAggregateOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    Emit(e);
    return;
  }
  const TupleRef& t = e.tuple();
  const Value& key = t->at(static_cast<size_t>(partition_col_));
  auto it = parts_.find(key);
  if (it == parts_.end()) {
    it = parts_.emplace(key, Partition(rows_)).first;
    for (const AggregateFunction& fn : fns_) {
      it->second.accs.push_back(fn.NewSlidingAccumulator());
    }
  }
  Partition& p = it->second;

  std::optional<TupleRef> evicted = p.window.Insert(t);
  bool replay = false;
  for (size_t i = 0; i < p.accs.size(); ++i) {
    Accumulator& acc = *p.accs[i];
    if (acc.invertible()) {
      if (evicted.has_value()) acc.Remove(InputOf(i, **evicted));
    } else if (evicted.has_value()) {
      replay = true;
      continue;  // Rebuilt below; the window already holds the new tuple.
    }
    acc.Add(InputOf(i, *t));
  }
  if (replay) Recompute(p);

  std::vector<Value> row;
  row.reserve(2 + p.accs.size());
  row.push_back(Value(t->ts()));
  row.push_back(key);
  for (const auto& acc : p.accs) row.push_back(acc->Result());
  Emit(Element(MakeTuple(t->ts(), std::move(row))));
}

size_t PartitionedWindowAggregateOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [key, p] : parts_) {
    bytes += key.MemoryBytes() + 32;
    bytes += p.window.MemoryBytes();
    for (const auto& acc : p.accs) bytes += acc->MemoryBytes();
  }
  return bytes;
}

}  // namespace sqp
