#include "arch/db_sink.h"

#include <cassert>

#include "agg/partial_agg.h"

namespace sqp {

DbSink::DbSink(SchemaRef schema, std::string name)
    : Operator(std::move(name)), schema_(std::move(schema)) {}

void DbSink::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) return;
  bytes_ += e.tuple()->MemoryBytes();
  table_.push_back(e.tuple());
}

size_t DbSink::StateBytes() const { return sizeof(*this) + bytes_; }

std::vector<TupleRef> DbSink::Scan(const ExprRef& pred) const {
  std::vector<TupleRef> out;
  for (const TupleRef& t : table_) {
    if (pred == nullptr || pred->Test(*t)) out.push_back(t);
  }
  return out;
}

std::vector<std::pair<Key, std::vector<Value>>> DbSink::Aggregate(
    const std::vector<int>& key_cols, const std::vector<AggSpec>& aggs,
    const ExprRef& pred) const {
  // Reuse the unbounded partial aggregator as a plain hash aggregate.
  PartialAggregator agg(0, key_cols, aggs);
  FinalAggregator fin(aggs);
  std::vector<PartialGroup> partials;
  for (const TupleRef& t : table_) {
    if (pred != nullptr && !pred->Test(*t)) continue;
    agg.Add(*t, &partials);
  }
  agg.Flush(&partials);
  for (PartialGroup& g : partials) fin.Merge(std::move(g));
  return fin.Results();
}

}  // namespace sqp
