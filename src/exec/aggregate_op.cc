#include "exec/aggregate_op.h"

#include "exec/ckpt_util.h"

namespace sqp {

GroupByAggregateOp::GroupByAggregateOp(GroupByOptions options,
                                       std::string name)
    : Operator(std::move(name)),
      options_(std::move(options)),
      aggs_(options_.aggs) {}

void GroupByAggregateOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    const Punctuation& p = e.punctuation();
    if (!p.has_key && options_.window_size > 0) {
      CloseBucketsThrough(p.ts);
    }
    Emit(e);
    return;
  }
  FoldTuple(*e.tuple());
  // A tuple in a newer bucket proves older buckets are complete (the
  // stream's ordering attribute is nondecreasing).
  if (options_.window_size > 0) {
    CloseBucketsThrough(max_ts_ - (max_ts_ % options_.window_size) - 1);
  }
}

void GroupByAggregateOp::FoldTuple(const Tuple& t) {
  max_ts_ = std::max(max_ts_, t.ts());
  int64_t bucket =
      options_.window_size > 0 ? t.ts() / options_.window_size : 0;
  GroupMap& groups = buckets_[bucket];
  // Borrowed-view probe: folding into an existing group — the steady
  // state — allocates nothing for the key.
  KeyView key(t, options_.key_cols);
  auto it = groups.find(key);
  if (it == groups.end()) {
    it = groups.emplace(key.Materialize(), GroupState{aggs_.NewAccs()}).first;
  }
  aggs_.Add(it->second.accs, t);
}

void GroupByAggregateOp::CloseBucketsThrough(int64_t watermark) {
  if (options_.window_size <= 0) return;
  // Close every bucket that ends at or before the watermark.
  while (!buckets_.empty()) {
    auto it = buckets_.begin();
    int64_t bucket_end = (it->first + 1) * options_.window_size - 1;
    if (bucket_end > watermark) break;
    EmitBucket(it->first, it->second);
    buckets_.erase(it);
  }
}

void GroupByAggregateOp::EmitBucket(int64_t bucket, GroupMap& groups) {
  int64_t out_ts = options_.window_size > 0
                       ? bucket * options_.window_size
                       : (max_ts_ == INT64_MIN ? 0 : max_ts_);
  for (auto& [key, state] : groups) {
    std::vector<Value> row;
    row.reserve(1 + key.parts.size() + state.accs.size());
    row.push_back(Value(out_ts));
    for (const Value& v : key.parts) row.push_back(v);
    AggSet::AppendResults(state.accs, &row);
    TupleRef out = MakeTuple(out_ts, std::move(row));
    if (options_.having != nullptr && !Truthy(options_.having->Eval(*out))) {
      continue;
    }
    Emit(Element(std::move(out)));
  }
}

void GroupByAggregateOp::Flush() {
  for (auto& [bucket, groups] : buckets_) EmitBucket(bucket, groups);
  buckets_.clear();
  Operator::Flush();
}

size_t GroupByAggregateOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [bucket, groups] : buckets_) {
    for (const auto& [key, state] : groups) {
      for (const Value& v : key.parts) bytes += v.MemoryBytes();
      for (const auto& acc : state.accs) bytes += acc->MemoryBytes();
      bytes += 32;  // Hash-table node overhead.
    }
  }
  return bytes;
}

size_t GroupByAggregateOp::open_groups() const {
  size_t n = 0;
  for (const auto& [bucket, groups] : buckets_) n += groups.size();
  return n;
}

void GroupByAggregateOp::SaveState(dur::BufWriter& w) const {
  w.I64(max_ts_);
  w.U32(static_cast<uint32_t>(buckets_.size()));
  for (const auto& [bucket, groups] : buckets_) {
    w.I64(bucket);
    w.U32(static_cast<uint32_t>(groups.size()));
    for (const auto& [key, state] : groups) {
      ckpt::SaveKey(w, key);
      ckpt::SaveAccs(w, state.accs);
    }
  }
}

Status GroupByAggregateOp::RestoreState(dur::BufReader& r) {
  buckets_.clear();
  SQP_RETURN_NOT_OK(r.I64(&max_ts_));
  uint32_t nbuckets = 0;
  SQP_RETURN_NOT_OK(r.U32(&nbuckets));
  for (uint32_t b = 0; b < nbuckets; ++b) {
    int64_t bucket = 0;
    uint32_t ngroups = 0;
    SQP_RETURN_NOT_OK(r.I64(&bucket));
    SQP_RETURN_NOT_OK(r.U32(&ngroups));
    GroupMap& groups = buckets_[bucket];
    for (uint32_t g = 0; g < ngroups; ++g) {
      Key key;
      SQP_RETURN_NOT_OK(ckpt::LoadKey(r, &key));
      GroupState state;
      SQP_RETURN_NOT_OK(ckpt::LoadAccs(r, aggs_, &state.accs));
      groups.emplace(std::move(key), std::move(state));
    }
  }
  return Status::OK();
}

Result<Schema> GroupByAggregateOp::OutputSchema(const Schema& input,
                                                const GroupByOptions& options) {
  std::vector<Field> fields;
  fields.push_back(Field{"ts", ValueType::kInt});
  for (int c : options.key_cols) {
    if (c < 0 || static_cast<size_t>(c) >= input.num_fields()) {
      return Status::InvalidArgument("group-by column out of range");
    }
    fields.push_back(input.field(static_cast<size_t>(c)));
  }
  SQP_RETURN_NOT_OK(AggSet::AppendFields(options.aggs, input, &fields));
  return Schema::WithOrdering(std::move(fields), "ts");
}

}  // namespace sqp
