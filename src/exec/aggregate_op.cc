#include "exec/aggregate_op.h"

#include <algorithm>

#include "exec/ckpt_util.h"

namespace sqp {

GroupByAggregateOp::GroupByAggregateOp(GroupByOptions options,
                                       std::string name)
    : Operator(std::move(name)),
      options_(std::move(options)),
      aggs_(options_.aggs),
      scratch_(0, std::vector<Value>(1 + options_.key_cols.size() +
                                     options_.aggs.size())) {}

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
  // Borrowed-view probe: folding into an existing group allocates
  // nothing for the key, and opening one reuses a closed group's node.
  KeyView key(t, options_.key_cols);
  auto it = groups.find(key);
  if (it == groups.end()) {
    it = InsertReusing(groups, free_groups_, key,
                       [this] { return GroupState{aggs_.NewAccs()}; });
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
    Recycle(it->second);
    buckets_.erase(it);
  }
}

void GroupByAggregateOp::Recycle(GroupMap& groups) {
  // Keep as many spares as the largest closed bucket held groups, so the
  // operator never holds more groups than at its peak and a bucket
  // larger than its predecessor still opens them from the free list.
  // Older spares go first, then the closed groups; the surplus is freed
  // with the bucket.
  max_closed_ = std::max(max_closed_, groups.size());
  if (free_groups_.size() > max_closed_) free_groups_.resize(max_closed_);
  while (free_groups_.size() < max_closed_ && !groups.empty()) {
    GroupMap::node_type node = groups.extract(groups.begin());
    AggSet::Reset(node.mapped().accs);
    free_groups_.push_back(std::move(node));
  }
}

void GroupByAggregateOp::EmitBucket(int64_t bucket, const GroupMap& groups) {
  int64_t out_ts = options_.window_size > 0
                       ? bucket * options_.window_size
                       : (max_ts_ == INT64_MIN ? 0 : max_ts_);
  scratch_.set_ts(out_ts);
  scratch_.at(0) = Value(out_ts);
  const size_t first_agg = 1 + options_.key_cols.size();
  for (const auto& [key, state] : groups) {
    for (size_t i = 0; i < key.parts.size(); ++i) {
      scratch_.at(1 + i) = key.parts[i];
    }
    AggSet::WriteResults(state.accs, &scratch_.at(first_agg));
    if (options_.having != nullptr &&
        !Truthy(options_.having->Eval(scratch_))) {
      continue;
    }
    Emit(Element(MakeTuple(out_ts, scratch_.values())));
  }
}

void GroupByAggregateOp::Flush() {
  for (auto& [bucket, groups] : buckets_) EmitBucket(bucket, groups);
  buckets_.clear();
  Operator::Flush();
}

size_t GroupByAggregateOp::GroupBytes(const Key& key,
                                      const GroupState& state) {
  size_t bytes = 32;  // Hash-table node overhead.
  for (const Value& v : key.parts) bytes += v.MemoryBytes();
  for (const auto& acc : state.accs) bytes += acc->MemoryBytes();
  return bytes;
}

size_t GroupByAggregateOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [bucket, groups] : buckets_) {
    for (const auto& [key, state] : groups) bytes += GroupBytes(key, state);
  }
  for (const GroupMap::node_type& node : free_groups_) {
    bytes += GroupBytes(node.key(), node.mapped());
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
