#include "exec/aggregate_op.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "exec/ckpt_util.h"

namespace sqp {

namespace {

Status CheckWindow(const GroupByOptions& options) {
  const WindowSpec& w = options.window;
  SQP_RETURN_NOT_OK(w.Validate());
  switch (w.kind) {
    case WindowKind::kTimeLandmark:
      if (w.start != 0) {
        return Status::InvalidArgument(
            "group-by landmark window starts with the stream");
      }
      return Status::OK();
    case WindowKind::kTimeTumbling:
      return Status::OK();
    case WindowKind::kTimeSliding:
      if (w.slide <= 0) {
        return Status::InvalidArgument(
            "group-by sliding window needs a slide (emission step)");
      }
      return Status::OK();
    case WindowKind::kPunctuation:
      if (options.key_cols.size() != 1) {
        return Status::InvalidArgument(
            "punctuated group-by takes exactly one key column");
      }
      return Status::OK();
    case WindowKind::kCountSliding:
      break;
  }
  return Status::InvalidArgument("group-by cannot close groups by a " +
                                 w.ToString() + " window");
}

}  // namespace

GroupByAggregateOp::GroupByAggregateOp(GroupByOptions options,
                                       std::string name)
    : Operator(std::move(name)),
      options_(std::move(options)),
      aggs_(options_.aggs),
      probe_key_{std::vector<Value>(options_.key_cols.size())},
      scratch_(0, std::vector<Value>(1 + options_.key_cols.size() +
                                     options_.aggs.size())) {
  assert(CheckWindow(options_).ok());
  const WindowSpec& w = options_.window;
  switch (w.kind) {
    case WindowKind::kTimeTumbling:
      close_ = Close::kBucket;
      width_ = w.size;
      break;
    case WindowKind::kTimeSliding:
      // One pane per window is a tumbling bucket: nothing to merge.
      close_ = w.slide == w.size ? Close::kBucket : Close::kPane;
      width_ = std::gcd(w.size, w.slide);
      hop_ = w.slide;
      break;
    case WindowKind::kPunctuation:
      close_ = Close::kPunctuation;
      break;
    default:
      close_ = Close::kAtFlush;
      break;
  }
}

void GroupByAggregateOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    CloseOnPunctuation(e.punctuation());
    Emit(e);
    return;
  }
  const Tuple& t = *e.tuple();
  // Borrowed-view probe: folding into an existing group allocates
  // nothing for the key, and opening one reuses a closed group's entry.
  aggs_.Add(GroupOf(t.ts(), KeyView(t, options_.key_cols)).accs, t);
  CloseAfterTuple();
}

void GroupByAggregateOp::PushColumns(ColumnBatch& batch, int /*port*/) {
  CountInColumns(batch);
  // Merge live rows and punctuation slots back into stream order; rows
  // fold straight from the typed arrays, punctuations run the same
  // close-out as the row path.
  auto punctuate = [this](const Punctuation& p) {
    CloseOnPunctuation(p);
    Emit(Element(p));
  };
  const size_t n = batch.ActiveRows();
  size_t pi = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = batch.Active(k);
    while (pi < batch.puncts.size() && batch.puncts[pi].pos <= r) {
      punctuate(batch.puncts[pi++].punct);
    }
    for (size_t i = 0; i < options_.key_cols.size(); ++i) {
      probe_key_.parts[i] =
          batch.cols[static_cast<size_t>(options_.key_cols[i])].ValueAt(r);
    }
    aggs_.AddRow(GroupOf(batch.ts[r], probe_key_).accs,
                 [&](size_t c) { return batch.cols[c].ValueAt(r); });
    CloseAfterTuple();
  }
  while (pi < batch.puncts.size()) punctuate(batch.puncts[pi++].punct);
}

template <typename K>
GroupByAggregateOp::GroupState& GroupByAggregateOp::GroupOf(int64_t ts,
                                                            const K& key) {
  max_ts_ = std::max(max_ts_, ts);
  const int64_t bucket = width_ > 0 ? ts / width_ : 0;
  if (last_bucket_ == buckets_.end() || last_bucket_->first != bucket) {
    last_bucket_ = buckets_.find(bucket);
  }
  if (last_bucket_ == buckets_.end()) {
    // Close what the tuple completes first, so that a bucket it closes
    // hands its table to the bucket it opens. Folding emits nothing, so
    // the rows come out as if closed after it.
    CloseAfterTuple();
    if (retired_.empty()) {
      last_bucket_ = buckets_.try_emplace(bucket).first;
    } else {
      retired_.key() = bucket;
      last_bucket_ = buckets_.insert(std::move(retired_)).position;
    }
  }
  GroupState& group = OpenGroup(last_bucket_->second, key);
  group.last_ts = std::max(group.last_ts, ts);
  return group;
}

template <typename K>
GroupByAggregateOp::GroupState& GroupByAggregateOp::OpenGroup(
    GroupTable& groups, const K& key) {
  auto [group, added] =
      groups.Insert(key, [this] { return GroupState{aggs_.NewAccs()}; });
  if (added) {  // Perhaps a dead entry: a closed group's state.
    AggSet::Reset(group->value.accs);
    group->value.last_ts = INT64_MIN;
  }
  return group->value;
}

void GroupByAggregateOp::CloseAfterTuple() {
  // A tuple in a newer bucket proves older buckets (and windows ending
  // at or before it) complete: the stream's ordering attribute is
  // nondecreasing.
  if (close_ == Close::kBucket) {
    CloseBucketsThrough(max_ts_ - (max_ts_ % width_) - 1);
  } else if (close_ == Close::kPane) {
    CloseWindowsThrough(max_ts_ - 1);
  }
}

void GroupByAggregateOp::CloseOnPunctuation(const Punctuation& p) {
  switch (close_) {
    case Close::kBucket:
      if (!p.has_key) CloseBucketsThrough(p.ts);
      break;
    case Close::kPane:
      if (!p.has_key) CloseWindowsThrough(p.ts);
      break;
    case Close::kPunctuation:
      if (p.has_key) {
        CloseKey(p.ts, p.key);
      } else {
        CloseQuietGroups(p.ts);
      }
      break;
    case Close::kAtFlush:
      break;
  }
}

void GroupByAggregateOp::CloseBucketsThrough(int64_t watermark) {
  // Close every bucket that ends at or before the watermark.
  while (!buckets_.empty()) {
    auto it = buckets_.begin();
    int64_t bucket_end = (it->first + 1) * width_ - 1;
    if (bucket_end > watermark) break;
    EmitGroups(it->first * width_, it->second);
    RetireOldestBucket();
  }
}

void GroupByAggregateOp::CloseWindowsThrough(int64_t watermark) {
  const int64_t window = options_.window.size;
  while (!buckets_.empty()) {
    // The next window holding data: the first one covering the oldest
    // pane, so runs of empty windows are skipped, never emitted.
    int64_t oldest = buckets_.begin()->first * width_;
    int64_t end =
        next_end_ > oldest ? next_end_ : (oldest / hop_ + 1) * hop_;
    if (end - 1 > watermark) break;
    EmitWindow(end);
    next_end_ = end + hop_;
    // Panes that start before the next window are needed by none.
    while (!buckets_.empty() &&
           buckets_.begin()->first * width_ < next_end_ - window) {
      RetireOldestBucket();
    }
  }
}

void GroupByAggregateOp::EmitWindow(int64_t end) {
  const int64_t start = end - options_.window.size;
  for (auto pane = buckets_.lower_bound(start / width_);
       pane != buckets_.end() && pane->first < end / width_; ++pane) {
    for (const auto& group : pane->second) {
      GroupState& merged = OpenGroup(merged_, group.key);
      for (size_t i = 0; i < group.value.accs.size(); ++i) {
        merged.accs[i]->Merge(*group.value.accs[i]);
      }
      merges_ += group.value.accs.size();
    }
  }
  EmitGroups(start, merged_);
  merged_.Clear();
}

void GroupByAggregateOp::CloseQuietGroups(int64_t watermark) {
  auto bucket = buckets_.find(0);
  if (bucket == buckets_.end()) return;
  GroupTable& groups = bucket->second;
  // Closing a group moves the newest into its place, to be looked at
  // next.
  for (size_t i = 0; i < groups.size();) {
    GroupTable::Entry* group = groups.begin() + i;
    if (group->value.last_ts > watermark) {
      ++i;
      continue;
    }
    EmitGroup(watermark, group->key, group->value);
    groups.Erase(group);
  }
}

void GroupByAggregateOp::CloseKey(int64_t ts, const Value& key) {
  auto bucket = buckets_.find(0);
  if (bucket == buckets_.end()) return;
  probe_key_.parts[0] = key;
  GroupTable::Entry* group = bucket->second.Find(probe_key_);
  if (group == nullptr) return;
  EmitGroup(ts, group->key, group->value);
  bucket->second.Erase(group);
}

void GroupByAggregateOp::RetireOldestBucket() {
  auto it = buckets_.begin();
  if (it == last_bucket_) last_bucket_ = buckets_.end();
  // Replaces (and frees) the bucket retired before, if no new bucket
  // took it.
  retired_ = buckets_.extract(it);
  retired_.mapped().Clear();
}

void GroupByAggregateOp::EmitGroups(int64_t ts, const GroupTable& groups) {
  for (const auto& group : groups) EmitGroup(ts, group.key, group.value);
}

void GroupByAggregateOp::EmitGroup(int64_t ts, const Key& key,
                                   const GroupState& state) {
  auto fill = [&](std::span<Value> row) {
    row[0] = Value(ts);
    std::ranges::copy(key.parts, row.begin() + 1);
    AggSet::WriteResults(state.accs, row.data() + 1 + key.parts.size());
  };
  if (options_.having == nullptr) {
    Emit(Element(MakeTuple(ts, scratch_.arity(), fill)));
    return;
  }
  // HAVING reads the row first, in scratch_, so a failing group
  // allocates nothing.
  scratch_.set_ts(ts);
  fill(scratch_.mutable_values());
  if (!options_.having->Test(scratch_)) return;
  Emit(Element(MakeTuple(ts, scratch_.values())));
}

void GroupByAggregateOp::Flush() {
  if (close_ == Close::kPane) CloseWindowsThrough(INT64_MAX);
  const int64_t landmark_ts = max_ts_ == INT64_MIN ? 0 : max_ts_;
  for (const auto& [bucket, groups] : buckets_) {
    for (const auto& group : groups) {
      EmitGroup(close_ == Close::kPunctuation ? group.value.last_ts
                : close_ == Close::kBucket    ? bucket * width_
                                              : landmark_ts,
                group.key, group.value);
    }
  }
  buckets_.clear();
  last_bucket_ = buckets_.end();
  Operator::Flush();
}

size_t GroupByAggregateOp::TableBytes(const GroupTable& groups) {
  // Every group the table holds, dead ones included.
  size_t bytes = 0;
  for (const auto& group : groups.retained()) {
    bytes += 32;  // Entry and index overhead.
    for (const Value& v : group.key.parts) bytes += v.MemoryBytes();
    for (const auto& acc : group.value.accs) bytes += acc->MemoryBytes();
  }
  return bytes;
}

size_t GroupByAggregateOp::StateBytes() const {
  size_t bytes = sizeof(*this) + TableBytes(merged_);
  for (const auto& [bucket, groups] : buckets_) bytes += TableBytes(groups);
  if (!retired_.empty()) bytes += TableBytes(retired_.mapped());
  return bytes;
}

size_t GroupByAggregateOp::open_groups() const {
  size_t n = 0;
  for (const auto& [bucket, groups] : buckets_) n += groups.size();
  return n;
}

// Layout: max ts, then each bucket's id and groups (key, accumulators).
// A punctuated group appends its last ts, and a sliding window ends with
// the next window end; tumbling and landmark state carries neither.
void GroupByAggregateOp::SaveState(dur::BufWriter& w) const {
  w.I64(max_ts_);
  w.U32(static_cast<uint32_t>(buckets_.size()));
  for (const auto& [bucket, groups] : buckets_) {
    w.I64(bucket);
    w.U32(static_cast<uint32_t>(groups.size()));
    for (const auto& group : groups) {
      ckpt::SaveKey(w, group.key);
      ckpt::SaveAccs(w, group.value.accs);
      if (close_ == Close::kPunctuation) w.I64(group.value.last_ts);
    }
  }
  if (close_ == Close::kPane) w.I64(next_end_);
}

Status GroupByAggregateOp::RestoreState(dur::BufReader& r) {
  buckets_.clear();
  last_bucket_ = buckets_.end();
  SQP_RETURN_NOT_OK(r.I64(&max_ts_));
  uint32_t nbuckets = 0;
  SQP_RETURN_NOT_OK(r.U32(&nbuckets));
  for (uint32_t b = 0; b < nbuckets; ++b) {
    int64_t bucket = 0;
    uint32_t ngroups = 0;
    SQP_RETURN_NOT_OK(r.I64(&bucket));
    SQP_RETURN_NOT_OK(r.U32(&ngroups));
    GroupTable& groups = buckets_[bucket];
    for (uint32_t g = 0; g < ngroups; ++g) {
      Key key;
      SQP_RETURN_NOT_OK(ckpt::LoadKey(r, &key));
      GroupState state;
      SQP_RETURN_NOT_OK(ckpt::LoadAccs(r, aggs_, &state.accs));
      if (close_ == Close::kPunctuation) {
        SQP_RETURN_NOT_OK(r.I64(&state.last_ts));
      }
      auto [group, added] = groups.Insert(key, [] { return GroupState{}; });
      if (!added) {
        return Status::Internal("group-by: checkpoint group saved twice");
      }
      group->value = std::move(state);
    }
  }
  if (close_ == Close::kPane) SQP_RETURN_NOT_OK(r.I64(&next_end_));
  return Status::OK();
}

Result<Schema> GroupByAggregateOp::OutputSchema(const Schema& input,
                                                const GroupByOptions& options) {
  SQP_RETURN_NOT_OK(CheckWindow(options));
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
