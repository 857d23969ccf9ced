#include "exec/punct_groupby.h"

#include "exec/ckpt_util.h"

namespace sqp {

PunctuationGroupByOp::PunctuationGroupByOp(int key_col,
                                           std::vector<AggSpec> aggs,
                                           std::string name)
    : Operator(std::move(name)),
      key_col_(key_col),
      aggs_(std::move(aggs)) {}

void PunctuationGroupByOp::EmitGroup(int64_t close_ts, const Value& key,
                                     GroupState& state) {
  std::vector<Value> row;
  row.reserve(2 + state.accs.size());
  row.push_back(Value(close_ts));
  row.push_back(key);
  AggSet::AppendResults(state.accs, &row);
  Emit(Element(MakeTuple(close_ts, std::move(row))));
}

void PunctuationGroupByOp::HandlePunct(const Punctuation& p) {
  if (p.has_key) {
    auto it = groups_.find(p.key);
    if (it != groups_.end()) {
      EmitGroup(p.ts, it->first, it->second);
      groups_.erase(it);
    }
  } else {
    // Watermark: any group silent since before it is complete.
    for (auto it = groups_.begin(); it != groups_.end();) {
      if (it->second.last_ts <= p.ts) {
        EmitGroup(p.ts, it->first, it->second);
        it = groups_.erase(it);
      } else {
        ++it;
      }
    }
  }
  Emit(Element(p));
}

void PunctuationGroupByOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    HandlePunct(e.punctuation());
    return;
  }

  const Tuple& t = *e.tuple();
  const Value& key = t.at(static_cast<size_t>(key_col_));
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    it = groups_.emplace(key, GroupState{aggs_.NewAccs()}).first;
  }
  it->second.last_ts = std::max(it->second.last_ts, t.ts());
  aggs_.Add(it->second.accs, t);
}

void PunctuationGroupByOp::FoldRow(const ColumnBatch& batch, uint32_t row) {
  Value key = batch.cols[static_cast<size_t>(key_col_)].ValueAt(row);
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    it = groups_.emplace(std::move(key), GroupState{aggs_.NewAccs()}).first;
  }
  it->second.last_ts = std::max(it->second.last_ts, batch.ts[row]);
  aggs_.AddRow(it->second.accs,
               [&](size_t c) { return batch.cols[c].ValueAt(row); });
}

void PunctuationGroupByOp::PushColumns(ColumnBatch& batch, int /*port*/) {
  CountInColumns(batch);
  // Merge live rows and punctuation slots back into stream order; rows
  // fold straight from the typed arrays (no Tuple is ever built for the
  // input side), punctuations run the same close-out as the row path.
  const size_t n = batch.ActiveRows();
  size_t pi = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = batch.Active(k);
    while (pi < batch.puncts.size() && batch.puncts[pi].pos <= r) {
      HandlePunct(batch.puncts[pi].punct);
      ++pi;
    }
    FoldRow(batch, r);
  }
  while (pi < batch.puncts.size()) {
    HandlePunct(batch.puncts[pi].punct);
    ++pi;
  }
}

void PunctuationGroupByOp::Flush() {
  for (auto& [key, state] : groups_) {
    EmitGroup(state.last_ts, key, state);
  }
  groups_.clear();
  Operator::Flush();
}

size_t PunctuationGroupByOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& [key, state] : groups_) {
    bytes += key.MemoryBytes() + 32;
    for (const auto& acc : state.accs) bytes += acc->MemoryBytes();
  }
  return bytes;
}

void PunctuationGroupByOp::SaveState(dur::BufWriter& w) const {
  w.U32(static_cast<uint32_t>(groups_.size()));
  for (const auto& [key, state] : groups_) {
    w.Val(key);
    w.I64(state.last_ts);
    ckpt::SaveAccs(w, state.accs);
  }
}

Status PunctuationGroupByOp::RestoreState(dur::BufReader& r) {
  groups_.clear();
  uint32_t ngroups = 0;
  SQP_RETURN_NOT_OK(r.U32(&ngroups));
  for (uint32_t g = 0; g < ngroups; ++g) {
    Value key;
    SQP_RETURN_NOT_OK(r.Val(&key));
    GroupState state;
    SQP_RETURN_NOT_OK(r.I64(&state.last_ts));
    SQP_RETURN_NOT_OK(ckpt::LoadAccs(r, aggs_, &state.accs));
    groups_.emplace(std::move(key), std::move(state));
  }
  return Status::OK();
}

}  // namespace sqp
