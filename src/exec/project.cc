#include "exec/project.h"

#include "exec/ckpt_util.h"

namespace sqp {

ProjectOp::ProjectOp(std::vector<ExprRef> exprs, std::string name)
    : Operator(std::move(name)), exprs_(std::move(exprs)) {
  // Bind-time resolution: a projection made only of bare column
  // references needs no expression evaluation at all per row — the
  // ordinals are fixed here, once, and the hot loop just copies cells.
  ordinals_.reserve(exprs_.size());
  for (const ExprRef& ex : exprs_) {
    if (ex == nullptr || ex->kind() != ExprKind::kColumn) {
      ordinals_.clear();
      break;
    }
    ordinals_.push_back(ex->column_index());
  }
  if (ordinals_.size() != exprs_.size()) ordinals_.clear();
  vproj_ = vec::CompiledProjection::Compile(exprs_);
}

TupleRef ProjectOp::ProjectRow(const Tuple& in) const {
  return MakeTuple(in.ts(), exprs_.size(), [&](std::span<Value> out) {
    if (!ordinals_.empty()) {
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = in.at(static_cast<size_t>(ordinals_[i]));
      }
      return;
    }
    // A computed cell is evaluated straight into its slot.
    for (size_t i = 0; i < out.size(); ++i) {
      const Value& v = exprs_[i]->Eval(in, &out[i]);
      if (&v != &out[i]) out[i] = v;
    }
  });
}

void ProjectOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    Emit(e);
    return;
  }
  Emit(Element(ProjectRow(*e.tuple())));
}

void ProjectOp::PushBatch(ElementBatch& batch, int /*port*/) {
  uint64_t tuples = 0;
  uint64_t puncts = 0;
  for (Element& e : batch) {
    if (e.is_punctuation()) {
      ++puncts;
      Emit(std::move(e));
      continue;
    }
    ++tuples;
    Emit(Element(ProjectRow(*e.tuple())));
  }
  CountInBulk(tuples, puncts);
}

void ProjectOp::PushColumns(ColumnBatch& batch, int /*port*/) {
  CountInColumns(batch);
  if (vproj_ != nullptr && vproj_->Project(batch, &scratch_)) {
    EmitColumns(std::move(scratch_));
    return;
  }
  // Fallback (unsupported expression or a batch whose computed column
  // mixes types): rebuild rows and project per element, counters
  // already settled.
  ElementBatch rows;
  batch.MaterializeRows(&rows);
  for (Element& e : rows) {
    if (e.is_punctuation()) {
      Emit(std::move(e));
      continue;
    }
    Emit(Element(ProjectRow(*e.tuple())));
  }
}

Result<Schema> ProjectOp::OutputSchema(const Schema& input,
                                       const std::vector<ExprRef>& exprs,
                                       const std::vector<std::string>& names) {
  std::vector<Field> fields;
  fields.reserve(exprs.size());
  for (size_t i = 0; i < exprs.size(); ++i) {
    auto type = exprs[i]->Check(input);
    if (!type.ok()) return type.status();
    std::string name =
        i < names.size() ? names[i] : ("f" + std::to_string(i));
    fields.push_back(Field{std::move(name), *type});
  }
  return Schema(std::move(fields));
}

DistinctOp::DistinctOp(std::vector<int> cols, int64_t window_size,
                       std::string name)
    : Operator(std::move(name)),
      cols_(std::move(cols)),
      window_size_(window_size) {}

void DistinctOp::Push(const Element& e, int /*port*/) {
  CountIn(e);
  if (e.is_punctuation()) {
    Emit(e);
    return;
  }
  const Tuple& t = *e.tuple();
  if (window_size_ > 0) {
    int64_t bucket = t.ts() / window_size_;
    if (bucket != current_bucket_) {
      current_bucket_ = bucket;
      seen_.Clear();
    }
  }
  // Probe with a borrowed view; duplicates (the common case once the
  // window warms up) never allocate a Key.
  if (seen_.Insert(KeyView(t, cols_)).second) {
    // First occurrence (in this window): project to the distinct columns.
    Emit(Element(MakeTuple(t.ts(), cols_.size(), [&](std::span<Value> out) {
      for (size_t i = 0; i < out.size(); ++i) {
        out[i] = t.at(static_cast<size_t>(cols_[i]));
      }
    })));
  }
}

size_t DistinctOp::StateBytes() const {
  size_t bytes = sizeof(*this);
  for (const auto& seen : seen_) {
    for (const Value& v : seen.key.parts) bytes += v.MemoryBytes();
    bytes += 16;
  }
  return bytes;
}

void DistinctOp::SaveState(dur::BufWriter& w) const {
  w.I64(current_bucket_);
  w.U32(static_cast<uint32_t>(seen_.size()));
  for (const auto& seen : seen_) ckpt::SaveKey(w, seen.key);
}

Status DistinctOp::RestoreState(dur::BufReader& r) {
  SQP_RETURN_NOT_OK(r.I64(&current_bucket_));
  uint32_t n = 0;
  SQP_RETURN_NOT_OK(r.U32(&n));
  seen_.Clear();
  for (uint32_t i = 0; i < n; ++i) {
    Key k;
    SQP_RETURN_NOT_OK(ckpt::LoadKey(r, &k));
    seen_.Insert(k);
  }
  return Status::OK();
}

}  // namespace sqp
