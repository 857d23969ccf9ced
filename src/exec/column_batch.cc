#include "exec/column_batch.h"

namespace sqp {

Value ColumnBatch::Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type) {
    case ValueType::kInt:
      return Value::Int(ints[row]);
    case ValueType::kDouble:
      return Value::Double(dbls[row]);
    case ValueType::kString:
      return Value::String(std::string(Str(row)));
    case ValueType::kNull:
      break;
  }
  return Value::Null();
}

void ColumnBatch::Clear() {
  for (Column& c : cols) c.Clear();
  ts.clear();
  puncts.clear();
  sel.clear();
  has_sel = false;
}

namespace {

/// Appends one value to a column whose type has already been fixed.
/// Null slots still append a placeholder so every array stays aligned
/// with the physical row index.
void AppendValue(ColumnBatch::Column* c, const Value& v, size_t row) {
  const bool is_null = v.is_null();
  if (is_null && c->nulls.empty() && c->type != ValueType::kNull) {
    // First null in a typed column: backfill the mask for the rows
    // already appended, then record this one (the push below must not
    // be skipped when row == 0 leaves the backfill empty).
    c->nulls.reserve(row + 1);
    c->nulls.assign(row, 0);
    c->nulls.push_back(1);
  } else if (!c->nulls.empty()) {
    c->nulls.push_back(is_null ? 1 : 0);
  }
  switch (c->type) {
    case ValueType::kInt:
      c->ints.push_back(is_null ? 0 : v.AsInt());
      break;
    case ValueType::kDouble:
      c->dbls.push_back(is_null ? 0.0 : v.AsDouble());
      break;
    case ValueType::kString: {
      if (!is_null) c->bytes.append(v.AsString());
      c->offsets.push_back(static_cast<uint32_t>(c->bytes.size()));
      break;
    }
    case ValueType::kNull:
      break;  // all-null column: no storage.
  }
}

}  // namespace

bool ColumnBatch::FromRows(const ElementBatch& in, ColumnBatch* out) {
  out->Clear();
  // Pass 1: arity + per-column type resolution. First non-null value
  // fixes a column's type; a later non-null of a different type makes
  // the batch non-columnar (row fallback) so kernels stay exactly typed.
  size_t arity = 0;
  bool have_tuple = false;
  for (const Element& e : in) {
    if (!e.is_tuple()) continue;
    const Tuple& t = *e.tuple();
    if (!have_tuple) {
      arity = t.arity();
      have_tuple = true;
      out->cols.resize(arity);
    } else if (t.arity() != arity) {
      out->Clear();
      out->cols.clear();
      return false;
    }
    for (size_t i = 0; i < arity; ++i) {
      const Value& v = t.at(i);
      if (v.is_null()) continue;
      Column& c = out->cols[i];
      if (c.type == ValueType::kNull) {
        c.type = v.type();
      } else if (c.type != v.type()) {
        out->Clear();
        out->cols.clear();
        return false;
      }
    }
  }
  // Pass 2: fill the arrays; punctuations become out-of-band slots
  // anchored to the physical row they precede.
  for (Column& c : out->cols) {
    if (c.type == ValueType::kString) c.offsets.push_back(0);
  }
  for (const Element& e : in) {
    if (e.is_punctuation()) {
      out->puncts.push_back(
          {static_cast<uint32_t>(out->ts.size()), e.punctuation()});
      continue;
    }
    if (!e.is_tuple()) continue;  // moved-from slot
    const Tuple& t = *e.tuple();
    const size_t row = out->ts.size();
    for (size_t i = 0; i < arity; ++i) {
      AppendValue(&out->cols[i], t.at(i), row);
    }
    out->ts.push_back(t.ts());
  }
  return true;
}

TupleRef ColumnBatch::RowAt(uint32_t r) const {
  return MakeTuple(ts[r], cols.size(), [&](std::span<Value> row) {
    for (size_t i = 0; i < row.size(); ++i) row[i] = cols[i].ValueAt(r);
  });
}

void ColumnBatch::MaterializeRows(ElementBatch* out) const {
  const size_t n = ActiveRows();
  size_t pi = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = Active(k);
    while (pi < puncts.size() && puncts[pi].pos <= r) {
      out->push_back(Element(puncts[pi].punct));
      ++pi;
    }
    out->push_back(Element(RowAt(r)));
  }
  while (pi < puncts.size()) {
    out->push_back(Element(puncts[pi].punct));
    ++pi;
  }
}

size_t ColumnBatch::MemoryBytes() const {
  size_t bytes = sizeof(ColumnBatch);
  for (const Column& c : cols) {
    bytes += c.ints.capacity() * sizeof(int64_t) +
             c.dbls.capacity() * sizeof(double) +
             c.offsets.capacity() * sizeof(uint32_t) + c.bytes.capacity() +
             c.nulls.capacity();
  }
  bytes += ts.capacity() * sizeof(int64_t) +
           puncts.capacity() * sizeof(PunctSlot) +
           sel.capacity() * sizeof(uint32_t);
  return bytes;
}

}  // namespace sqp
