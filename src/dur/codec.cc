#include "dur/codec.h"

#include <array>

namespace sqp {
namespace dur {

namespace {

// Slicing-by-8: eight derived tables let the hot loop fold 8 input
// bytes per iteration instead of one — the archive CRCs every framed
// record on the ingest path, so the bytewise loop showed up in E21.
std::array<std::array<uint32_t, 256>, 8> BuildCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (size_t t = 1; t < 8; ++t) {
    for (uint32_t i = 0; i < 256; ++i) {
      tables[t][i] =
          tables[0][tables[t - 1][i] & 0xFFu] ^ (tables[t - 1][i] >> 8);
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  static const std::array<std::array<uint32_t, 256>, 8> kTables =
      BuildCrcTables();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  while (n >= 8) {
    uint32_t lo, hi;
    std::memcpy(&lo, p, sizeof(lo));      // Little-endian targets only,
    std::memcpy(&hi, p + 4, sizeof(hi));  // same assumption as AppendLE.
    lo ^= c;
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = kTables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void BufWriter::Val(const Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      I64(v.AsInt());
      break;
    case ValueType::kDouble:
      F64(v.AsDouble());
      break;
    case ValueType::kString:
      Str(v.AsString());
      break;
  }
}

void BufWriter::Tup(const Tuple& t) {
  I64(t.ts());
  U32(static_cast<uint32_t>(t.arity()));
  for (size_t i = 0; i < t.arity(); ++i) Val(t.at(i));
}

void BufWriter::Punct(const Punctuation& p) {
  I64(p.ts);
  U8(p.has_key ? 1 : 0);
  if (p.has_key) Val(p.key);
}

void BufWriter::Elem(const Element& e) {
  if (e.is_tuple()) {
    U8(0);
    Tup(*e.tuple());
  } else {
    U8(1);
    Punct(e.punctuation());
  }
}

Status BufReader::U8(uint8_t* out) {
  SQP_RETURN_NOT_OK(Need(1));
  *out = static_cast<uint8_t>(*p_++);
  return Status::OK();
}

Status BufReader::U32(uint32_t* out) {
  SQP_RETURN_NOT_OK(Need(4));
  std::memcpy(out, p_, 4);
  p_ += 4;
  return Status::OK();
}

Status BufReader::U64(uint64_t* out) {
  SQP_RETURN_NOT_OK(Need(8));
  std::memcpy(out, p_, 8);
  p_ += 8;
  return Status::OK();
}

Status BufReader::F64(double* out) {
  uint64_t bits = 0;
  SQP_RETURN_NOT_OK(U64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status BufReader::Str(std::string* out) {
  uint32_t n = 0;
  SQP_RETURN_NOT_OK(U32(&n));
  SQP_RETURN_NOT_OK(Need(n));
  out->assign(p_, n);
  p_ += n;
  return Status::OK();
}

Status BufReader::Val(Value* out) {
  uint8_t tag = 0;
  SQP_RETURN_NOT_OK(U8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueType::kInt: {
      int64_t v = 0;
      SQP_RETURN_NOT_OK(I64(&v));
      *out = Value::Int(v);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double v = 0;
      SQP_RETURN_NOT_OK(F64(&v));
      *out = Value::Double(v);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      SQP_RETURN_NOT_OK(Str(&s));
      *out = Value::String(std::move(s));
      return Status::OK();
    }
  }
  return Status::Internal("dur: bad value tag " + std::to_string(tag));
}

Status BufReader::Tup(TupleRef* out) {
  int64_t ts = 0;
  uint32_t arity = 0;
  SQP_RETURN_NOT_OK(I64(&ts));
  SQP_RETURN_NOT_OK(U32(&arity));
  // Each value costs at least one tag byte — rejects absurd arities from
  // corrupt input before the reserve below can explode.
  SQP_RETURN_NOT_OK(Need(arity));
  Status status;
  TupleRef t = MakeTuple(ts, arity, [&](std::span<Value> row) {
    for (Value& v : row) {
      status = Val(&v);
      if (!status.ok()) return;
    }
  });
  SQP_RETURN_NOT_OK(status);
  *out = std::move(t);
  return Status::OK();
}

Status BufReader::Punct(Punctuation* out) {
  SQP_RETURN_NOT_OK(I64(&out->ts));
  uint8_t has_key = 0;
  SQP_RETURN_NOT_OK(U8(&has_key));
  out->has_key = has_key != 0;
  if (out->has_key) SQP_RETURN_NOT_OK(Val(&out->key));
  return Status::OK();
}

Status BufReader::Elem(Element* out) {
  uint8_t kind = 0;
  SQP_RETURN_NOT_OK(U8(&kind));
  if (kind == 0) {
    TupleRef t;
    SQP_RETURN_NOT_OK(Tup(&t));
    *out = Element(std::move(t));
    return Status::OK();
  }
  if (kind == 1) {
    Punctuation p;
    SQP_RETURN_NOT_OK(Punct(&p));
    *out = Element(std::move(p));
    return Status::OK();
  }
  return Status::Internal("dur: bad element kind " + std::to_string(kind));
}

}  // namespace dur
}  // namespace sqp
