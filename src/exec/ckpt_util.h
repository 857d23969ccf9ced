#ifndef SQP_EXEC_CKPT_UTIL_H_
#define SQP_EXEC_CKPT_UTIL_H_

#include <vector>

#include "agg/agg_set.h"
#include "common/tuple.h"
#include "dur/codec.h"

/// Shared (de)serialization helpers for CheckpointableOperator
/// implementations: grouping keys and per-group accumulator lists.
namespace sqp {
namespace ckpt {

inline void SaveKey(dur::BufWriter& w, const Key& k) {
  w.U32(static_cast<uint32_t>(k.parts.size()));
  for (const Value& v : k.parts) w.Val(v);
}

inline Status LoadKey(dur::BufReader& r, Key* k) {
  uint32_t n = 0;
  SQP_RETURN_NOT_OK(r.U32(&n));
  k->parts.clear();
  k->parts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    SQP_RETURN_NOT_OK(r.Val(&v));
    k->parts.push_back(std::move(v));
  }
  return Status::OK();
}

/// u32 count, then per accumulator a u8 kind tag (restore-time sanity
/// check) and the accumulator's own state. Every `NewAccumulator()` form
/// saves its state.
inline void SaveAccs(dur::BufWriter& w, const AggSet::Accs& accs) {
  w.U32(static_cast<uint32_t>(accs.size()));
  for (const auto& acc : accs) {
    w.U8(static_cast<uint8_t>(acc->kind()));
    acc->SaveState(w);
  }
}

/// Rebuilds fresh accumulators from `aggs` and loads their saved state.
inline Status LoadAccs(dur::BufReader& r, const AggSet& aggs,
                       AggSet::Accs* out) {
  uint32_t n = 0;
  SQP_RETURN_NOT_OK(r.U32(&n));
  if (n != aggs.size()) {
    return Status::Internal("checkpoint accumulator count mismatch");
  }
  *out = aggs.NewAccs();
  for (uint32_t i = 0; i < n; ++i) {
    uint8_t kind = 0;
    SQP_RETURN_NOT_OK(r.U8(&kind));
    if (static_cast<AggKind>(kind) != aggs.specs()[i].kind) {
      return Status::Internal("checkpoint accumulator kind mismatch");
    }
    SQP_RETURN_NOT_OK((*out)[i]->LoadState(r));
  }
  return Status::OK();
}

}  // namespace ckpt
}  // namespace sqp

#endif  // SQP_EXEC_CKPT_UTIL_H_
