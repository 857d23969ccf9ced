#include "exec/exchange.h"

#include <algorithm>
#include <cassert>

namespace sqp {

const char* ShardRoutingName(ShardRouting r) {
  switch (r) {
    case ShardRouting::kDisjoint:
      return "disjoint";
    case ShardRouting::kReplicated:
      return "replicated";
  }
  return "?";
}

ShardRouter::ShardRouter(int shards, ShardRouting routing,
                         std::vector<std::vector<int>> key_cols_by_port)
    : shards_(shards), routing_(routing), key_cols_(std::move(key_cols_by_port)) {
  assert(shards_ > 0);
  if (key_cols_.empty()) key_cols_.push_back({});
}

int ShardRouter::Route(const Element& e, int port) {
  if (shards_ == 1) return 0;
  if (e.is_punctuation()) {
    const Punctuation& p = e.punctuation();
    if (!p.has_key || routing_ == ShardRouting::kReplicated) {
      return kBroadcast;
    }
    // Disjoint CloseKey: the punctuation's single-value key must land on
    // the shard owning that key's tuples — OneValueKeyHash matches
    // KeyView::Hash over a one-column key.
    return static_cast<int>(OneValueKeyHash(p.key) %
                            static_cast<size_t>(shards_));
  }
  if (routing_ == ShardRouting::kReplicated && port != 0) return kBroadcast;
  const std::vector<int>& cols =
      key_cols_[static_cast<size_t>(port) < key_cols_.size()
                    ? static_cast<size_t>(port)
                    : 0];
  if (cols.empty()) {
    return static_cast<int>(rr_++ % static_cast<uint64_t>(shards_));
  }
  return static_cast<int>(KeyView(*e.tuple(), cols).Hash() %
                          static_cast<size_t>(shards_));
}

ShardMergeOp::ShardMergeOp(int shards, ShardRouting routing, std::string name)
    : Operator(std::move(name)),
      shards_(shards),
      routing_(routing),
      shard_wm_(static_cast<size_t>(shards), INT64_MIN),
      emitted_wm_(INT64_MIN) {}

void ShardMergeOp::Push(const Element& e, int port) {
  CountIn(e);
  if (!e.is_punctuation()) {
    Emit(e);
    return;
  }
  const Punctuation& p = e.punctuation();
  if (p.has_key) {
    if (routing_ == ShardRouting::kDisjoint) {
      // Exactly one shard owns the key; its close-out is already
      // ordered after that shard's tuples for the key.
      Emit(e);
      return;
    }
    auto [it, inserted] =
        pending_close_.try_emplace(p.key, std::make_pair(p.ts, 0));
    auto& pending = it->second;
    pending.first = std::max(pending.first, p.ts);
    if (++pending.second >= shards_) {
      int64_t ts = pending.first;
      Value key = p.key;
      pending_close_.erase(p.key);
      Emit(Element(Punctuation::CloseKey(ts, std::move(key))));
    }
    return;
  }
  // Watermark fan-in: forward min across shards, monotonically. All
  // tuples any shard emitted before its own watermark W were already
  // forwarded (per-shard FIFO), so downstream ordering guarantees are
  // preserved.
  int64_t& wm = shard_wm_[static_cast<size_t>(port)];
  wm = std::max(wm, p.ts);
  int64_t merged = *std::min_element(shard_wm_.begin(), shard_wm_.end());
  if (merged > emitted_wm_) {
    emitted_wm_ = merged;
    Emit(Element(Punctuation::Watermark(merged)));
  }
}

void ShardMergeOp::Flush() {
  if (++flushes_ < shards_) return;
  Operator::Flush();
}

size_t ShardMergeOp::StateBytes() const {
  return sizeof(*this) + shard_wm_.capacity() * sizeof(int64_t) +
         pending_close_.size() * (sizeof(Value) + sizeof(int64_t) + 32);
}

}  // namespace sqp
