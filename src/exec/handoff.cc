#include "exec/handoff.h"

#include <algorithm>
#include <utility>

namespace sqp {

ChannelFeed::ChannelFeed(HandoffChannel* channel, int port, size_t batch,
                         bool columns)
    : Operator("channel-feed"),
      channel_(channel),
      port_(port),
      batch_(batch == 0 ? 1 : batch),
      columns_(columns) {
  buf_.reserve(batch_);
}

void ChannelFeed::Push(const Element& e, int /*port*/) {
  buf_.push_back(HandoffItem{e, port_});
  if (e.is_punctuation() || buf_.size() >= batch_) Send();
}

/// Batched hand-off from the upstream operator's Emit coalescing: the
/// feed ends its worker's synchronous chain, so it takes ownership of
/// the elements, then sends once (the per-element path would have sent
/// at the batch's last punctuation anyway).
void ChannelFeed::PushBatch(ElementBatch& batch, int /*port*/) {
  buf_.reserve(buf_.size() + batch.size());
  bool punct = false;
  for (Element& e : batch) {
    punct = punct || e.is_punctuation();
    buf_.push_back(HandoffItem{std::move(e), port_});
  }
  if (punct || buf_.size() >= batch_) Send();
}

/// A columnar batch is already the amortization unit: it goes as one
/// item, after any buffered rows, and sends at once.
void ChannelFeed::PushColumns(ColumnBatch& batch, int port) {
  if (!columns_) {
    Operator::PushColumns(batch, port);
    return;
  }
  HandoffItem item{Element(), port_};
  item.cols = std::make_unique<ColumnBatch>(std::move(batch));
  buf_.push_back(std::move(item));
  Send();
}

void ChannelFeed::Send() {
  if (buf_.empty()) return;
  const uint64_t now = obs::NowNs();  // One clock read per chunk.
  for (HandoffItem& item : buf_) item.enq_ns = now;
  channel_->PushAll(buf_);
  buf_.clear();
}

void ChannelFeed::SendDone() {
  HandoffItem done{Element(), port_};
  done.done = true;
  buf_.push_back(std::move(done));
  Send();
}

RunDelivery::RunDelivery(Operator* op, size_t max_run, bool columnar)
    : op_(op), max_run_(max_run), columnar_(columnar) {
  if (max_run_ > 1) rows_.reserve(max_run_);
}

uint64_t RunDelivery::Deliver(HandoffChannel::Batch& items,
                              const std::atomic<bool>& stop) {
  uint64_t deliveries = 0;
  size_t i = 0;
  while (i < items.size() && !stop.load(std::memory_order_relaxed)) {
    HandoffItem& head = items[i];
    if (head.cols != nullptr) {
      op_->ProcessColumns(*head.cols, head.port);
      ++i;
      ++deliveries;
      continue;
    }
    const int port = head.port;
    if (max_run_ <= 1) {
      op_->Process(head.e, port);
      ++i;
      continue;
    }
    const size_t end = std::min(items.size(), i + max_run_);
    rows_.clear();
    while (i < end && items[i].port == port && items[i].cols == nullptr) {
      rows_.push_back(std::move(items[i].e));
      ++i;
    }
    if (columnar_ && op_->SupportsColumns(port) &&
        ColumnBatch::FromRows(rows_, &cols_)) {
      op_->ProcessColumns(cols_, port);
    } else {
      op_->ProcessBatch(rows_, port);
    }
    ++deliveries;
  }
  return deliveries;
}

}  // namespace sqp
