#ifndef SQP_EXEC_HANDOFF_H_
#define SQP_EXEC_HANDOFF_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exec/column_batch.h"
#include "exec/operator.h"
#include "stream/channel.h"

namespace sqp {

/// One slot of an executor hand-off channel: a row element, or a whole
/// columnar batch crossing the thread boundary without materialization.
struct HandoffItem {
  HandoffItem() = default;
  HandoffItem(Element elem, int in_port) : e(std::move(elem)), port(in_port) {}

  Element e;
  /// Input port of the receiving operator (the shard index on the way
  /// into a ShardedOp's merge).
  int port = 0;
  std::unique_ptr<ColumnBatch> cols;
  /// Enqueue time for queue-wait attribution (0 = unstamped).
  uint64_t enq_ns = 0;
  /// End-of-producer marker: a shard's last item into the merge.
  bool done = false;

  /// Elements this item charges against the channel: 1 for a row
  /// element; live rows plus punctuation slots for a columnar batch
  /// (min 1, so a fully filtered batch still holds a slot).
  size_t Weight() const {
    if (cols == nullptr) return 1;
    size_t w = cols->ActiveRows() + cols->puncts.size();
    return w == 0 ? 1 : w;
  }
  bool Bypass() const {
    return done || (cols == nullptr && e.is_punctuation());
  }
  /// A shed columnar batch loses only its data rows: its punctuation
  /// slots are re-queued in order as row elements.
  template <typename Keep>
  size_t Shed(Keep&& keep) {
    if (cols == nullptr) return 1;
    for (ColumnBatch::PunctSlot& ps : cols->puncts) {
      keep(HandoffItem{Element(std::move(ps.punct)), port});
    }
    return cols->ActiveRows();
  }
};

using HandoffChannel = Channel<HandoffItem>;

/// The output end of a stage or shard: runs on the producing worker as
/// its operator's downstream, buffers emissions, and sends them into the
/// channel a chunk at a time (one lock acquisition and at most one
/// wakeup per chunk). A punctuation sends at once, after the tuples
/// buffered before it. Flush only sends: closing the channel is the
/// owner's job, once its worker has flushed.
class ChannelFeed : public Operator {
 public:
  /// `columns`: pass columnar batches through intact (a downstream stage
  /// can take them); otherwise they are materialized into rows here.
  ChannelFeed(HandoffChannel* channel, int port, size_t batch, bool columns);

  void Push(const Element& e, int port = 0) override;
  void Flush() override { Send(); }
  bool SupportsColumns(int /*port*/ = 0) const override { return columns_; }

  /// Hands the buffered chunk to the channel.
  void Send();
  /// Queues an end-of-producer marker behind everything sent so far.
  void SendDone();

 protected:
  void PushBatch(ElementBatch& batch, int port) override;
  void PushColumns(ColumnBatch& batch, int port) override;

 private:
  HandoffChannel* channel_;
  int port_;
  size_t batch_;
  bool columns_;
  std::vector<HandoffItem> buf_;
};

/// Delivers claimed hand-off items to one operator in order: the one
/// delivery loop of ParallelExecutor stage workers and ShardedOp shard
/// workers. Owns the scratch batches so they stay warm across claims.
class RunDelivery {
 public:
  /// `max_run` <= 1 delivers each row element as one Process call.
  /// Otherwise each same-port run of at most `max_run` row elements is
  /// one call: ProcessColumns when `columnar`, the operator supports
  /// columns on that port and ColumnBatch::FromRows succeeds (uniform
  /// rows), ProcessBatch otherwise. Columnar items go whole.
  RunDelivery(Operator* op, size_t max_run, bool columnar);

  /// Moves the items into the operator, stopping early once `stop` is
  /// set. Returns the batched deliveries (ProcessBatch/ProcessColumns
  /// calls) made.
  uint64_t Deliver(HandoffChannel::Batch& items,
                   const std::atomic<bool>& stop);

 private:
  Operator* op_;
  size_t max_run_;
  bool columnar_;
  ElementBatch rows_;
  ColumnBatch cols_;
};

}  // namespace sqp

#endif  // SQP_EXEC_HANDOFF_H_
