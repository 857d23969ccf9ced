#ifndef SQP_SERVER_SESSION_H_
#define SQP_SERVER_SESSION_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/tuple.h"

namespace sqp {

class QueryHandle;

namespace server {

/// Full-queue behavior of one session's result queue.
enum class SessionOverflow {
  /// Producer (the engine's delivery thread) waits up to block_ms for
  /// the client to acknowledge rows, then drops — bounded backpressure.
  kBlock,
  /// Producer drops the arriving row immediately (tail drop) and counts
  /// it: a slow client loses fresh rows but never stalls the engine.
  kDrop,
};

struct ResultQueueOptions {
  /// Unacknowledged rows retained per client.
  size_t limit = 1024;
  SessionOverflow overflow = SessionOverflow::kBlock;
  /// kBlock: longest a full queue stalls the producer before dropping
  /// anyway (a detached client must not wedge ingest forever). 0 waits
  /// indefinitely.
  int block_ms = 5000;
};

/// One result row awaiting delivery: a contiguous sequence number (the
/// cursor domain) plus the tuple itself.
struct SessionRow {
  uint64_t seq = 0;
  TupleRef tuple;
  /// {"ts":...,"row":[...]} fragment, rendered once at enqueue (off the
  /// queue lock): re-polls, reattaches at an old cursor, and repeated
  /// long-poll rounds re-send the cached bytes instead of re-encoding
  /// the tuple each time.
  std::string json;
};

/// The bounded per-client output queue between one standing query's sink
/// and the HTTP delivery path, with cursor-acknowledged retention:
///
///   - The producer appends rows with contiguous seq numbers (dropped
///     rows never consume a seq, so the stored stream has no holes).
///   - Rows are retained until the client ACKNOWLEDGES them by asking
///     for a higher cursor (Ack), so a client that detaches mid-stream
///     and reattaches at its last processed seq observes no gaps and no
///     duplicates.
///   - Capacity counts unacknowledged rows. At the limit the producer
///     blocks (bounded by block_ms) or tail-drops, per options.
///
/// Thread model: one producer (whichever thread drives the query's
/// sink), any number of reader threads (HTTP connections — typically one
/// at a time per client, but nothing breaks if a client overlaps).
///
/// Not a sqp::Channel: a Channel hands each item to one consumer once,
/// while this queue keeps rows after a read until a cursor acknowledges
/// them, lets several readers re-read from any retained seq, and times
/// out a blocked producer. Folding that in would make Channel branch on
/// which caller it serves.
class ResultQueue {
 public:
  explicit ResultQueue(ResultQueueOptions options);

  /// Appends one row. Returns false when the row was dropped (queue full
  /// past the block deadline, or queue closed).
  bool Push(const TupleRef& tuple);

  /// Marks end-of-stream: readers drain what is queued, then see
  /// finished. Idempotent.
  void Finish();

  /// Teardown: unblocks every waiter (producers and readers) and drops
  /// all further pushes. Idempotent.
  void Close();

  /// Acknowledges rows below `cursor`: trims them, frees capacity, wakes
  /// blocked producers.
  void Ack(uint64_t cursor);

  struct Wait {
    std::vector<SessionRow> rows;  // Rows with seq >= the requested cursor.
    bool finished = false;         // No row >= cursor will ever exist.
    bool closed = false;
    bool full = false;  // Queue at capacity (a blocked producer is likely).
  };
  /// Copies out up to `max_rows` rows with seq >= `cursor`, waiting until
  /// `deadline` for at least one to exist. Does not trim — trimming is
  /// the client's explicit Ack. `finished` is set only once the queue is
  /// finished AND drained past `cursor`.
  Wait WaitRows(uint64_t cursor, size_t max_rows,
                std::chrono::steady_clock::time_point deadline);

  // Counters (atomics: read by the metrics collector off-thread).
  uint64_t produced() const {
    return produced_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }
  uint64_t acked() const { return acked_.load(std::memory_order_relaxed); }
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  /// Rows produced but not yet acknowledged — the client's lag.
  uint64_t lag() const {
    uint64_t p = produced();
    uint64_t a = acked();
    return p > a ? p - a : 0;
  }
  uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_relaxed);
  }
  bool finished() const { return finished_.load(std::memory_order_relaxed); }
  bool closed() const { return closed_.load(std::memory_order_relaxed); }

  const ResultQueueOptions& options() const { return options_; }

 private:
  ResultQueueOptions options_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;   // Producer waits (kBlock).
  std::condition_variable not_empty_;  // Readers wait (long-poll).
  std::deque<SessionRow> rows_;        // Unacked rows, seq-contiguous.

  std::atomic<uint64_t> next_seq_{0};
  std::atomic<uint64_t> produced_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> acked_{0};
  std::atomic<size_t> depth_{0};
  std::atomic<bool> finished_{false};
  std::atomic<bool> closed_{false};
};

/// JSON rendering for result delivery: one Value ("42", "3.5", "\"abc\"",
/// "null") and one tuple as {"ts":T,"row":[...]} fragments. The Append
/// forms build into an existing buffer (reserving capacity up front)
/// so batch encoding pays no per-value temporary strings; the returning
/// forms delegate to them.
void AppendValueJson(const Value& v, std::string* out);
void AppendRowJson(const Tuple& t, std::string* out);
std::string ValueJson(const Value& v);
std::string RowJson(const Tuple& t);

/// One client's standing query: the session id, the engine-side handle,
/// and the bounded result queue its output callback feeds.
struct Session {
  std::string id;
  std::string query_text;
  std::string schema;
  std::string plan;
  std::string policy;  // "block" | "drop" | "shed" (as admitted).
  QueryHandle* handle = nullptr;  // Engine-owned; null after removal.
  ResultQueue queue;
  std::atomic<bool> removed{false};  // Engine-side teardown done.

  Session(std::string id_in, std::string query_in, ResultQueueOptions qopts)
      : id(std::move(id_in)),
        query_text(std::move(query_in)),
        queue(qopts) {}

  /// {"session":...,"query":...,...} status document (the GET
  /// /session/<id> payload). `shed_rate`/`shed_dropped` < 0 omit the
  /// shedding fields.
  std::string InfoJson(double shed_rate, uint64_t shed_dropped) const;
};

}  // namespace server
}  // namespace sqp

#endif  // SQP_SERVER_SESSION_H_
