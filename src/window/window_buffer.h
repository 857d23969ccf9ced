#ifndef SQP_WINDOW_WINDOW_BUFFER_H_
#define SQP_WINDOW_WINDOW_BUFFER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/fifo_log.h"
#include "common/tuple.h"
#include "dur/codec.h"
#include "window/window_spec.h"

namespace sqp {

/// The contents of one window (slides 26-28), built from a time-sliding
/// (ts in (now - T, now], `now` the largest ts seen), count-sliding (the
/// last N tuples) or landmark (every tuple from `start` on) `WindowSpec`.
/// Insert then expire is the KNV03 join's step (slide 32). Tuples sit on
/// a `FifoLog`, so a steady window never allocates; time expiry pops from
/// the front, so an in-window tuple that arrived out of order waits
/// behind the tuples before it.
class WindowBuffer {
 public:
  /// `keep_log`: whether a landmark window keeps its tuples in arrival
  /// order (sliding windows always do). Without a log it holds none, but
  /// still counts their bytes: its owner's index may hold them.
  explicit WindowBuffer(const WindowSpec& spec, bool keep_log = true);

  /// Adds `t`; tuples that leave go to `expired` (oldest first) when
  /// non-null. Returns false when `t` itself left on arrival (older than
  /// a time window's `ExpiryBound`, or before a landmark's start): then
  /// it is the last one reported.
  bool Insert(const TupleRef& t, std::vector<TupleRef>* expired = nullptr);
  /// Advances a time window's clock to `ts`; a no-op for the others.
  void AdvanceTo(int64_t ts, std::vector<TupleRef>* expired = nullptr);

  /// The oldest ts still admitted: the landmark start, now - T + 1 for a
  /// time window (saturating at INT64_MIN), INT64_MIN for a count window.
  int64_t ExpiryBound() const;
  /// A time window's clock; INT64_MIN until it moves.
  int64_t now() const { return now_; }
  WindowKind kind() const { return kind_; }
  /// False only for a landmark window built without its log.
  bool logs() const { return logs_; }
  /// The tuples in arrival order (none without a log).
  const FifoLog<TupleRef>& contents() const { return log_; }

  /// Bytes of the window's tuples: summed when asked for a sliding
  /// window; kept as tuples arrive for a landmark, which never shrinks,
  /// plus its log's references.
  size_t MemoryBytes() const;
  /// Empties the window, as built.
  void Clear();

  /// An owner's fields, written after each saved tuple and read back
  /// after each restored one (already in the window).
  using SaveEach = std::function<void(dur::BufWriter&, const TupleRef&)>;
  using RestoreEach = std::function<Status(dur::BufReader&, const TupleRef&)>;
  /// Layout: u8 kind, i64 clock (time windows only), u32 count, then the
  /// tuples in arrival order, each followed by what `each` writes.
  void Save(dur::BufWriter& w, const SaveEach& each = nullptr) const;
  /// Save for a landmark window without a log: the same layout over
  /// `held`, the tuples its owner holds, in the owner's order.
  void Save(dur::BufWriter& w, const std::vector<TupleRef>& held) const;
  /// Inverse of Save into this window, emptied first. Returns a Status,
  /// never asserts, for another kind, a truncated state, a tuple outside
  /// the window or a clock out of range. A landmark window without a log
  /// counts its tuples and leaves holding them to `each`.
  Status Restore(dur::BufReader& r, const RestoreEach& each = nullptr);

 private:
  void Expire(std::vector<TupleRef>* expired);
  /// Save's layout up to the tuples: kind, clock, count.
  void SaveHeader(dur::BufWriter& w, size_t n) const;

  WindowKind kind_;
  bool logs_;
  int64_t size_;
  int64_t start_;
  int64_t now_ = INT64_MIN;
  size_t admitted_bytes_ = 0;  ///< Landmark only.
  FifoLog<TupleRef> log_;
};

}  // namespace sqp

#endif  // SQP_WINDOW_WINDOW_BUFFER_H_
