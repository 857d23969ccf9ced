#ifndef SQP_WINDOW_WINDOW_BUFFER_H_
#define SQP_WINDOW_WINDOW_BUFFER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/fifo_log.h"
#include "common/key_table.h"
#include "common/tuple.h"
#include "dur/codec.h"
#include "window/window_spec.h"

namespace sqp {

/// What match lookups cost: the E3 join counters.
struct ProbeCounts {
  /// Index probes.
  uint64_t hash_probes = 0;
  /// Tuples compared by window scans.
  uint64_t nl_comparisons = 0;
};

/// The contents of one window (slides 26-28), built from a time-sliding
/// (ts in (now - T, now], `now` the largest ts seen), count-sliding (the
/// last N tuples) or landmark (every tuple from `start` on) `WindowSpec`,
/// optionally keyed: a hash index on key columns that every insert and
/// expiry keeps in step with the window. Insert then expire is the KNV03
/// join's step (slide 32), index invalidation included.
///
/// Tuples sit on a `FifoLog`, so a steady window never allocates. A time
/// window keeps it in ts order, stable for equal ts: a tuple that arrives
/// out of order goes in from the tail, behind the newer ones, and leaves
/// when its own ts expires. Count and landmark windows keep arrival order.
/// An index entry holds its key's tuples in the same order; an entry
/// whose last tuple left stays in the `KeyTable`, with its vector's
/// capacity, for the next new key.
class WindowBuffer {
 public:
  /// `keep_log`: whether a landmark window keeps its tuples in arrival
  /// order (sliding windows always do). Without a log it holds none, but
  /// still counts their bytes: its index, when it has one, holds them.
  /// `key_cols`: the columns `ForEachMatch` compares; `indexed`: whether
  /// a hash index on them answers it, instead of a scan of the log.
  explicit WindowBuffer(const WindowSpec& spec, bool keep_log = true,
                        std::vector<int> key_cols = {}, bool indexed = false);

  /// Adds `t`; tuples that leave go to `expired` (oldest first) when
  /// non-null. Returns false when `t` itself left on arrival (older than
  /// a time window's `ExpiryBound`, or before a landmark's start): then
  /// it is the last one reported.
  bool Insert(const TupleRef& t, std::vector<TupleRef>* expired = nullptr);
  /// Advances a time window's clock to `ts`; a no-op for the others.
  void AdvanceTo(int64_t ts, std::vector<TupleRef>* expired = nullptr);

  /// Calls `fn(const TupleRef&)` on each tuple whose key columns equal
  /// `key`, in window order. An indexed window probes its index (one
  /// `hash_probes`); otherwise it scans its log (one `nl_comparisons` per
  /// tuple). `counts` may be null.
  template <typename Fn>
  void ForEachMatch(const KeyView& key, ProbeCounts* counts, Fn&& fn) const {
    if (indexed_) {
      if (counts != nullptr) ++counts->hash_probes;
      const Index::Entry* entry = index_.Find(key);
      if (entry == nullptr) return;
      for (const TupleRef& t : entry->value) fn(t);
      return;
    }
    for (const TupleRef& t : log_) {
      if (counts != nullptr) ++counts->nl_comparisons;
      bool eq = key_cols_.size() == key.size();
      for (size_t c = 0; eq && c < key_cols_.size(); ++c) {
        eq = t->at(static_cast<size_t>(key_cols_[c])) == key.part(c);
      }
      if (eq) fn(t);
    }
  }

  /// The oldest ts still admitted: the landmark start, now - T + 1 for a
  /// time window (saturating at INT64_MIN), INT64_MIN for a count window.
  int64_t ExpiryBound() const;
  /// A time window's clock; INT64_MIN until it moves.
  int64_t now() const { return now_; }
  WindowKind kind() const { return kind_; }
  const std::vector<int>& key_cols() const { return key_cols_; }
  /// False only for a landmark window built without its log.
  bool logs() const { return logs_; }
  /// The tuples in window order (none without a log).
  const FifoLog<TupleRef>& contents() const { return log_; }

  /// Bytes of the window's tuples: summed when asked for a sliding
  /// window; kept as tuples arrive for a landmark, which never shrinks,
  /// plus its log's references. An index adds its entries, dead ones
  /// included, and a sliding window's references.
  size_t MemoryBytes() const;
  /// Empties the window and its index, as built.
  void Clear();

  /// An owner's fields, written after each saved tuple and read back
  /// after each restored one (already in the window).
  using SaveEach = std::function<void(dur::BufWriter&, const TupleRef&)>;
  using RestoreEach = std::function<Status(dur::BufReader&, const TupleRef&)>;
  /// Layout: u8 kind, i64 clock (time windows only), u32 count, then the
  /// tuples in window order (key by key, each key's in arrival order, for
  /// a landmark window that only its index holds), each followed by what
  /// `each` writes.
  void Save(dur::BufWriter& w, const SaveEach& each = nullptr) const;
  /// Inverse of Save into this window, emptied first; the index is
  /// rebuilt as the tuples go back in. Returns a Status, never asserts,
  /// for another kind, a truncated state, a tuple outside the window or
  /// narrower than the key, or a clock out of range.
  Status Restore(dur::BufReader& r, const RestoreEach& each = nullptr);

 private:
  using Index = KeyTable<std::vector<TupleRef>>;

  void Expire(std::vector<TupleRef>* expired);
  /// Moves the log's oldest tuple to `expired` (when non-null) and takes
  /// it out of the index.
  void PopFront(std::vector<TupleRef>* expired);
  /// Puts `t` at the back of `log`, or for a time window behind the
  /// tuples with a larger ts.
  template <typename Log>
  void Place(Log& log, const TupleRef& t) const {
    auto pos = log.end();
    if (kind_ == WindowKind::kTimeSliding) {
      while (pos != log.begin() && (*(pos - 1))->ts() > t->ts()) --pos;
    }
    log.insert(pos, t);
  }

  WindowKind kind_;
  bool logs_;
  bool indexed_;
  int64_t size_;
  int64_t start_;
  int64_t now_ = INT64_MIN;
  size_t admitted_bytes_ = 0;  ///< Landmark only.
  std::vector<int> key_cols_;
  FifoLog<TupleRef> log_;
  /// KeyView-probed: inserts and expiries of existing keys never
  /// allocate for lookups.
  Index index_;
};

}  // namespace sqp

#endif  // SQP_WINDOW_WINDOW_BUFFER_H_
