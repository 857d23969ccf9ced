#ifndef SQP_AGG_PARTIAL_AGG_H_
#define SQP_AGG_PARTIAL_AGG_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "agg/agg_set.h"
#include "common/key_table.h"
#include "common/tuple.h"

namespace sqp {

/// A group's partial state flowing from the low level to the high level.
struct PartialGroup {
  Key key;
  AggSet::Accs accs;
};

/// Counters for the partial-aggregation experiments (E5).
struct PartialAggStats {
  uint64_t tuples_in = 0;
  /// Groups emitted early because their slot was stolen (collision).
  uint64_t evictions = 0;
  /// Groups emitted at flush.
  uint64_t flushed = 0;
};

/// Gigascope's low-level partial aggregation (slide 37).
///
/// The low level (inside the NIC driver, in the real system) can afford
/// only a fixed number of group slots. Groups hash into a direct-mapped
/// table; a colliding new group evicts the resident group, which is
/// emitted downstream as a *partial* aggregate. The high level
/// (`FinalAggregator`) merges partials, so results are exact while the
/// low level runs in constant memory and constant per-tuple time — the
/// property that "reduces drops".
class PartialAggregator {
 public:
  /// `slots == 0` means unbounded (degenerates to a full hash aggregate).
  PartialAggregator(size_t slots, std::vector<int> key_cols,
                    std::vector<AggSpec> aggs);

  /// Folds one tuple in. Evicted partial groups are appended to `out`.
  void Add(const Tuple& t, std::vector<PartialGroup>* out);

  /// Emits all resident groups (end of time bucket / end of stream).
  void Flush(std::vector<PartialGroup>* out);

  const PartialAggStats& stats() const { return stats_; }
  size_t resident_groups() const;
  size_t MemoryBytes() const;

 private:
  struct Slot {
    bool occupied = false;
    PartialGroup group;
  };


  size_t slots_;
  std::vector<int> key_cols_;
  AggSet aggs_;
  // Fixed table when slots_ > 0; unbounded table otherwise, whose
  // flushed entries stay dead, their accumulators moved out.
  std::vector<Slot> table_;
  KeyTable<AggSet::Accs> unbounded_;
  PartialAggStats stats_;
};

/// High-level merger of partial groups; holds the exact final answer.
class FinalAggregator {
 public:
  /// Partials arrive with their own accumulators, so the high level
  /// builds none from `aggs`; they only name what the partials carry.
  explicit FinalAggregator(const std::vector<AggSpec>& /*aggs*/) {}

  void Merge(PartialGroup group);

  /// Final (key, aggregate values) rows.
  std::vector<std::pair<Key, std::vector<Value>>> Results() const;

  size_t num_groups() const { return groups_.size(); }

 private:
  KeyTable<AggSet::Accs> groups_;
};

}  // namespace sqp

#endif  // SQP_AGG_PARTIAL_AGG_H_
