#ifndef SQP_EXEC_PARTITIONED_WINDOW_AGG_H_
#define SQP_EXEC_PARTITIONED_WINDOW_AGG_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/partial_agg.h"
#include "exec/operator.h"
#include "window/count_window.h"

namespace sqp {

/// CQL's partitioned window (slide 26 "variants"; `[partition by K
/// rows N]`): each partition key maintains its *own* window of the last
/// N rows, and each arriving tuple emits the aggregate over its
/// partition's current window.
///
/// Output row: [ts, partition key, agg values...]. Accumulators come from
/// `NewSlidingAccumulator()`, so every exact aggregate evicts the oldest
/// row incrementally; only blend and the sketches replay the partition's
/// window on eviction.
class PartitionedWindowAggregateOp : public Operator {
 public:
  PartitionedWindowAggregateOp(int partition_col, size_t rows,
                               std::vector<AggSpec> aggs,
                               std::string name = "partitioned-window-agg");

  void Push(const Element& e, int port = 0) override;
  size_t StateBytes() const override;

  size_t num_partitions() const { return parts_.size(); }
  /// Number of window replays triggered by aggregates that cannot evict.
  uint64_t recompute_count() const { return recomputes_; }

 private:
  struct Partition {
    CountWindowBuffer window;
    std::vector<std::unique_ptr<Accumulator>> accs;

    explicit Partition(size_t rows) : window(rows) {}
  };

  Value InputOf(size_t i, const Tuple& t) const;
  /// Rebuilds the accumulators that cannot evict from `p`'s window.
  void Recompute(Partition& p);

  int partition_col_;
  size_t rows_;
  std::vector<AggSpec> agg_specs_;
  std::vector<AggregateFunction> fns_;
  std::unordered_map<Value, Partition, ValueHash> parts_;
  uint64_t recomputes_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_PARTITIONED_WINDOW_AGG_H_
