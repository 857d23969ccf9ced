#ifndef SQP_ARCH_SYSTEM_H_
#define SQP_ARCH_SYSTEM_H_

#include <memory>
#include <string>
#include <vector>

#include "agg/partial_agg.h"
#include "arch/db_sink.h"
#include "arch/decompose.h"
#include "exec/aggregate_op.h"
#include "exec/plan.h"
#include "exec/project.h"
#include "sched/queued_executor.h"

namespace sqp {

/// The physical operator wrapping Gigascope's low-level partial
/// aggregation (slide 37): a fixed-slot group table per tumbling bucket.
/// Collisions evict the resident group downstream as a *partial* result;
/// bucket close-out flushes all residents. Output layout:
/// [ts = bucket start, keys..., low agg values...].
class PartialAggOp : public Operator {
 public:
  PartialAggOp(size_t slots, std::vector<int> key_cols,
               std::vector<AggSpec> low_specs, int64_t window_size,
               std::string name = "partial-agg");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  const PartialAggStats& agg_stats() const;

 private:
  void EmitPartials(std::vector<PartialGroup>* groups);
  void CloseBucket();

  int64_t window_size_;
  int64_t current_bucket_ = INT64_MIN;
  std::unique_ptr<PartialAggregator> agg_;
};

/// Resource profile of one DSMS level (slide 15): the low level is
/// memory- and CPU-limited; the high level is richer.
struct NodeOptions {
  /// Input queue bound in elements (0 = unbounded). Overflow drops: the
  /// drops the tutorial's low-level engineering fights (slide 53).
  size_t queue_limit = 0;
  /// Elements processed per Tick().
  double capacity_per_tick = 1.0;
};

/// Configuration of the end-to-end 3-level pipeline (slide 14):
/// low-level DSMS (bounded groups) -> high-level DSMS (exact merge)
/// -> DBMS (stored relation).
struct ThreeLevelConfig {
  /// Grouping columns of the input schema.
  std::vector<int> key_cols;
  /// The query's aggregates (must be decomposable).
  std::vector<AggSpec> aggs;
  /// Tumbling window width (time units) for per-bucket results.
  int64_t window_size = 60;
  /// Group slots available at the low level (0 = unbounded).
  size_t low_slots = 64;
  /// Optional WHERE predicate, evaluated at the low level before
  /// aggregation (selection pushdown to the observation point).
  ExprRef prefilter;
  NodeOptions low_node{1024, 8.0};
  NodeOptions high_node{0, 64.0};
};

/// Wires the full architecture and owns all operators. Each DSMS level
/// is a one-stage `QueuedExecutor` under the FIFO policy: a bounded input
/// queue in front of its operators, granted its capacity per tick. Input
/// tuples `Arrive` at the low level; final exact per-bucket aggregates
/// land in the DBMS relation (`db()`).
class ThreeLevelSystem {
 public:
  static Result<std::unique_ptr<ThreeLevelSystem>> Make(
      SchemaRef input_schema, ThreeLevelConfig config);

  /// Feeds one input tuple to the low level; false = dropped at entry.
  bool Arrive(const TupleRef& t);

  /// One time unit of processing at both DSMS levels.
  void Tick();

  /// Finishes the stream: drains queues and flushes all levels.
  void Drain();

  QueuedExecutor& low_node() { return *low_; }
  QueuedExecutor& high_node() { return *high_; }
  const DbSink& db() const { return *db_; }
  const PartialAggOp& partial_agg() const { return *partial_; }

 private:
  ThreeLevelSystem() = default;

  ThreeLevelConfig config_;
  Plan plan_;
  PartialAggOp* partial_ = nullptr;
  GroupByAggregateOp* final_agg_ = nullptr;
  DbSink* db_ = nullptr;
  std::unique_ptr<QueuedExecutor> low_;
  std::unique_ptr<QueuedExecutor> high_;
  std::unique_ptr<Operator> low_to_high_;  // Callback bridging the levels.
};

}  // namespace sqp

#endif  // SQP_ARCH_SYSTEM_H_
