#ifndef SQP_EXEC_PUNCT_GROUPBY_H_
#define SQP_EXEC_PUNCT_GROUPBY_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "agg/agg_set.h"
#include "dur/checkpointable.h"
#include "exec/operator.h"
#include "exec/sharding.h"

namespace sqp {

/// Grouped aggregation whose groups close on punctuations [TMSF03]
/// (slide 28): the auction pattern. Tuples fold into per-key
/// accumulators; a CloseKey punctuation emits and retires that key's
/// row; a watermark closes every group whose last activity is at or
/// below it; Flush closes the rest.
///
/// Output row: [ts = close time, key, agg...]. Unlike the tumbling
/// GroupByAggregateOp, window extent here is *data-dependent*: the
/// application, not the clock, decides when a group is complete.
class PunctuationGroupByOp : public Operator,
                             public ShardableOperator,
                             public CheckpointableOperator {
 public:
  /// `key_col` both partitions tuples and matches CloseKey punctuations.
  PunctuationGroupByOp(int key_col, std::vector<AggSpec> aggs,
                       std::string name = "punct-group-by");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  /// Columnar ingest: keys and aggregate inputs are read straight from
  /// the typed arrays (no per-row Tuple materialization); group rows and
  /// punctuations still emit through the row path, so this operator is a
  /// natural row/column boundary.
  bool SupportsColumns(int port = 0) const override {
    (void)port;
    return true;
  }

  size_t open_groups() const { return groups_.size(); }

  /// Single-column key: CloseKey punctuations hash-route (via
  /// OneValueKeyHash) to the same shard as the group's tuples, so
  /// data-dependent close-out works unchanged under disjoint sharding.
  std::unique_ptr<Operator> CloneReplica() const override {
    return std::make_unique<PunctuationGroupByOp>(key_col_, aggs_.specs(),
                                                  name());
  }
  std::vector<std::vector<int>> ShardKeyColumns() const override {
    return {{key_col_}};
  }
  bool CanShard(std::string* /*why*/) const override { return true; }

  /// Checkpointing: every open group (accumulators + last activity ts)
  /// round-trips exactly, unless an aggregate is sketch-backed.
  bool CanCheckpointState(std::string* why) const override {
    return aggs_.CanCheckpoint(why);
  }
  void SaveState(dur::BufWriter& w) const override;
  Status RestoreState(dur::BufReader& r) override;

 protected:
  void PushColumns(ColumnBatch& batch, int port) override;

 private:
  struct GroupState {
    AggSet::Accs accs;
    int64_t last_ts = INT64_MIN;
  };

  void EmitGroup(int64_t close_ts, const Value& key, GroupState& state);
  /// Punctuation body shared by Push and PushColumns (close-outs + the
  /// pass-through emission).
  void HandlePunct(const Punctuation& p);
  /// Folds one physical row of a columnar batch into its group.
  void FoldRow(const ColumnBatch& batch, uint32_t row);

  int key_col_;
  AggSet aggs_;
  std::unordered_map<Value, GroupState, ValueHash> groups_;
};

}  // namespace sqp

#endif  // SQP_EXEC_PUNCT_GROUPBY_H_
