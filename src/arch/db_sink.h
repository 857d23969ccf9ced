#ifndef SQP_ARCH_DB_SINK_H_
#define SQP_ARCH_DB_SINK_H_

#include <memory>
#include <string>
#include <vector>

#include "agg/agg_set.h"
#include "common/schema.h"
#include "exec/expr.h"
#include "exec/operator.h"

namespace sqp {

/// The DBMS at the top of the 3-level architecture (slides 14-15): a
/// stored, persistent relation fed by the high-level DSMS. Supports
/// one-time (transient) queries over the stored data — the "audit the
/// stream system's answers" role the tutorial assigns to the database.
class DbSink : public Operator {
 public:
  explicit DbSink(SchemaRef schema, std::string name = "db");

  void Push(const Element& e, int port = 0) override;
  size_t StateBytes() const override;

  const SchemaRef& schema() const { return schema_; }
  size_t size() const { return table_.size(); }
  const std::vector<TupleRef>& table() const { return table_; }

  /// One-time selection: all stored tuples satisfying `pred` (nullptr =
  /// all).
  std::vector<TupleRef> Scan(const ExprRef& pred) const;

  /// One-time grouped aggregation over the stored relation.
  std::vector<std::pair<Key, std::vector<Value>>> Aggregate(
      const std::vector<int>& key_cols, const std::vector<AggSpec>& aggs,
      const ExprRef& pred = nullptr) const;

 private:
  SchemaRef schema_;
  std::vector<TupleRef> table_;
  size_t bytes_ = 0;
};

}  // namespace sqp

#endif  // SQP_ARCH_DB_SINK_H_
