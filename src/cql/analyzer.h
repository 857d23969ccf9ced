#ifndef SQP_CQL_ANALYZER_H_
#define SQP_CQL_ANALYZER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "agg/agg_set.h"
#include "common/schema.h"
#include "cql/ast.h"
#include "exec/expr.h"
#include "opt/memory_bound.h"

namespace sqp {
namespace cql {

/// A registered stream: schema plus per-field domain metadata used by the
/// bounded-memory analysis.
struct CatalogEntry {
  SchemaRef schema;
  std::vector<FieldDomain> domains;  // Parallel to schema fields.
};

/// Name -> stream registry.
class Catalog {
 public:
  /// Registers a stream. Missing domains default to unbounded.
  Status Register(const std::string& name, SchemaRef schema,
                  std::vector<FieldDomain> domains = {});

  const CatalogEntry* Lookup(const std::string& name) const;

 private:
  std::map<std::string, CatalogEntry> entries_;
};

/// An aggregate discovered in SELECT/HAVING, in canonical order.
struct ResolvedAgg {
  AggSpec spec;             // input_col indexes the combined layout.
  std::string text;         // Canonical AST text for dedup ("sum(len)").
};

/// The analyzer's output: everything the planner needs.
struct AnalyzedQuery {
  Query ast;
  int num_streams = 1;
  std::vector<const CatalogEntry*> entries;
  /// Combined input layout: stream0 fields then stream1 fields; names
  /// prefixed with "<alias>_" when ambiguous across streams.
  Schema combined;
  std::vector<FieldDomain> combined_domains;
  /// Offset of each stream's fields in the combined layout.
  std::vector<int> stream_offset;

  /// WHERE split into conjuncts, each classified by the streams it
  /// references. For 2-stream queries, equality conjuncts across streams
  /// become the join condition.
  std::vector<ExprRef> left_only;    // Over stream 0's own schema.
  std::vector<ExprRef> right_only;   // Over stream 1's own schema.
  std::vector<ExprRef> residual;     // Over the combined layout.
  std::vector<int> join_left_cols;   // Stream-0 column indexes.
  std::vector<int> join_right_cols;  // Stream-1 column indexes.

  /// Grouping: plain combined-layout columns...
  std::vector<int> group_cols;
  /// ...plus at most one `ordering/K` window expression.
  int64_t tumbling_size = 0;
  bool has_group_by = false;

  /// Aggregates in canonical order (SELECT order, then HAVING-only).
  std::vector<ResolvedAgg> aggs;
  bool has_aggregates = false;

  /// [ABB+02] verdict for the query.
  MemoryAnalysis memory;
};

/// Resolves and validates a parsed query against the catalog.
Result<AnalyzedQuery> Analyze(const Query& query, const Catalog& catalog);

/// Lowers an AST scalar expression to an executable Expr over `schema`,
/// resolving identifiers by (optional) qualifier and name.
/// `alias_of_stream[i]` names stream i; `offset[i]` is its first column.
Result<ExprRef> LowerExpr(const AstExprRef& ast,
                          const std::vector<std::string>& aliases,
                          const std::vector<SchemaRef>& schemas,
                          const std::vector<int>& offsets);

}  // namespace cql
}  // namespace sqp

#endif  // SQP_CQL_ANALYZER_H_
