#ifndef SQP_ARCH_DECOMPOSE_H_
#define SQP_ARCH_DECOMPOSE_H_

#include <string>
#include <vector>

#include "agg/agg_set.h"
#include "common/status.h"
#include "exec/expr.h"

namespace sqp {

/// Two-level decomposition of a grouped aggregation (slides 37 and 54):
/// the resource-limited low level computes *partial* aggregates in
/// constant memory; the high level merges partials and finalizes.
///
/// Low-level output layout per group: [ts, keys..., low_aggs...].
/// High-level runs `high_specs` over that layout (grouping by the same
/// keys) and produces [ts, keys..., high_aggs...]; `finalizers` then map
/// that layout to the query's aggregate values (e.g. avg = sum/count).
struct DecomposedAggregate {
  std::vector<AggSpec> low_specs;
  std::vector<AggSpec> high_specs;
  /// One expression per original aggregate, over the high-level output
  /// layout [ts, keys..., high_aggs...].
  std::vector<ExprRef> finalizers;
};

/// Decomposes the aggregate list of a query with `num_keys` grouping
/// columns. Fails with Unimplemented for holistic aggregates (median,
/// count_distinct): those cannot be decomposed exactly — the tutorial's
/// answer is synopses (slide 38).
///
/// `agg_input_cols[i]` is the input column (combined layout) of original
/// aggregate i; count(*) uses -1.
Result<DecomposedAggregate> DecomposeAggregates(
    const std::vector<AggSpec>& aggs, int num_keys);

}  // namespace sqp

#endif  // SQP_ARCH_DECOMPOSE_H_
