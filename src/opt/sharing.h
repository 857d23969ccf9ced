#ifndef SQP_OPT_SHARING_H_
#define SQP_OPT_SHARING_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/tuple.h"
#include "common/value.h"
#include "window/window_buffer.h"

namespace sqp {

/// Shared evaluation of many range predicates over one numeric column
/// (slide 45: "sharing between select/project expressions"). Instead of
/// testing N predicates per tuple, an interval tree answers "which
/// queries match value v" in O(log N + answers).
class SharedRangeFilter {
 public:
  SharedRangeFilter() = default;

  /// Registers predicate lo <= x <= hi; returns the query id.
  int AddRange(double lo, double hi);

  /// Builds the index; call after all AddRange calls.
  void Build();

  /// Query ids whose range contains x.
  std::vector<int> Match(double x) const;

  /// Naive baseline for benchmarking: scan all predicates.
  std::vector<int> MatchNaive(double x) const;

  size_t num_queries() const { return ranges_.size(); }

 private:
  struct Range {
    double lo, hi;
    int id;
  };
  struct Node {
    double center;
    std::vector<Range> by_lo;  // Ranges containing center, sorted by lo.
    std::vector<Range> by_hi;  // Same ranges, sorted by hi descending.
    std::unique_ptr<Node> left, right;
  };

  std::unique_ptr<Node> BuildNode(std::vector<Range> ranges);
  void MatchNode(const Node* node, double x, std::vector<int>* out) const;

  std::vector<Range> ranges_;
  std::unique_ptr<Node> root_;
};

/// Shared sliding-window join (slide 45, [HFAE03]): M queries join the
/// same two streams on the same key but with different window lengths.
/// One operator maintains the *largest* window per side, as a keyed
/// `WindowBuffer` whose index its inserts and expiries keep in step; each
/// result pair is attributed to every query whose window admits it
/// (|ts1 - ts2| < w_q).
class SharedWindowJoin {
 public:
  /// `windows[q]` is query q's window length (time units).
  SharedWindowJoin(std::vector<int64_t> windows, std::vector<int> left_cols,
                   std::vector<int> right_cols);

  /// Feeds a tuple into side 0 (left) or 1 (right); per-query match
  /// counts accumulate in results().
  void Push(int side, const TupleRef& t);

  const std::vector<uint64_t>& results() const { return results_; }
  uint64_t probes() const { return counts_.hash_probes; }
  size_t StateBytes() const;

 private:
  std::vector<int64_t> windows_;
  int64_t max_window_;
  WindowBuffer buf_[2];
  std::vector<uint64_t> results_;
  ProbeCounts counts_;
};

}  // namespace sqp

#endif  // SQP_OPT_SHARING_H_
