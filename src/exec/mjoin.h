#ifndef SQP_EXEC_MJOIN_H_
#define SQP_EXEC_MJOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "exec/operator.h"
#include "window/window_buffer.h"

namespace sqp {

/// N-way sliding-window star equijoin (MJoin; [GO03, VNB03] — the
/// "sliding window multi-joins" work the tutorial cites). All streams
/// join on one attribute each (all equal). A new tuple from stream i
/// probes every other stream's window and emits the cross-product of
/// matches — no intermediate materialized join trees. Each window is a
/// keyed `WindowBuffer` whose index its own inserts and expiries keep in
/// step; the join keeps only the probe order and the rows it emits.
///
/// The probe *order* does not change results, but it changes work: probing
/// the most selective (fewest-matches) stream first prunes earliest.
/// `adaptive_order == true` reorders probes by current match counts per
/// probe (the [VNB03] heuristic); otherwise probes go in stream order.
class MultiWindowJoinOp : public Operator {
 public:
  struct StreamSpec {
    /// Join column within this stream's tuples.
    int key_col = 0;
    /// Sliding time window length.
    int64_t window = 100;
  };

  struct Options {
    std::vector<StreamSpec> streams;  // One per input port.
    bool adaptive_order = true;
  };

  explicit MultiWindowJoinOp(Options options, std::string name = "mjoin");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  /// Partial-match tuples visited during probing (the cost the probe
  /// order optimizes).
  uint64_t partial_results() const { return partials_; }
  uint64_t results() const { return results_; }

 private:
  void EmitCombined(const std::vector<const Tuple*>& parts, int64_t ts);

  Options options_;
  /// One keyed window per stream, indexed on its join column.
  std::vector<WindowBuffer> windows_;
  /// Each other stream's matches for the arriving tuple; reused.
  std::vector<std::vector<const Tuple*>> matches_;
  uint64_t partials_ = 0;
  uint64_t results_ = 0;
  int flushes_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_MJOIN_H_
