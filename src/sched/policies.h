#ifndef SQP_SCHED_POLICIES_H_
#define SQP_SCHED_POLICIES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sqp {

/// What a scheduling policy sees about one operator of a chain at a
/// scheduling decision point.
struct OpView {
  /// Tuples waiting in the operator's input queue.
  size_t queue_len = 0;
  /// Arrival sequence number of the queue head (global order); used by
  /// FIFO and as a tie-breaker. UINT64_MAX when empty.
  uint64_t head_seq = UINT64_MAX;
  /// Size (in memory units) of the queue-head tuple.
  double head_size = 0.0;
  /// Operator selectivity (output size per input size).
  double selectivity = 1.0;
  /// Time units to process one tuple.
  double cost = 1.0;
};

/// Picks which operator runs next. Returns -1 when all queues are empty.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual int Pick(const std::vector<OpView>& ops) = 0;

  /// Whether Pick reads OpView::head_size, which costs the executor a
  /// walk over each queue head's values to fill. A policy that never
  /// reads it overrides this to false.
  virtual bool reads_head_size() const { return true; }

  virtual std::string name() const = 0;
};

/// FIFO: tuples processed in arrival order — run the operator holding the
/// globally oldest tuple (slide 43's baseline).
std::unique_ptr<SchedulingPolicy> MakeFifoPolicy();

/// Round-robin over non-empty queues.
std::unique_ptr<SchedulingPolicy> MakeRoundRobinPolicy();

/// Greedy: run the operator with the largest immediate memory release
/// rate, head_size * (1 - selectivity) / cost (slide 43's "Greedy").
std::unique_ptr<SchedulingPolicy> MakeGreedyPolicy();

/// Chain [BBDM03]: operators are prioritized by the slope of the segment
/// of the lower envelope of the chain's progress chart that covers them;
/// provably near-optimal for total queue memory. `costs`/`sels` describe
/// the full chain (needed to precompute the envelope).
std::unique_ptr<SchedulingPolicy> MakeChainPolicy(
    const std::vector<double>& costs, const std::vector<double>& sels);

}  // namespace sqp

#endif  // SQP_SCHED_POLICIES_H_
