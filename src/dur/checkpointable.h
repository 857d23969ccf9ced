#ifndef SQP_DUR_CHECKPOINTABLE_H_
#define SQP_DUR_CHECKPOINTABLE_H_

#include <string>

#include "common/status.h"
#include "dur/codec.h"

namespace sqp {

/// Mixin for operators whose in-memory state can round-trip through a
/// checkpoint (dur::Checkpoint). Implemented by the stateful synopses
/// the CQL planner emits — group-by (under every window it closes), the
/// window aggregate (sliding, landmark or partitioned windows), the
/// window join (sliding or landmark windows), distinct, the reorder
/// and heartbeat front-ends the engine splices in — plus the result
/// collector.
///
/// Contract: SaveState on a quiescent operator (the single driving
/// thread is parked in the checkpoint) followed by RestoreState on a
/// freshly built operator of the same configuration must reproduce
/// behavior exactly: pushing the same element suffix yields the same
/// outputs. RestoreState returns a Status (never throws) so a corrupt
/// or mismatched checkpoint degrades to full replay, not a crash.
class CheckpointableOperator {
 public:
  virtual ~CheckpointableOperator() = default;

  virtual void SaveState(dur::BufWriter& w) const = 0;
  virtual Status RestoreState(dur::BufReader& r) = 0;
};

}  // namespace sqp

#endif  // SQP_DUR_CHECKPOINTABLE_H_
