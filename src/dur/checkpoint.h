#ifndef SQP_DUR_CHECKPOINT_H_
#define SQP_DUR_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace sqp {
namespace dur {

/// Captured state of one standing query at a checkpoint.
struct QueryCheckpoint {
  /// The CQL text — recovery matches checkpointed state to resubmitted
  /// queries by it.
  std::string text;
  /// False: the query's plan could not be checkpointed (parallel/sharded
  /// execution, an adaptive shed gate, or an operator without a
  /// serializer) and recovery replays its input from seq 0 instead.
  bool included = false;
  /// One opaque blob per checkpointable operator, in plan order, with
  /// the result collector last.
  std::vector<std::string> op_states;
};

/// An engine-wide consistent cut: every included query's operator state
/// as of archive position `position`. Recovery restores the states and
/// replays only records with seq > position into included queries.
struct Checkpoint {
  uint64_t id = 0;
  uint64_t position = 0;
  /// Global sequence counter to resume appending at.
  uint64_t next_seq = 0;
  std::vector<QueryCheckpoint> queries;
};

/// Writes `c` under `<root>/ckpt/` (tmp file + atomic rename, CRC over
/// the body) and prunes all but the newest `keep` checkpoint files.
/// `fsync` additionally syncs the file before the rename and the
/// directory after it, so the checkpoint survives OS/power failure —
/// pass the archive's fsync option so both halves share one contract.
Status WriteCheckpoint(const std::string& root, const Checkpoint& c,
                       size_t keep, bool fsync = false);

/// Loads the newest readable checkpoint. Files whose CRC fails (e.g. a
/// crash mid-prune corrupted nothing — rename is atomic — but disks
/// happen) are skipped in favor of the next-newest. NotFound when no
/// checkpoint exists.
Result<Checkpoint> ReadLatestCheckpoint(const std::string& root);

}  // namespace dur
}  // namespace sqp

#endif  // SQP_DUR_CHECKPOINT_H_
