#ifndef SQP_EXEC_XJOIN_H_
#define SQP_EXEC_XJOIN_H_

#include <string>
#include <vector>

#include "common/key_table.h"
#include "exec/operator.h"

namespace sqp {

/// XJoin [UF00] (slide 31): a symmetric hash join whose in-memory hash
/// tables respect a memory budget. When the budget is exceeded, the
/// largest partition is spilled to "disk" (a simulated second stage) and
/// joined during Flush, counting the disk I/O the real XJoin would pay.
///
/// Duplicate avoidance follows the paper: each tuple records its arrival
/// and spill sequence numbers; the clean-up stage skips pairs that were
/// provably matched while both were memory-resident.
class XJoinOp : public Operator {
 public:
  struct Options {
    std::vector<int> left_cols;
    std::vector<int> right_cols;
    /// In-memory budget across both hash tables, in bytes. 0 = unbounded.
    size_t memory_budget_bytes = 0;
    /// Number of hash partitions (spill granularity).
    size_t partitions = 16;
  };

  explicit XJoinOp(Options options, std::string name = "xjoin");

  void Push(const Element& e, int port = 0) override;
  void Flush() override;
  size_t StateBytes() const override;

  /// Simulated disk traffic in bytes.
  uint64_t disk_write_bytes() const { return disk_writes_; }
  uint64_t disk_read_bytes() const { return disk_reads_; }
  uint64_t spilled_tuples() const { return spilled_tuples_; }
  /// Results produced in the in-memory stage vs. the clean-up stage.
  uint64_t memory_stage_results() const { return mem_results_; }
  uint64_t disk_stage_results() const { return disk_results_; }

 private:
  static constexpr uint64_t kNeverSpilled = UINT64_MAX;

  struct Entry {
    TupleRef t;
    uint64_t arrive;                 // Global arrival sequence number.
    uint64_t spill = kNeverSpilled;  // Sequence number when spilled.
  };

  struct Partition {
    /// A cleared key's vector stays in the table, emptied.
    KeyTable<std::vector<Entry>> mem;
    std::vector<Entry> disk;
    size_t mem_bytes = 0;
  };

  size_t PartitionOf(const KeyView& key) const {
    return key.Hash() % options_.partitions;
  }
  void SpillLargest();
  void EmitJoined(const Tuple& left, const Tuple& right, bool disk_stage);

  /// True if (a, b) was produced during the memory stage: the later
  /// arrival happened while the earlier one was still resident. A spill
  /// recorded at the same sequence number happened *after* that tuple's
  /// probe (probe precedes spill within one Push), hence <=.
  static bool AlreadyJoined(const Entry& a, const Entry& b) {
    const Entry& early = a.arrive < b.arrive ? a : b;
    const Entry& late = a.arrive < b.arrive ? b : a;
    return early.spill == kNeverSpilled || late.arrive <= early.spill;
  }

  Options options_;
  std::vector<Partition> sides_[2];  // [0]=left, [1]=right.
  size_t mem_bytes_total_ = 0;
  uint64_t seq_ = 0;
  uint64_t disk_writes_ = 0;
  uint64_t disk_reads_ = 0;
  uint64_t spilled_tuples_ = 0;
  uint64_t mem_results_ = 0;
  uint64_t disk_results_ = 0;
  int flushes_ = 0;
};

}  // namespace sqp

#endif  // SQP_EXEC_XJOIN_H_
