#include "exec/xjoin.h"

#include <algorithm>

namespace sqp {

XJoinOp::XJoinOp(Options options, std::string name)
    : Operator(std::move(name)), options_(std::move(options)) {
  sides_[0].resize(options_.partitions);
  sides_[1].resize(options_.partitions);
}

void XJoinOp::EmitJoined(const Tuple& left, const Tuple& right,
                         bool disk_stage) {
  if (disk_stage) {
    ++disk_results_;
  } else {
    ++mem_results_;
  }
  Emit(Element(JoinedRow(left, right)));
}

void XJoinOp::SpillLargest() {
  int best_side = 0;
  size_t best_part = 0, best_bytes = 0;
  for (int s = 0; s < 2; ++s) {
    for (size_t p = 0; p < options_.partitions; ++p) {
      if (sides_[s][p].mem_bytes > best_bytes) {
        best_bytes = sides_[s][p].mem_bytes;
        best_side = s;
        best_part = p;
      }
    }
  }
  if (best_bytes == 0) return;
  Partition& part = sides_[best_side][best_part];
  for (auto& key : part.mem) {
    for (Entry& e : key.value) {
      disk_writes_ += e.t->MemoryBytes();
      ++spilled_tuples_;
      e.spill = seq_;
      part.disk.push_back(std::move(e));
    }
    key.value.clear();
  }
  part.mem.Clear();
  mem_bytes_total_ -= part.mem_bytes;
  part.mem_bytes = 0;
}

void XJoinOp::Push(const Element& e, int port) {
  CountIn(e);
  if (e.is_punctuation()) {
    Emit(e);
    return;
  }
  int me = port == 0 ? 0 : 1;
  int other = 1 - me;
  const TupleRef& t = e.tuple();
  KeyView key(*t, me == 0 ? options_.left_cols : options_.right_cols);
  size_t p = PartitionOf(key);
  ++seq_;

  // Memory-stage probe against the opposite side's resident partition.
  if (const auto* matches = sides_[other][p].mem.Find(key)) {
    for (const Entry& match : matches->value) {
      if (me == 0) {
        EmitJoined(*t, *match.t, false);
      } else {
        EmitJoined(*match.t, *t, false);
      }
    }
  }

  size_t bytes = t->MemoryBytes();
  sides_[me][p].mem.Insert(key).first->value.push_back(Entry{t, seq_});
  sides_[me][p].mem_bytes += bytes;
  mem_bytes_total_ += bytes;
  while (options_.memory_budget_bytes > 0 &&
         mem_bytes_total_ > options_.memory_budget_bytes) {
    SpillLargest();
  }
}

void XJoinOp::Flush() {
  if (++flushes_ < 2) return;

  // Clean-up stage: per partition, join every left/right pair not already
  // produced while both were resident. Disk reads are charged per spilled
  // tuple scanned.
  for (size_t p = 0; p < options_.partitions; ++p) {
    std::vector<const Entry*> left, right;
    for (const auto& key : sides_[0][p].mem) {
      for (const Entry& e : key.value) left.push_back(&e);
    }
    for (const Entry& e : sides_[0][p].disk) {
      disk_reads_ += e.t->MemoryBytes();
      left.push_back(&e);
    }
    for (const auto& key : sides_[1][p].mem) {
      for (const Entry& e : key.value) right.push_back(&e);
    }
    for (const Entry& e : sides_[1][p].disk) {
      disk_reads_ += e.t->MemoryBytes();
      right.push_back(&e);
    }
    if (left.empty() || right.empty()) continue;

    // Hash the right list, then stream the left through it.
    KeyTable<std::vector<const Entry*>> table;
    for (const Entry* r : right) {
      table.Insert(KeyView(*r->t, options_.right_cols))
          .first->value.push_back(r);
    }
    for (const Entry* l : left) {
      const auto* matches = table.Find(KeyView(*l->t, options_.left_cols));
      if (matches == nullptr) continue;
      for (const Entry* r : matches->value) {
        if (AlreadyJoined(*l, *r)) continue;
        EmitJoined(*l->t, *r->t, true);
      }
    }
  }
  Operator::Flush();
}

size_t XJoinOp::StateBytes() const {
  return sizeof(*this) + mem_bytes_total_;
}

}  // namespace sqp
