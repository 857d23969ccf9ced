#ifndef SQP_EXEC_COLUMN_BATCH_H_
#define SQP_EXEC_COLUMN_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stream/element.h"
#include "stream/element_batch.h"

namespace sqp {

/// Columnar mirror of an ElementBatch: the unit of the vectorized
/// execution path (see DESIGN.md "Columnar execution").
///
/// Layout
///   - one typed array per attribute (`Column`): int64/double vectors, or
///     an offset+arena pair for strings; a lazily allocated validity mask
///     marks per-row nulls, and a column whose values are *all* null
///     carries `type == kNull` with no storage at all;
///   - the out-of-band tuple timestamps (`ts`), one per physical row;
///   - a selection vector (`sel`, ascending physical row indices):
///     selects *refine* it in place instead of copying survivors, so a
///     chain of filters touches each column once and moves no data;
///   - punctuation slots (`puncts`): each records the punctuation plus
///     the physical row index it precedes (`pos == rows()` = after the
///     last row), so interleavings survive the columnar detour exactly.
///
/// Equivalence contract: MaterializeRows(FromRows(batch)) reproduces the
/// source batch element-for-element (same tuple values, timestamps and
/// punctuation interleaving), and any operator sequence applied
/// columnarly must yield the same materialized rows as its row-path
/// twin. Conversion is best-effort: FromRows returns false (and the
/// caller stays on the row path) for ragged batches or columns mixing
/// non-null types — the row path remains the general fallback.
class ColumnBatch {
 public:
  /// One attribute's values across all physical rows.
  struct Column {
    ValueType type = ValueType::kNull;  ///< kNull => every value is null.
    std::vector<int64_t> ints;          ///< when type == kInt
    std::vector<double> dbls;           ///< when type == kDouble
    /// String storage: rows+1 offsets into the shared byte arena, so the
    /// column is two contiguous allocations regardless of row count.
    std::vector<uint32_t> offsets;
    std::string bytes;
    /// Validity: empty means "no nulls"; else one byte per physical row
    /// (1 = null). Kept as bytes, not bits — branchless loads beat bit
    /// twiddling at these batch sizes and the mask is usually absent.
    std::vector<uint8_t> nulls;

    bool HasNulls() const { return !nulls.empty(); }
    bool IsNull(size_t row) const {
      return type == ValueType::kNull || (!nulls.empty() && nulls[row] != 0);
    }
    std::string_view Str(size_t row) const {
      return std::string_view(bytes.data() + offsets[row],
                              offsets[row + 1] - offsets[row]);
    }
    /// Rebuilds the boxed Value for one row (materialization boundary).
    Value ValueAt(size_t row) const;

    void Clear() {
      type = ValueType::kNull;
      ints.clear();
      dbls.clear();
      offsets.clear();
      bytes.clear();
      nulls.clear();
    }
  };

  /// A punctuation anchored before physical row `pos` (pos == rows() =
  /// trailing). Slots are kept in arrival order; pos is non-decreasing.
  struct PunctSlot {
    uint32_t pos = 0;
    Punctuation punct;
  };

  std::vector<Column> cols;
  std::vector<int64_t> ts;  ///< per-physical-row tuple timestamps
  std::vector<PunctSlot> puncts;

  /// Selection vector: when `has_sel`, only the physical rows listed in
  /// `sel` (ascending) are live; otherwise all rows are.
  std::vector<uint32_t> sel;
  bool has_sel = false;

  size_t rows() const { return ts.size(); }
  size_t width() const { return cols.size(); }
  size_t ActiveRows() const { return has_sel ? sel.size() : rows(); }
  bool empty() const { return rows() == 0 && puncts.empty(); }

  /// Physical index of the k-th live row.
  uint32_t Active(size_t k) const {
    return has_sel ? sel[k] : static_cast<uint32_t>(k);
  }

  /// Resets to an empty batch; storage capacity is retained so reused
  /// scratch batches stop allocating once warm.
  void Clear();

  /// Converts a row batch. Returns false (out is cleared) when the batch
  /// cannot be represented: tuples of differing arity, or a column whose
  /// non-null values mix types (e.g. int and double) — callers fall back
  /// to the row path. Moved-from elements in `in` are skipped the same
  /// way ElementBatch consumers skip them.
  static bool FromRows(const ElementBatch& in, ColumnBatch* out);

  /// Rebuilds physical row `r` as a tuple.
  TupleRef RowAt(uint32_t r) const;

  /// Appends the live rows and punctuations to `out` in stream order —
  /// the late-materialization step at sinks and fallback boundaries.
  void MaterializeRows(ElementBatch* out) const;

  /// Approximate footprint (queue/shedding accounting).
  size_t MemoryBytes() const;
};

}  // namespace sqp

#endif  // SQP_EXEC_COLUMN_BATCH_H_
