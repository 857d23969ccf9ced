#ifndef SQP_SYNOPSIS_DISTINCT_H_
#define SQP_SYNOPSIS_DISTINCT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "dur/codec.h"

namespace sqp {

/// Flajolet-Martin distinct counter: k independent bitmaps of trailing-
/// zero observations; estimate = 2^(mean lowest-unset-bit) / 0.77351.
class FlajoletMartin {
 public:
  FlajoletMartin(size_t num_maps, uint64_t seed);

  void Add(const Value& v);

  double Estimate() const;

  size_t MemoryBytes() const {
    return sizeof(*this) + bitmaps_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> bitmaps_;
  std::vector<uint64_t> seeds_;
};

/// HyperLogLog distinct counter with 2^precision registers, including the
/// small-range linear-counting correction.
class HyperLogLog {
 public:
  /// `precision` in [4, 16].
  explicit HyperLogLog(int precision);

  void Add(const Value& v);

  double Estimate() const;

  /// Zeroes every register: the state of a new HLL of this precision.
  void Clear() { std::fill(registers_.begin(), registers_.end(), 0); }

  /// Merges another HLL (same precision) — distributed distinct counting.
  void Merge(const HyperLogLog& other);

  int precision() const { return precision_; }

  size_t MemoryBytes() const {
    return sizeof(*this) + registers_.capacity();
  }

  /// Layout: u8 precision, then the 2^precision u8 registers.
  void Save(dur::BufWriter& w) const;
  /// Inverse of Save. Returns a Status and changes nothing for a
  /// truncated state, another precision, or a register above the
  /// largest rank, 64 - precision + 1.
  Status Restore(dur::BufReader& r);

 private:
  int precision_;
  std::vector<uint8_t> registers_;
};

}  // namespace sqp

#endif  // SQP_SYNOPSIS_DISTINCT_H_
