#ifndef SQP_SYNOPSIS_GK_QUANTILE_H_
#define SQP_SYNOPSIS_GK_QUANTILE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "dur/codec.h"

namespace sqp {

/// Greenwald-Khanna epsilon-approximate quantile summary. Answers any
/// quantile query within eps*n rank error using O((1/eps) log(eps n))
/// space — the quantile computation "part of Gigascope, engineered to
/// reduce drops" (slide 53).
class GkQuantile {
 public:
  explicit GkQuantile(double eps);

  void Add(double x);

  /// Empties the summary (keeping its capacity); eps is unchanged.
  void Clear() {
    n_ = 0;
    summary_.clear();
  }

  /// Merges another summary built with the same eps. The merged summary
  /// answers queries within ~2*eps rank error (the standard additive
  /// degradation of GK merges); Compress() keeps the size bounded.
  void Merge(const GkQuantile& other);

  /// Value whose rank is within eps*n of q*n. Precondition: n() > 0.
  double Query(double q) const;

  uint64_t n() const { return n_; }
  size_t summary_size() const { return summary_.size(); }
  double eps() const { return eps_; }

  size_t MemoryBytes() const {
    return sizeof(*this) + summary_.capacity() * sizeof(Entry);
  }

  /// Layout: f64 eps, u64 n, u32 entry count, then each entry's f64 v,
  /// u64 g and u64 delta.
  void Save(dur::BufWriter& w) const;
  /// Inverse of Save. Returns a Status and changes nothing for a
  /// truncated state, another eps, or entries out of value order or
  /// whose gaps do not sum to n.
  Status Restore(dur::BufReader& r);

 private:
  struct Entry {
    double v;
    uint64_t g;      // Rank gap to the previous entry.
    uint64_t delta;  // Rank uncertainty.
  };

  void Compress();

  double eps_;
  uint64_t n_ = 0;
  std::vector<Entry> summary_;  // Sorted by v.
};

}  // namespace sqp

#endif  // SQP_SYNOPSIS_GK_QUANTILE_H_
