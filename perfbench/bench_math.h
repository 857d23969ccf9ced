// The benchmark's own arithmetic, kept free of streamqp headers so
// bench_math_test.cc can check it in isolation: percentile selection,
// the quantile over rounds, span self time, and the
// order-insensitive multiset checksum that compares an output against
// its reference.
#ifndef PERFBENCH_BENCH_MATH_H_
#define PERFBENCH_BENCH_MATH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of ascending `sorted`: the smallest sample with
/// at least p percent of the samples at or below it. 0 when empty.
inline uint64_t Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The highest percentile of the ladder 50, 90, 99, 99.9, ... that leaves
/// at least ten samples beyond its nearest rank, so a tail figure always
/// rests on ten observations. 0 when even the median has fewer.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99, 99.999}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
    if (rank >= 1 && n >= rank + 10) best = p;
  }
  return best;
}

/// Median of unsorted values (upper median for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Nearest-rank quantile `q` (0 to 1) of unsorted values: the smallest
/// value with at least a share q of the values at or below it (the lowest
/// value for q = 0). 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// One traced interval: a call from the benchmark into a layer.
struct Span {
  uint32_t name = 0;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // Index of the enclosing span, -1 for a root.
  uint64_t request = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children count once,
/// and a child running past its parent counts only inside it).
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start_ns;
    const uint64_t hi = std::max(spans[i].end_ns, lo);
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0;
    uint64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// splitmix64 finalizer: a bijective 64-bit mixer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive hash of one row's values, fed field by field. Each
/// field is tagged with its type, so 1 and "1" differ.
class RowHasher {
 public:
  void AddNull() { Step(0x6e756c6cULL); }
  void AddInt(int64_t v) { Step(1), Step(static_cast<uint64_t>(v)); }
  void AddDouble(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    Step(2), Step(bits);
  }
  void AddString(std::string_view s) {
    uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a.
    for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ULL;
    Step(3), Step(h), Step(s.size());
  }
  uint64_t Finish() const { return Mix64(h_); }

 private:
  void Step(uint64_t v) { h_ = Mix64(h_ ^ v); }
  uint64_t h_ = 0x243f6a8885a308d3ULL;
};

/// Order-insensitive fingerprint of a multiset of rows: the row count and
/// two wrapping sums of independently mixed row hashes. Equal multisets
/// always match; a missing, extra, duplicated or altered row changes it.
struct Multiset {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t sum2 = 0;

  void Add(uint64_t row_hash) {
    ++count;
    sum += Mix64(row_hash);
    sum2 += Mix64(row_hash ^ 0x5851f42d4c957f2dULL);
  }
  bool operator==(const Multiset& o) const {
    return count == o.count && sum == o.sum && sum2 == o.sum2;
  }
  bool operator!=(const Multiset& o) const { return !(*this == o); }
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_MATH_H_
