#include "synopsis/distinct.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/rng.h"

namespace sqp {

namespace {

uint64_t Remix(uint64_t h, uint64_t seed) {
  h *= seed;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

}  // namespace

FlajoletMartin::FlajoletMartin(size_t num_maps, uint64_t seed) {
  bitmaps_.resize(num_maps, 0);
  Rng rng(seed);
  seeds_.reserve(num_maps);
  for (size_t i = 0; i < num_maps; ++i) seeds_.push_back(rng.Next() | 1);
}

void FlajoletMartin::Add(const Value& v) {
  uint64_t base = v.Hash();
  for (size_t i = 0; i < bitmaps_.size(); ++i) {
    uint64_t h = Remix(base, seeds_[i]);
    int r = h == 0 ? 63 : __builtin_ctzll(h);
    bitmaps_[i] |= (1ULL << r);
  }
}

double FlajoletMartin::Estimate() const {
  // R = mean index of lowest unset bit.
  double mean_r = 0.0;
  for (uint64_t bm : bitmaps_) {
    int r = 0;
    while (r < 64 && (bm & (1ULL << r))) ++r;
    mean_r += static_cast<double>(r);
  }
  mean_r /= static_cast<double>(bitmaps_.size());
  constexpr double kPhi = 0.77351;
  return std::pow(2.0, mean_r) / kPhi;
}

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  assert(precision >= 4 && precision <= 16);
  registers_.resize(size_t{1} << precision, 0);
}

void HyperLogLog::Add(const Value& v) {
  uint64_t h = Remix(v.Hash(), 0x9e3779b97f4a7c15ULL);
  size_t idx = static_cast<size_t>(h >> (64 - precision_));
  uint64_t rest = h << precision_;
  // Rank = position of leftmost 1 in the remaining bits (1-based).
  uint8_t rank = rest == 0 ? static_cast<uint8_t>(64 - precision_ + 1)
                           : static_cast<uint8_t>(__builtin_clzll(rest) + 1);
  registers_[idx] = std::max(registers_[idx], rank);
}

double HyperLogLog::Estimate() const {
  const size_t m = registers_.size();
  double alpha;
  switch (m) {
    case 16:
      alpha = 0.673;
      break;
    case 32:
      alpha = 0.697;
      break;
    case 64:
      alpha = 0.709;
      break;
    default:
      alpha = 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
  double sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::pow(2.0, -static_cast<double>(r));
    if (r == 0) ++zeros;
  }
  double est = alpha * static_cast<double>(m) * static_cast<double>(m) / sum;
  // Small-range correction: linear counting.
  if (est <= 2.5 * static_cast<double>(m) && zeros > 0) {
    est = static_cast<double>(m) *
          std::log(static_cast<double>(m) / static_cast<double>(zeros));
  }
  return est;
}

void HyperLogLog::Merge(const HyperLogLog& other) {
  assert(precision_ == other.precision_);
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
}

void HyperLogLog::Save(dur::BufWriter& w) const {
  w.U8(static_cast<uint8_t>(precision_));
  w.Raw(registers_.data(), registers_.size());
}

Status HyperLogLog::Restore(dur::BufReader& r) {
  uint8_t precision = 0;
  SQP_RETURN_NOT_OK(r.U8(&precision));
  if (precision != precision_) {
    return Status::Internal("hll: checkpoint precision mismatch");
  }
  std::vector<uint8_t> registers(registers_.size());
  for (uint8_t& reg : registers) {
    SQP_RETURN_NOT_OK(r.U8(&reg));
    if (reg > 64 - precision_ + 1) {
      return Status::Internal("hll: checkpoint register out of range");
    }
  }
  registers_ = std::move(registers);
  return Status::OK();
}

}  // namespace sqp
